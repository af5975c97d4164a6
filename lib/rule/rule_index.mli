(** Rule/event discrimination index: the shell's hot dispatch path.

    Every event a CM-Shell records is matched against the strategy rules
    whose LHS site the shell handles.  The naive implementation is a
    linear scan — each event touches every installed rule, so matching
    cost grows with sites x constraints even though an event can only
    ever match rules whose LHS template carries its descriptor name,
    whose LHS site is the event's site, and (when the template's first
    argument is an item pattern) whose item base is the event's first
    argument's base.  This index buckets rules by exactly that
    (LHS site, event kind, base name) triple, so {!select} touches only
    the candidate rules.

    Appendix A.1 semantics only constrains {e which} rules match and in
    {e what order} their firings appear, so the index must be — and is —
    observationally equivalent to the scan: {!select} returns a
    subsequence of {!select_naive} that is guaranteed to contain every
    entry whose template can match the event and whose LHS condition can
    then hold, in the same (installation) order.  [select_naive] is retained as the oracle for the
    differential test harness, not as a fallback.

    Site discipline (paper §4.1 rule distribution): an entry installed
    with [site = Some s] is a candidate for events occurring at [s]; an
    entry with [site = None] (a pure chaining rule mentioning no item) is
    a candidate only for events at the shell's own site, which callers
    pass as [local_site].

    Base discipline: a template whose first argument is
    [Expr.Item (b, _)] can only match descriptors whose first argument
    is an item with base [b] ({!Template.matches} fails the position-0
    comparison otherwise), so such entries live in a per-base bucket
    consulted only for events carrying that base.  Templates with any
    other first argument stay in a base-free bucket that is a candidate
    for every event with the template's name.

    Range discipline: within a bucket, an entry registered with its LHS
    condition is skipped when the condition's leading comparisons
    exclude the event's value (see {!add}). *)

type 'a t

val create : unit -> 'a t

val add : ?cond:Expr.t -> 'a t -> lhs:Template.t -> site:Item.site option -> 'a -> unit
(** Register a payload under the LHS template [lhs]'s discrimination key
    and resolved LHS [site].  Entries are returned by {!select} /
    {!select_naive} in registration order.

    [cond] is the rule's LHS condition.  When its leading conjuncts
    compare one variable [x] with constants — [x >= lo] or [x > lo]
    below, [x < hi] or [x <= hi] above, in {!Value.compare} order, at
    most one of each — and [x] first occurs in [lhs] as a whole
    top-level argument, those comparisons are the entry's {e range}:
    {!select} skips the entry for an event whose argument at that
    position falls outside it (or is an item), since the condition
    would fail there.  This assumes matching starts from
    {!Expr.empty_env}, as the shell's does.  Without [cond] the entry
    has no range. *)

val remove : 'a t -> lhs:Template.t -> site:Item.site option -> ('a -> bool) -> bool
(** Unregister the most recently registered live entry under [lhs]'s
    discrimination key and [site] whose payload satisfies the predicate.
    O(bucket): the discrimination bucket is filtered in place and the
    registration list keeps a tombstone that is compacted once
    tombstones outnumber live entries, so rule churn never reintroduces
    an O(all rules) rebuild.  Returns [false] if no live entry under
    that key matches. *)

val iter :
  'a t ->
  local_site:Item.site ->
  event_site:Item.site ->
  desc:Event.desc ->
  ('a -> unit) ->
  unit
(** Apply the function to the candidate payloads for an event [desc]
    occurring at [event_site], in registration order: the site buckets
    for [event_site] (base-specific and base-free) merged with the
    chaining buckets when [event_site] is [local_site], less the
    entries whose range excludes the event.  O(candidates), independent
    of the total number of registered rules, and allocates nothing.
    Every registered entry whose template matches [desc] under the site
    discipline and whose range admits it is included; entries whose
    name or position-0 base rule out a match are skipped.

    A range skip is not a condition failure: the shell counts
    [shell_guard_rejections{side=lhs}] for candidates whose condition
    failed, so a rule skipped by its range is not counted. *)

val select :
  'a t ->
  local_site:Item.site ->
  event_site:Item.site ->
  desc:Event.desc ->
  'a list
(** {!iter}'s candidates as a list. *)

val select_naive :
  'a t -> local_site:Item.site -> event_site:Item.site -> 'a list
(** The retained oracle: a linear scan over every registered entry
    applying only the site filter (name, base and range discrimination
    are left to the caller's template matching and condition, exactly
    as the pre-index shell did).  O(registered rules).  [select]
    followed by template matching and the LHS condition must produce the
    same firings, with the same bindings, in the same order as
    [select_naive] followed by the same two steps — the differential
    test suite holds the two paths to that. *)

val length : 'a t -> int
(** Live (registered and not removed) entries. *)

val bucket_stats : 'a t -> int * int
(** [(buckets, largest)]: number of non-empty discrimination buckets and
    the size of the largest one — the index's worst-case candidate list.
    For benchmark reporting. *)
