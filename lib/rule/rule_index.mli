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
    entry whose template can match the event, in the same (installation)
    order.  [select_naive] is retained as the oracle for the
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
    for every event with the template's name. *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> lhs:Template.t -> site:Item.site option -> 'a -> unit
(** Register a payload under the LHS template [lhs]'s discrimination key
    and resolved LHS [site].  Entries are returned by {!select} /
    {!select_naive} in registration order. *)

val remove : 'a t -> lhs:Template.t -> site:Item.site option -> ('a -> bool) -> bool
(** Unregister the most recently registered live entry under [lhs]'s
    discrimination key and [site] whose payload satisfies the predicate.
    O(bucket): the discrimination bucket is filtered in place and the
    registration list keeps a tombstone that is compacted once
    tombstones outnumber live entries, so rule churn never reintroduces
    an O(all rules) rebuild.  Returns [false] if no live entry under
    that key matches. *)

val select :
  'a t ->
  local_site:Item.site ->
  event_site:Item.site ->
  desc:Event.desc ->
  'a list
(** Candidate payloads for an event [desc] occurring at [event_site], in
    registration order: the site buckets for [event_site] (base-specific
    and base-free) merged with the chaining buckets when [event_site] is
    [local_site].  O(candidates), independent of the total number of
    registered rules.  Every registered entry whose template matches
    [desc] under the site discipline is included; entries whose name or
    position-0 base rule out a match are skipped. *)

val select_naive :
  'a t -> local_site:Item.site -> event_site:Item.site -> 'a list
(** The retained oracle: a linear scan over every registered entry
    applying only the site filter (name and base discrimination are left
    to the caller's template matching, exactly as the pre-index shell
    did).  O(registered rules).  [select] followed by template matching
    must produce the same matches in the same order as [select_naive]
    followed by template matching — the differential test suite holds
    the two paths to that. *)

val length : 'a t -> int
(** Live (registered and not removed) entries. *)

val bucket_stats : 'a t -> int * int
(** [(buckets, largest)]: number of non-empty discrimination buckets and
    the size of the largest one — the index's worst-case candidate list.
    For benchmark reporting. *)
