(** The menu of proven constraint-management strategies (paper §3.2, §4).

    A strategy is a set of rules (plus any CM auxiliary data it needs);
    the toolkit ({!System.install}) distributes the rules to shells by
    LHS site — each rule is stored at the shell that fires it, and a
    firing carries its rule to the shell of its RHS site — and registers
    the periodic timers the rules mention.  Item arguments are patterns:
    {!Interface.plain} items or {!Interface.family} families — family
    strategies cover every instance through parameter binding, like the
    paper's salary1(n)/salary2(n) example. *)

type t = {
  strategy_name : string;
  description : string;
  rules : Cm_rule.Rule.t list;
  aux_init : (Cm_rule.Item.t * Cm_rule.Value.t) list;
      (** CM private data to initialize, at the RHS shell *)
}

val propagate :
  ?prefix:string -> delta:float -> source:Cm_rule.Expr.t -> target:Cm_rule.Expr.t -> unit -> t
(** Update propagation (§3.2, §4.2.2): [N(X, b) →δ WR(Y, b)].  Requires a
    notify interface on the source and a write interface on the target.
    Validates guarantees (1)–(4). *)

val propagate_cached :
  ?prefix:string ->
  delta:float ->
  source:Cm_rule.Expr.t ->
  target:Cm_rule.Expr.t ->
  cache:string ->
  unit ->
  t
(** Caching propagation (§3.2): forward only when the value differs from
    the CM-cached copy, then update the cache:
    [N(X, b) →δ (Cx ≠ b) ? WR(Y, b), W(Cx, b)]. *)

val poll :
  ?prefix:string ->
  period:float ->
  delta:float ->
  source:Cm_rule.Expr.t ->
  target:Cm_rule.Expr.t ->
  unit ->
  t
(** Polling (§4.2.3's second scenario), for sources offering only a read
    interface: [P(p) →ε RR(X)] and [R(X, b) →δ WR(Y, b)].  Validates
    guarantees (1), (3), (4) but {b not} (2): updates inside one polling
    interval are missed.  Plain (non-family) items only — a read request
    must name a concrete item. *)

val monitor :
  ?prefix:string ->
  delta:float ->
  x:Cm_rule.Expr.t ->
  y:Cm_rule.Expr.t ->
  unit ->
  t
(** Monitoring (§6.3), when the CM can write neither item: maintain
    caches Cx/Cy plus Flag/Tb auxiliary data at the application's shell.
    Flag true with Tb = s means X = Y held throughout [s, now − κ].
    Aux items are named [Flag_<prefix>], [Tb_<prefix>], etc. *)

type monitor_aux = {
  flag : Cm_rule.Item.t;
  tb : Cm_rule.Item.t;
  cx : Cm_rule.Item.t;
  cy : Cm_rule.Item.t;
}

val monitor_items : ?prefix:string -> unit -> monitor_aux
(** The auxiliary item names a [monitor] strategy with the same [prefix]
    uses — needed to express its guarantee and to read it (§7.1). *)

val refint_cache :
  ?prefix:string -> delta:float -> parent:string -> cache:string -> unit -> t
(** Maintain a CM-local existence cache of the parent family at the
    child's shell from INS/DEL events — the local data a referential
    integrity sweep needs (§6.2):
    [INS(P(k)) →δ W(C(k), true)] and [DEL(P(k)) →δ W(C(k), false)]. *)

val combine : t list -> t
(** Union of rules and aux data; name/description concatenated. *)
