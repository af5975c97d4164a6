(** Demarcation-protocol scenario (§6.1): an inequality constraint
    X ≤ Y between account values at two branches.

    Each branch's database stores the value and its local limit in one
    row whose CHECK constraint ([bal <= lim] at X, [bal >= lim] at Y) is
    the local constraint manager.  Application operations that fit the
    limit succeed locally with no messages; operations that cross it are
    rejected by the CHECK, and {!try_set_x}/{!try_set_y} then file a
    limit-change request with the CM and report [`Requested].

    The two branches are one CM-RID description (§4.1) — their tables,
    items, and [location] lines for the pending-request items — built by
    {!Cm_core.Toolkit.attach}. *)

type t = {
  system : Cm_core.System.t;
  shell_a : Cm_core.Shell.t;
  shell_b : Cm_core.Shell.t;
  tr_a : Cm_core.Tr_relational.t;
  tr_b : Cm_core.Tr_relational.t;
  db_a : Cm_relational.Database.t;
  db_b : Cm_relational.Database.t;
  x : Cm_core.Demarcation.side;
  y : Cm_core.Demarcation.side;
}

val locator : Cm_rule.Item.locator
(** The description's locator: X-side items → "branch_a", everything
    else → "branch_b"; see {!Cm_workload.Payroll.locator} for the
    [?system] protocol. *)

val create :
  ?config:Cm_core.System.Config.t ->
  ?system:Cm_core.System.t ->
  policy:Cm_core.Demarcation.policy ->
  unit ->
  t
(** X starts at (0, limit 50), Y at (100, limit 50).
    [config] carries the seed and the network/reliability/observability
    setup (see {!Cm_core.System.create}); [system] substitutes a
    pre-built system (created over {!locator}) and [config] is then
    ignored. *)

type outcome = Applied | Requested
(** [Requested]: the local write was rejected by the limit and a
    limit-change request was filed; the caller may retry later. *)

val try_set_x : t -> int -> outcome
val try_set_y : t -> int -> outcome

val x_bal : t -> float
val y_bal : t -> float
val x_lim : t -> float
val y_lim : t -> float

val always_leq_guarantee : Cm_core.Guarantee.t
val initial : t -> (Cm_rule.Item.t * Cm_rule.Value.t) list
