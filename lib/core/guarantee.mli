(** Guarantees: weakened consistency statements, checked against traces.

    The paper proves guarantees from interface and strategy
    specifications with proof rules ([CGMW94], out of scope there and
    here); our executable counterpart {e verifies them on concrete
    executions}: the checker reconstructs item timelines from the trace
    and decides each guarantee form.  The numbered forms are the paper's
    (§3.3.1):

    - (1) {e Y follows X} — Y never holds a value X did not hold earlier;
    - (2) {e X leads Y} — every value X takes eventually appears in Y;
    - (3) {e Y strictly follows X} — Y's values appear in the order X
      took them;
    - (4) metric variant of (1): at every instant, Y's value was held by
      X less than κ ago;

    plus the additional scenarios of §6: [Always_leq] (Demarcation
    Protocol), [Exists_within] (referential integrity with a bounded
    violation window), [Monitor_window] (the Flag/Tb auxiliary-data
    guarantee of §6.3), and [Periodic_equal] (§6.4). *)

type copy_pair = { leader : Cm_rule.Item.t; follower : Cm_rule.Item.t }

type t =
  | Follows of copy_pair
  | Leads of copy_pair
  | Strictly_follows of copy_pair
  | Metric_follows of copy_pair * float  (** κ *)
  | Always_leq of { smaller : Cm_rule.Item.t; larger : Cm_rule.Item.t }
  | Exists_within of {
      antecedent : Cm_rule.Item.t;
      consequent : Cm_rule.Item.t;
      bound : float;
    }
      (** [E(antecedent)@t ⇒ E(consequent)@t' for some t' ∈ [t, t+bound]] *)
  | Monitor_window of {
      flag : Cm_rule.Item.t;
      tb : Cm_rule.Item.t;
      x : Cm_rule.Item.t;
      y : Cm_rule.Item.t;
      kappa : float;
    }
      (** [(Flag ∧ Tb = s)@t ⇒ (X = Y) throughout [s, t−κ]] *)
  | Periodic_equal of {
      x : Cm_rule.Item.t;
      y : Cm_rule.Item.t;
      period : float;
      valid_from : float;  (** window start offset within each period *)
      valid_to : float;  (** window end offset; may exceed [period] *)
    }

val name : t -> string
(** Short display name: "(1) follows", "(2) leads", … *)

val to_string : t -> string
(** The logical statement, in the paper's notation. *)

val is_metric : t -> bool
(** Metric guarantees mention explicit time bounds and are invalidated
    by metric failures; non-metric ones survive them (§5). *)

type report = {
  holds : bool;
  checked_points : int;  (** how many proof obligations were examined *)
  counterexamples : string list;  (** up to 5, human-readable *)
}

val check :
  ?ignore_after:float ->
  horizon:float ->
  Cm_rule.Timeline.t ->
  t ->
  report
(** Decide the guarantee over the timeline up to [horizon].
    [ignore_after] (default [horizon]) bounds the obligations considered
    for "eventually" forms — {!Leads} obligations arising after it are
    skipped, since their propagation may legitimately still be in
    flight. *)

val for_copy_constraint :
  source:Cm_rule.Item.t -> target:Cm_rule.Item.t -> kappa:float -> t list
(** The four §3.3.1 guarantees for a copy constraint, in paper order. *)
