(** Runtime rule evolution: versioned rule epochs with drain-and-cutover.

    §4.2.3 of the paper walks through an interface change (the payroll
    database moving from update notifications to a read interface) as an
    offline reconfiguration.  This module performs that change on a
    {e running} system instead, reusing the reliable layer's epoch
    framing: every installed rule program is a numbered {e rule epoch},
    in-flight [Fire] envelopes carry the epoch that produced them, and a
    change proceeds through a per-site state machine —

    {v propose -> cutover (old epoch drains) -> retire v}

    A {e proposed} program is staged (and journaled) at every shell
    without affecting dispatch.  {e Cutover} atomically redirects new
    event dispatch to the proposed program, while firings produced under
    the old epoch and still on the wire continue to execute under the
    old rules (the old epoch is {e draining}).  {e Retirement} ends the
    drain: stale-epoch envelopes arriving afterwards are rejected and
    counted ([Shell.stale_epoch_rejections], the
    [shell_stale_epoch_rejections] counter) — never silently dropped,
    never executed under rules that did not produce them.

    On every cutover {!System.cutover} re-derives each declared copy
    constraint ({!System.declare_copies}) from the running program —
    the system's interface statements and strategy — to the incoming
    one, and each §3.3 guarantee is classified as kept / upgraded /
    lost{i {reason}} — answering the question the paper leaves to the
    administrator: which guarantees survive the change? *)

(** {1 Guarantee survival} *)

type survival = Derive.survival =
  | Kept  (** proved under both epochs *)
  | Upgraded  (** unprovable before, proved after *)
  | Lost of string  (** proved before, unprovable after — the reason *)
  | Never of string  (** unprovable under both epochs *)

type guarantee_survival = {
  gs_name : string;  (** {!Guarantee.name} vocabulary, e.g. ["(2) leads"] *)
  gs_before : Derive.verdict;
  gs_after : Derive.verdict;
  gs_survival : survival;
}

type constraint_survival = {
  cs_source : string;  (** source item-family base name *)
  cs_target : string;  (** target item-family base name *)
  cs_guarantees : guarantee_survival list;  (** the four §3.3.1 forms *)
}

(** One completed cutover. *)
type transition = {
  tr_from : int;
  tr_to : int;
  tr_at : float;  (** simulation time of the cutover *)
  tr_strategy : string;  (** incoming strategy's name *)
  tr_survivals : constraint_survival list;
}

(** One automatic rollback: a cutover that regressed a [required] pair,
    undone by re-proposing the outgoing program under a fresh epoch. *)
type rollback = {
  rb_at : float;  (** simulation time (= the bad cutover's time) *)
  rb_from : int;  (** the regressing epoch, rolled back *)
  rb_to : int;  (** the epoch whose program was restored *)
  rb_via : int;  (** fresh epoch number carrying the restored program *)
  rb_strategy : string;  (** name of the rejected strategy *)
  rb_lost : (string * string * string) list;
      (** (source, target, guarantee name) triples classified [Lost] *)
}

val compare_programs :
  interfaces_before:Cm_rule.Rule.t list ->
  interfaces_after:Cm_rule.Rule.t list ->
  strategy_before:Cm_rule.Rule.t list ->
  strategy_after:Cm_rule.Rule.t list ->
  constraints:(string * string) list ->
  constraint_survival list
(** Static comparison — feed both epochs' programs to
    {!Derive.copy_guarantees} for each [(source, target)] base-name pair
    and classify every guarantee.  Pure; used by [cmtool evolve
    --dry-run] without building a system. *)

val kept_names : transition -> string list
(** Names of guarantees proved under {e both} epochs of the transition —
    the set the chaos harness holds the run to across a cutover. *)

val survivals_to_text : constraint_survival list -> string
(** Deterministic human-readable rendering (the pinned golden format). *)

val survivals_to_json : constraint_survival list -> string
(** Deterministic JSON rendering; reasons are escaped. *)

(** {1 Runtime manager} *)

type t

val create : ?required:(string * string) list -> System.t -> t
(** Manage epochs for a built system whose copy constraints are already
    declared ({!System.declare_copies}): each cutover re-proves every
    declared copy, from the running program to the incoming one.

    [required] (the CM-RID [required] attribute, a subset of the
    declared copies — checked) marks pairs under self-healing: a cutover
    whose survival report classifies any of their guarantees as {!Lost}
    is rolled back automatically — the outgoing program is re-proposed
    under a fresh epoch and cut over in the same simulation instant, the
    rollback is journaled write-ahead ({!Journal.record.Epoch_rollback})
    at every durable site, and the episode is recorded in {!rollbacks}
    (and as an [evolution_rollbacks] counter).  [Never] does not
    trigger: the prior epoch is no better a refuge for a guarantee that
    was unprovable all along.
    @raise Invalid_argument if [required] names an undeclared copy. *)

val propose : t -> Strategy.t -> (int, string) result
(** Stage [strategy] as the next epoch at every shell (journaled
    write-ahead).  At most one outstanding proposal; returns the
    assigned epoch number.  A program with a repeated rule id, or one
    that is not {!System.placeable}, is refused before any shell
    stages it. *)

val cutover : t -> (transition, string) result
(** Hand the proposed epoch to {!System.cutover} (dispatch switched at
    every shell, auxiliary initialization, periodic timers, running
    strategy, re-derived copies), and move the old epoch to draining.
    Records each declared copy's guarantee survival on the returned
    transition (and in Obs: [evolution_epoch] gauge,
    [evolution_guarantee_survival] counters, [evolution_guarantee_held]
    gauges).

    If the survival report loses a guarantee of a [required] pair the
    cutover is rolled back before returning (see {!create}); the
    returned transition is still the {e regressing} one — inspect
    {!rollbacks} / {!current_epoch} for the restored state. *)

val retire : t -> epoch:int -> (unit, string) result
(** End the drain of a draining epoch: from now on its envelopes are
    rejected and counted at the shells. *)

val evolve : ?quiesce:bool -> t -> Strategy.t -> (transition, string) result
(** [propose] + [cutover] in one step; when [quiesce] (default [true]),
    also retires every draining epoch once the reliable transport is
    quiescent (no unacknowledged envelopes), checking every simulated
    second — without a reliable layer, at the first check. *)

val current_epoch : t -> int
val draining : t -> int list
(** Epochs cut over but not yet retired, ascending. *)

val transitions : t -> transition list
(** All completed cutovers, oldest first — rollbacks' restoring
    cutovers included. *)

val rollbacks : t -> rollback list
(** All automatic rollbacks, oldest first. *)

val retirements : t -> int
(** Epochs retired so far: the value of the [evolution_retirements]
    counter this evolver bumps on the system's registry. *)

val stale_rejections : t -> int
(** Total stale-epoch envelope rejections across all shells. *)
