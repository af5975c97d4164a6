(** Static derivation of guarantees from interface and strategy
    specifications.

    The paper proves guarantees with proof rules presented in [CGMW94]
    ("we have also developed a set of proof rules that enable us to
    derive the validity of guarantees based on interface and strategy
    specifications"); this module is a conservative, executable
    counterpart for {e copy constraints}: it analyzes the chains of
    rules leading from spontaneous source updates to target writes and
    decides which of the §3.3.1 guarantees are provable, with a
    human-readable derivation or an explanation of what blocks it.

    The analysis is deliberately conservative — [Unprovable] means "these
    proof rules cannot establish it", not "it is false".  It recognizes:

    - {b observation channels}: plain notify (complete), conditional
      notify (incomplete — filtered updates unseen), periodic notify and
      read+polling (sampled — intermediate values unseen);
    - {b propagation chains}: strategy rules carrying the observed value
      unchanged from the observation event to a [WR] on the target,
      including the §3.2 cache pattern
      [(C ≠ b) ? WR(T, b), W(C, b)] (the guarded skip is sound because
      the cache mirrors exactly the values already forwarded);
    - {b interference}: any other rule writing the target, or the absence
      of a no-spontaneous-write interface on the target, blocks the
      follows-style guarantees — precisely the "details discovered during
      the process of verification" the paper reports;
    - {b time bounds}: κ for the metric guarantee is the sum of the
      interface and rule δ's along the chain (plus the sampling period
      for periodic/polling channels). *)

type verdict =
  | Proved of { kappa : float option; derivation : string list }
      (** [kappa] is set for the metric guarantee; [derivation] lists the
          proof steps (rules used, channel classification). *)
  | Unprovable of string  (** what blocks the derivation *)

type report = {
  follows : verdict;  (** guarantee (1) *)
  leads : verdict;  (** guarantee (2) *)
  strictly_follows : verdict;  (** guarantee (3) *)
  metric_follows : verdict;  (** guarantee (4) *)
}

val copy_guarantees :
  interfaces:Cm_rule.Rule.t list ->
  strategy:Cm_rule.Rule.t list ->
  source:Cm_rule.Expr.t ->
  target:Cm_rule.Expr.t ->
  report
(** Derive the four copy-constraint guarantees for
    [target = copy of source] from the given specifications.
    [source]/[target] are item patterns ({!Interface.plain} /
    {!Interface.family}). *)

val verdict_to_string : verdict -> string
val report_to_string : report -> string

val kappa : report -> float option
(** κ of guarantee (4) when it is proved. *)

val blocking_reason : report -> string option
(** When all four guarantees are unprovable, the follows verdict's
    reason — the GRT001 analysis condition. *)

(** {1 Survival across a program change} *)

(** How one guarantee fares when the specifications change, e.g. at a
    rule-epoch cutover. *)
type survival =
  | Kept  (** proved before and after *)
  | Upgraded  (** unprovable before, proved after *)
  | Lost of string  (** proved before, unprovable after — the reason *)
  | Never of string  (** unprovable before and after *)

val survival : verdict -> verdict -> survival
(** [survival before after]. *)

val survival_status : survival -> string
(** ["kept"], ["upgraded"], ["lost"] or ["never"] — reason elided. *)
