(** Valid-execution checker (Appendix A.2).

    Given the rules in force — interface statements plus strategy rules —
    and a recorded trace, this module decides whether the trace is a
    {e valid execution}: every generated event has correct provenance and
    arrived within its rule's time bound (properties 4–5), every rule
    that should have fired did (property 6, including ℱ prohibitions),
    and related rules were processed in order (property 7).  Properties
    1–3 (time ordering, state consistency) hold by construction of
    {!Trace} and {!Timeline} and are re-asserted cheaply.

    The distinction between {e metric} and {e logical} violations mirrors
    the paper's failure taxonomy (§5): a bound violation is a metric
    failure of some interface or strategy; anything else breaks the
    interface statements outright. *)

type violation =
  | Prohibited of { event : Event.t; rule : string }
      (** an event matched the LHS of an [→ ℱ] rule *)
  | Bad_provenance of { event : Event.t; reason : string }
      (** the event's rule/trigger annotations are inconsistent (A.2 p5) *)
  | Bound_exceeded of {
      event : Event.t;
      rule : string;
      trigger : int;
      bound : float;
      actual : float;
    }  (** the event occurred, but later than δ after its trigger *)
  | Missing_response of {
      trigger : Event.t;
      rule : string;
      step : int;
      deadline : float;
    }  (** a rule should have produced a step-[step] event and did not *)
  | Out_of_order of { first : Event.t; second : Event.t; rules : string * string }
      (** in-order processing (A.2 p7) violated between related rules *)

val is_metric : violation -> bool
(** [Bound_exceeded] and late [Missing_response] are metric (the action
    may still be coming); the rest are logical. *)

val violation_to_string : violation -> string

val check :
  ?initial:(Item.t * Value.t) list ->
  ?horizon:float ->
  rules:Rule.t list ->
  locator:Item.locator ->
  Trace.t ->
  violation list
(** Check the trace against the rules.  Property-6 obligations whose
    deadline falls after [horizon] (default: the trace's last event time)
    are not reported — the response may legitimately still be pending.
    Conditions are re-evaluated against the reconstructed state, so the
    checker is independent of the engine that produced the trace. *)
