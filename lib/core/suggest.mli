(** Strategy suggestion (paper §4.1).

    During initialization the CM queries the translators for their
    interface specifications and "suggests strategies that are applicable
    to these interfaces, along with the associated guarantees".  This
    module is the catalogue half of that menu: which strategy shapes each
    interface kind admits.  The guarantees come from the proof rules:

    - a copy candidate offers exactly what {!Derive.copy_guarantees}
      proves over the interface statements plus the candidate's own
      rules, κ included, and keeps that report;
    - [monitor], [Leq] (Demarcation Protocol) and [Ref_int] candidates
      carry hand-stated guarantees, because {!Derive} has no rules for
      them.  The monitor's κ is the rule δ plus the larger of the two
      items' notification bounds, read from their statements.

    Generated rules use a 5 s δ; a read-only source is polled every
    60 s. *)

type candidate = {
  candidate_name : string;
  strategy : Strategy.t;
  guarantees : Guarantee.t list;
      (** for a copy candidate, {!Derive.guarantees} of [report] *)
  report : Derive.report option;  (** the derivation, for copy candidates *)
  notes : string;
}

val for_constraint :
  interfaces:Cm_rule.Rule.t list -> Constraint_def.t -> candidate list
(** Applicable candidates in catalogue order, given the interface
    statements as {!System.interface_rules} holds them.  A copy
    candidate Derive proves nothing for stays listed; its report says
    what blocks it.  Empty when the interfaces cannot support the
    constraint at all (e.g. a copy whose target is not writable and
    where a source is not even readable). *)

val describe : candidate -> string
(** One-paragraph rendering: name, rules, guarantees, the derivation's
    lines and blocking reasons, and notes. *)
