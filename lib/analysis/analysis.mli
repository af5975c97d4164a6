(** Static analysis of CM-RID configurations and rule programs.

    The paper's toolkit "checks the specifications for consistency"
    before generating a Constraint Manager (§4.1); this module is that
    checker, grown into a diagnostics engine.  It never executes a
    system: it parses a configuration (and optional rule files), builds
    the same interface statements the CM-Translators would report, and
    runs six static pass families over the result:

    - {b resolution} (R…): every item a rule mentions is declared, with
      the declared arity; rule parameters are bound; right-hand sides
      stay on one site; [location] lines name sites that exist;
    - {b capability} (CAP…): rules only request operations the declared
      interfaces offer (§3.1.1) — no [WR] without a write interface, no
      [N]-subscription without a notify channel, no [DR] without delete,
      no reliance on spontaneous events from a [no_spontaneous] source;
    - {b conflicts} (CON…): write/write races between rules detecting at
      different sites, trigger/write hazards between rules fired by the
      same event, and rule-firing cycles — undamped cycles are the
      non-termination hazard of Appendix A;
    - {b guarantee feasibility} (GRT…): every [constraint copy] line is
      run through the {!Cm_core.Derive} prover; a constraint for which
      {e no} §3.3.1 guarantee is provable is flagged — the configuration
      promises nothing;
    - {b hygiene} (HYG…): unreachable rules, duplicate labels, items
      declared but never used;
    - {b dependencies} (DEP…): the [dependency] TGD/EGD constraints are
      run through {!Cm_chase.Chase} — DEP001 (error) a ⁎-cycle in the
      position graph defeats weak acyclicity, so chase termination is
      unproven; DEP002 (warning) an EGD/TGD interaction cycle makes
      restricted-chase termination firing-order-dependent; DEP003
      (error) a repair writes a base whose declared §3.1.1 interface
      lacks write capability; DEP004 (warning) no body base of a
      dependency is declared, so it can never have an active trigger;
      DEP005 (error) malformed surface text or an atom whose arity
      breaks the value-last convention (declared parameters + 1).

    Findings are plain data; {!to_text} and {!to_json} render them, and
    {!exit_code} maps them to a CI-friendly process status. *)

type severity = Error | Warning | Info

type finding = {
  code : string;  (** stable machine code, e.g. ["CAP001"] *)
  severity : severity;
  file : string;  (** the file the finding points into *)
  line : int option;  (** 1-based; [None] for file-level findings *)
  site : string option;  (** the site involved, when one is *)
  message : string;
}

val rule_refs : Cm_rule.Rule.t -> (string * int) list
(** Every item (base, parameter count) the rule names, in its templates
    or its conditions, sorted and without duplicates. *)

val check_config :
  ?rule_files:(string * string) list -> file:string -> string -> finding list
(** [check_config ~rule_files ~file text] analyzes the CM-RID source
    [text] (named [file] in findings) together with additional rule
    programs given as [(filename, contents)] pairs.  Interface
    statements in rule files (recognized by {!Cm_core.Interface.classify})
    extend the interfaces synthesized from the item declarations;
    everything else is strategy.  Exact duplicate rules (same label,
    same body) across the configuration and rule files are merged.
    Returns findings sorted by file, line, code, site and message — the
    output order. *)

val check_rules :
  ?file:string ->
  interfaces:Cm_rule.Rule.t list ->
  strategy:Cm_rule.Rule.t list ->
  locator:Cm_rule.Item.locator ->
  unit ->
  finding list
(** Rule-level subset of {!check_config} for already-built systems
    (the preflight gate of a proposed epoch in [cmtool evolve], and the
    check of the built-in workloads' rules): well-formedness, capability
    checks against [interfaces], and conflict/cycle analysis.  No
    declaration-dependent passes run. *)

val summary : finding list -> int * int * int
(** (errors, warnings, infos). *)

val exit_code : ?deny_warnings:bool -> finding list -> int
(** 0 when clean; 1 if any [Error] (or any [Warning] when
    [deny_warnings]).  [Info] findings never fail a run. *)

val finding_to_string : finding -> string
(** [FILE:LINE: severity[CODE] (site S): message]. *)

val to_text : finding list -> string
(** One {!finding_to_string} line per finding plus a trailing summary
    line; ["no findings"] when the list is empty. *)

val to_json : checked:string -> finding list -> string
(** Byte-deterministic JSON document:
    [{"checked":…,"findings":[…],"errors":N,"warnings":N,"infos":N}].
    Findings must already be sorted (both entry points sort). *)
