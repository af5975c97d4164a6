(** CM-Translator for relational Raw Information Sources (paper §4.2.1).

    Configured per data item (family) with SQL command templates, exactly
    as the paper's CM-RID prescribes: to write value [b] to
    [Salary2(n)], the template
    ["UPDATE employees SET salary = $b WHERE empid = $n"] is instantiated
    and sent to the SQL engine.  The translator:

    - answers WR/RR/DR requests through the {!Cmi} protocol with the
      compiled read, write and delete statements;
    - implements notify interfaces by declaring a trigger (an after-change
      observer) on the underlying table and feeding spontaneous changes
      to {!Cmi.changed} — changes performed by the translator itself are
      recognized and not treated as spontaneous;
    - tracks row existence for the referential-integrity scenario,
      emitting [INS]/[DEL] events;
    - maps a CHECK rejection of a CM write to a metric failure and any
      other SQL error to a logical one (§5). *)

type notify_spec = {
  table : string;
  column : string;
  key_column : string;
      (** the row field that becomes the item's parameter *)
  send : bool;
      (** [true]: a notify interface — [N] events are emitted.  [false]:
          observation only — spontaneous [Ws] ground truth is recorded
          (the simulation's omniscient view) but no notify interface is
          offered to the CM. *)
  filter : (old_value:Cm_rule.Value.t -> new_value:Cm_rule.Value.t -> bool) option;
      (** in-source condition (conditional notify); [None] = plain *)
  filter_expr : Cm_rule.Expr.t option;
      (** the same condition as a rule expression over [a]/[b], used in
          the reported interface statement *)
}

type existence_spec = { ex_base : string; ex_table : string; ex_key_column : string }
(** Row presence in [ex_table] is surfaced as existence of the item
    family [ex_base(key)] through [INS]/[DEL] events. *)

type item_binding = {
  base : string;
  params : string list;
  read_sql : string option;  (** single-value SELECT; [$param] syntax *)
  write_sql : string option;  (** [$b] is the written value *)
  delete_sql : string option;
  notify : notify_spec option;
  no_spontaneous : bool;
      (** promise [Ws → ℱ]: local applications never touch this item *)
  periodic : float option;
      (** periodic-notify interface (§3.1.1): every [p] seconds the
          source pushes the item's current value as an [N] event,
          regardless of changes.  Only for items without parameters — a
          parameterized family would need per-instance enumeration. *)
}

type latencies = Cmi.timing = { read : float; write : float; notify : float; delete : float }

val default_latencies : latencies
(** 0.2 s per operation, 1 s notification lag. *)

type deltas = latencies
(** Interface time bounds; default is 5× each latency. *)

type t

val create :
  sim:Cm_sim.Sim.t ->
  db:Cm_relational.Database.t ->
  site:string ->
  emit:Cmi.emit ->
  report:Cmi.failure_report ->
  ?latencies:latencies ->
  ?deltas:deltas ->
  ?existence:existence_spec list ->
  item_binding list ->
  t
(** Declares the needed triggers on [db] (observers) immediately.

    A [Down] source loses the notifications that come due while it is
    out and reports a {e logical} failure (see {!Cmi.make}).  §5's "remember messages that
    need to be sent out upon recovery" facility is no longer a
    translator-local queue: it is the write-ahead {!Journal} plus the
    {!Recovery} restart protocol, configured system-wide through
    {!System.Config.durability}. *)

val cmi : t -> Cmi.t
val health : t -> Cm_sources.Health.t
val interface_rules : t -> Cm_rule.Rule.t list
(** The generated interface statements, with stable ids
    ["<site>/<base>/<kind>"]. *)

val interfaces : site:string -> deltas:deltas -> item_binding -> Cm_rule.Rule.t list
(** One binding's interface statements, as a translator at [site] with
    these δ bounds reports them — computed without a database. *)

val exec_app :
  t -> ?params:(string * Cm_rule.Value.t) list -> string ->
  (Cm_relational.Database.result, Cm_relational.Database.error) result
(** Run a statement as a {e local application} (spontaneous from the
    CM's viewpoint): triggers fire, [Ws]/[INS]/[DEL] ground truth is
    recorded.  Workload drivers use this. *)
