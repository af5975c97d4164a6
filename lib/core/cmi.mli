(** The CM-Interface: what every CM-Translator presents to its CM-Shell,
    and the one implementation of the translator side of it.

    The CMI factors the peculiarities of each Raw Information Source away
    from the shells (paper §4.1): whatever the RIS — SQL server, flat
    files, a whois daemon — the shell sees the same record of operations.
    A translator supplies only its source's native operations (a read,
    per-item write and delete closures, its change and periodic feeds);
    {!make} wraps them in the common protocol: request receipts, RR/WR/DR
    answered after the interface latency, Down reported as a logical
    failure, a response later than δ as a metric failure, [Ws] ground
    truth, filtered [N] notifications and ["<site>/<base>/<kind>"]
    provenance. *)

type emit = Cm_rule.Event.desc -> kind:Cm_rule.Event.kind -> Cm_rule.Event.t
(** Record an event occurrence at the translator's site and run it
    through the local shell's rule matching, returning the recorded
    event (translators thread its id into the provenance of response
    events).  Supplied by the shell at attachment time. *)

type failure_report = Msg.failure_kind -> unit

type t = {
  site : string;
  bases : string list;
      (** the item base names this translator is responsible for, sorted
          — the shell indexes these at attachment time so per-read owner
          lookup is a hash probe, not a translator-list scan *)
  interface_rules : Cm_rule.Rule.t list;
      (** the interface statements this source honours, sorted by id,
          queried by the toolkit during initialization (§4.1) *)
  current_value : Cm_rule.Item.t -> Cm_rule.Value.t option;
      (** synchronous local peek for condition evaluation at this site
          (conditions may only reference local data, §3.2); [None] while
          the source is Down *)
  request : Cm_rule.Event.desc -> kind:Cm_rule.Event.kind -> unit;
      (** submit a WR / RR / DR event: the translator records the
          request's receipt and performs the native operation, emitting
          the W / R / DEL response within the interface's bound *)
}

(** {1 The translator side} *)

type timing = { read : float; write : float; notify : float; delete : float }
(** One figure per operation: interface latencies, or their δ bounds. *)

val uniform : float -> timing

val default_deltas : timing -> timing
(** The δ a translator reports when none is configured: 5× each
    latency. *)

type port = {
  sim : Cm_sim.Sim.t;
  site : string;
  emit : emit;
  report : failure_report;
  health : Cm_sources.Health.t;  (** the source's; Down, Degraded, Silent_drop *)
  latency : timing;
  delta : timing;
}
(** Where a translator meets its shell and its source. *)

val port :
  sim:Cm_sim.Sim.t ->
  site:string ->
  emit:emit ->
  report:failure_report ->
  health:Cm_sources.Health.t ->
  latency:timing ->
  ?delta:timing ->
  unit ->
  port
(** [delta] defaults to {!default_deltas} [latency]. *)

val rule_id : site:string -> string -> string -> string
(** [rule_id ~site base kind] is ["<site>/<base>/<kind>"]: the id of an
    interface statement and the provenance of the events it answers
    with. *)

val index : what:string -> ('b -> string) -> 'b list -> (string, 'b) Hashtbl.t
(** Item bindings by base.
    @raise Invalid_argument ["<what>: duplicate binding for <base>"]. *)

type outcome = (unit, Msg.failure_kind) result
(** What a native write or delete did: [Ok] is answered with [W] / [DEL],
    [Error k] is reported as a failure of kind [k]. *)

val make :
  port ->
  bases:string list ->
  interfaces:Cm_rule.Rule.t list ->
  read:(Cm_rule.Item.t -> Cm_rule.Value.t option) ->
  ?write:(Cm_rule.Item.t -> (Cm_rule.Value.t -> outcome) option) ->
  ?delete:(Cm_rule.Item.t -> (unit -> outcome) option) ->
  ?periodic:(Cm_rule.Item.t * float) list ->
  unit ->
  t
(** The CM-Interface of a translator.  [read] is the source's native
    read; [write]/[delete] return the item's native operation, [None]
    when the source offers no such interface for it, and that operation
    runs when the response comes due.  Every request checks Down first
    and reports a logical failure.  A [W], [DEL] or [N] that comes due
    while the source is Down is not performed and reports a logical
    failure; an [R] answers with the value read on arrival.  Each
    [(item, period)] of [periodic] pushes the item's value as an [N]
    every period, whether or not it changed (§3.1.1). *)

val changed :
  port ->
  notify:bool ->
  ?filter:(old_value:Cm_rule.Value.t -> new_value:Cm_rule.Value.t -> bool) ->
  Cm_rule.Item.t ->
  old_value:Cm_rule.Value.t ->
  new_value:Cm_rule.Value.t ->
  unit
(** The change feed: a spontaneous change of an item at the source.
    Records its [Ws] ground truth and, when [notify] holds and [filter]
    (default: every change) passes, sends an [N] after the notify
    latency — unless the source is silently dropping notifications. *)
