(** CM-Shell: the per-site rule engine of the constraint manager.

    Each shell (paper Figure 1, §4.1):

    - receives events from its CM-Translators and from its own periodic
      timers, records them in the global trace, and matches them against
      the strategy rules whose LHS site it handles;
    - on a match, evaluates the LHS condition against {e local} data and
      forwards the binding environment to the shell of the rule's RHS
      site as a {!Msg.Fire} envelope (rule distribution by LHS site);
    - on receiving an envelope, evaluates each RHS step's guard against
      local data and produces the step's event: requests (WR/RR/DR) go
      to the owning translator, [W] on CM-local items updates the
      private store, and any other name is recorded locally and fed back
      into matching, which is how multi-rule strategies chain;
    - propagates failure notices between sites (§5).

    A shell may handle several sites: a database without a shell of its
    own is served by another site's shell (Figure 1, site 3) by
    attaching its translator here and routing its sites to this shell.

    No global data, no global transactions: every condition is evaluated
    against data co-located with the evaluating shell (§7.2). *)

type t

type ctx = {
  ctx_sim : Cm_sim.Sim.t;
  ctx_net : Msg.t Cm_net.Net.t;
  ctx_reliable : Reliable.t option;
  ctx_trace : Cm_rule.Trace.t;
  ctx_locator : Cm_rule.Item.locator;
  ctx_obs : Obs.t;
  ctx_journals : Journal.registry option;
}
(** The per-system context every shell shares: simulation clock,
    network, optional reliable-delivery layer, global trace, item
    locator, observability registry, and (when the system is configured
    durable) the per-site journal registry.  {!System.create} builds it
    once from its {!System.Config.t}. *)

val create : ctx -> site:string -> t
(** Registers the shell's network handler at [site].  When
    [ctx.ctx_reliable] is given, all shell traffic (rule firings,
    failure and reset notices) goes through that reliable-delivery layer
    instead of the raw network, and the layer's failure detector feeds
    the shell's failure listeners via {!Msg.Suspect_down} /
    {!Msg.Reset_notice}. *)

val site : t -> string
val sim : t -> Cm_sim.Sim.t
val trace : t -> Cm_rule.Trace.t

val attach_translator : t -> Cmi.t -> unit
(** The translator's sites become handled by this shell. *)

val emitter_for : t -> site:string -> Cmi.emit
(** The emit callback handed to a translator at [site]: records the event
    there and runs local rule matching.  Also used by workload drivers to
    record ground-truth spontaneous events on sources that cannot observe
    their own changes. *)

val set_route : t -> (string -> string) -> unit
(** Map RHS sites to the shell site responsible for them (identity by
    default).  Needed only when shells handle foreign sites. *)

val install_strategy : t -> Cm_rule.Rule.t list -> unit
(** Install strategy rules.  The shell matches those whose LHS site it
    handles and executes the RHS of any rule it receives a Fire for.
    Interface rules are {e not} installed here — they describe translator
    behaviour, not shell behaviour. *)

val register_periodic : t -> ?site:string -> period:float -> unit -> unit
(** Start a [P(period)] event source at [site] (default: the shell's own
    site).  Duplicate (site, period) registrations are ignored. *)

val read_aux : t -> Cm_rule.Item.t -> Cm_rule.Value.t option
(** Application access to CM auxiliary data (§7.1): consistent because
    the store is under the shell's control. *)

val write_aux : t -> Cm_rule.Item.t -> Cm_rule.Value.t -> unit
(** Host-language write to the private store; recorded as a [W] event. *)

val local_state : t -> Cm_rule.Expr.state
(** The local-data oracle: translator current values for owned items,
    private store otherwise. *)

val on_custom : t -> string -> (Cm_rule.Event.t -> unit) -> unit
(** Host-language hook on a (usually custom) event name occurring at this
    shell — the paper's "implemented using the host language of the CM"
    escape hatch for set-oriented strategies such as the referential
    integrity sweep (§6.2). *)

val on_failure_notice : t -> (origin:string -> Msg.failure_kind -> unit) -> unit
(** Runs for locally detected failures and for notices from other sites. *)

val on_reset_notice : t -> (origin:string -> unit) -> unit

val report_failure : t -> Msg.failure_kind -> unit
(** Called by translators on detecting a RIS failure; notifies local
    listeners and broadcasts to peer sites. *)

val broadcast_reset : t -> unit

val set_peer_sites : t -> string list -> unit
(** Where failure/reset notices are broadcast. *)

(** {2 Introspection for benchmarks} *)

val fires_sent : t -> int
val fires_executed : t -> int
val events_seen : t -> int
(** Events this shell recorded: the value of its [shell_events{site}]
    counter, which counts on every registry. *)

(** {2 Rule epochs}

    The site's installed rule program is versioned (ISSUE 6): epoch 0 is
    the base program from configuration time; {!Evolution} stages later
    ones.  The lifecycle per epoch is proposed → active → draining →
    retired.  Outbound {!Msg.Fire} envelopes carry the epoch they were
    produced under; an inbound envelope executes under its origin
    epoch's program while that epoch is active or draining, and is
    rejected and counted once it is retired — never re-interpreted under
    a newer program, never silently dropped.  Transitions are journaled
    write-ahead so {!Recovery} replays a crashed site back into the
    epoch it had reached. *)

val rule_epoch : t -> int
(** The active epoch — what outbound firings are tagged with. *)

val epoch_phase : t -> epoch:int -> Journal.epoch_phase option

val stale_epoch_rejections : t -> int
(** Inbound firings rejected because their origin epoch was retired or
    unknown. *)

val propose_epoch : t -> epoch:int -> Cm_rule.Rule.t list -> unit
(** Stage a new program under a fresh epoch number (> the active one).
    The program (with all its rules) is journaled before the volatile
    epoch table changes.  Raises [Invalid_argument] on a reused number
    or duplicate rule ids. *)

val cutover_epoch : t -> epoch:int -> unit
(** Make a proposed epoch the active program: new events dispatch under
    it from now on, the previously active epoch starts draining.  The
    dispatch index is updated incrementally — rules the new program
    keeps verbatim retain their entries; only the program delta is
    removed/added. *)

val retire_epoch : t -> epoch:int -> unit
(** End a draining epoch: firings tagged with it are rejected and
    counted from now on.  Only a draining epoch can retire. *)

(** {2 Crash-recovery hooks}

    Driven by {!Recovery}; not meant for application use.  When the
    shell has a journal, every event it records, every firing decision,
    and every store write is journaled (write-ahead), and the failure
    detector's {!Msg.Suspect_down} verdicts are reported as {e metric}
    instead of logical failures — a journaled site's updates arrive
    late, not never (§5). *)

val journal : t -> Journal.t option

val recover :
  t ->
  store:(Cm_rule.Item.t * Cm_rule.Value.t) list ->
  epochs:(int * Journal.epoch_phase * Cm_rule.Rule.t list) list ->
  unit
(** Restore the shell from a checkpoint's content ({!Recovery} derives
    it from the journal).  First the crash's loss is modelled: the
    private store is wiped and rule epochs beyond the base program are
    dropped (the base program is configuration and survives).  Then
    [store] is written back without emitting or journaling events, and
    [epochs] — a checkpoint's [rule_epochs], ascending — is replayed
    without journaling: every proposal, then a cutover to every epoch
    past its proposed phase, then every retirement.  The site ends in
    the epoch it had reached, with the dispatch index its live cutovers
    built.  Counters and trace survive: they are measurement, not
    state. *)
