(** Whole-system assembly: the toolkit's initialization protocol.

    Mirrors §4.1: create the simulated world, add one CM-Shell per
    participating site (or have a shell serve several sites), register
    each source's CM-Translator, then install a strategy — the system
    distributes the rules by LHS site, initializes CM auxiliary data,
    registers the periodic timers the rules mention, and wires failure
    propagation.  Declared guarantees are tracked: metric failures at an
    involved site invalidate the metric guarantees, logical failures
    invalidate all of them, and a reset restores them (§5).

    After a run, {!timeline} and {!check_validity} hand the execution to
    the guarantee checker and the Appendix-A validity checker. *)

type t

(** All the knobs of a system run in one value.  [Config.default] is a
    clean, reliable, FIFO network at seed 42; derive variations with the
    with-style setters:

    {[
      System.Config.(seeded 7 |> with_faults lossy
                             |> with_reliable Reliable.default_config
                             |> with_obs (Obs.create ()))
    ]} *)
module Config : sig
  type t = {
    seed : int;  (** simulation PRNG seed *)
    latency : Cm_net.Net.latency option;  (** [None] = network default *)
    fifo : bool;
        (** [false] disables in-order delivery — only for the ablation
            experiment showing why Appendix A.2's property 7 matters *)
    faults : Cm_net.Net.faults option;
        (** default loss/duplication model for every network link *)
    reliable : Reliable.config option;
        (** insert a {!Reliable} delivery layer between the network and
            every shell, restoring exactly-once in-order delivery on top
            of the faults and (with heartbeats enabled) turning dead
            peers into §5 failure notices *)
    obs : Obs.t option;
        (** observability registry; [None] = {!Obs.noop}, zero overhead *)
    durability : Journal.durability;
        (** what the system remembers across crashes
            ({!Journal.durability.None} by default — byte-identical to
            the pre-recovery behaviour).  [Journal] and
            [Journal_with_checkpoint] give every site a write-ahead
            {!Journal} and a {!Recovery} manager, and make the reliable
            layer epoch-aware, so {!restart_site} replays, re-queues,
            and reports the crash as a metric failure (§5). *)
    monitor : bool;
        (** stream every declared copy constraint through
            {!Monitor} ([false] by default): per parameter vector, the
            §3.3.1 guarantee forms are checked incrementally as events
            are recorded, and a live per-copy staleness verdict feeds
            the read router's quarantine machinery.  Observation only —
            the trace, the PRNG and the dispatch path are untouched, so
            a monitored run is byte-identical to an unmonitored one.
            The monitor re-evaluates staleness at {!Monitor.create}'s
            default tick of 1.0 s. *)
  }

  val default : t
  val seeded : int -> t
  (** [seeded n] is [default] at seed [n] — the most common override. *)

  val with_latency : Cm_net.Net.latency -> t -> t
  val with_fifo : bool -> t -> t
  val with_faults : Cm_net.Net.faults -> t -> t
  val with_reliable : Reliable.config -> t -> t
  val with_obs : Obs.t -> t -> t
  val with_durability : Journal.durability -> t -> t
  val with_monitor : bool -> t -> t
end

val create : ?config:Config.t -> ?shard_slot:int * int -> Cm_rule.Item.locator -> t
(** Build the simulated world described by [config] (default
    {!Config.default}).  When [config.obs] is set, the network's link
    instruments, the reliable layer's counters, every shell's
    match/fire/guard instruments, and the system's guarantee
    bookkeeping all record into that registry (the network gets it
    through [Net.create ~obs]).

    [shard_slot = (k, n)] is for [Cm_shard.Fabric] only: the system is
    shard [k] of [n] — its sim seed is derived per shard, its network
    runs keyed per-link draws, its trace ids are strided
    ([k, k+n, …]), and strategy state for sites this shard does not
    hold is skipped rather than an error. *)

val sim : t -> Cm_sim.Sim.t
val net : t -> Msg.t Cm_net.Net.t

val reliable : t -> Reliable.t option
(** The reliable-delivery layer, when one was configured — source of
    retransmission/ack counters for the message-cost experiments. *)

val recovery : t -> Recovery.t option
(** The crash-recovery manager, when [config.durability] is not
    {!Journal.durability.None}. *)

val journals : t -> Journal.registry option

val journal : t -> site:string -> Journal.t option
(** The site's write-ahead journal under a durable configuration. *)

val crash_site : t -> site:string -> unit
(** Crash a site.  With a recovery manager this goes through
    {!Recovery.crash}; without one it is the raw
    {!Cm_net.Net.crash_site}. *)

val restart_site : t -> site:string -> unit
(** Restart a site.  With a recovery manager this runs the full §5
    protocol (replay, re-queue, epoch bump, metric failure notice);
    without one the endpoint silently comes back with whatever stale
    in-memory state it had.  Under durability the {!monitor}'s watchers
    downed by {!crash_site} then relearn from the {!trace}: every trace
    event was journaled write-ahead by its shell, so the trace holds
    the journaled history, structured and in feed order. *)

val obs : t -> Obs.t
(** The configured observability registry, or {!Obs.noop}. *)

val monitor : t -> Monitor.t option
(** The streaming guarantee monitor, when [config.monitor] is set.  It
    is attached to the trace at creation; {!declare_copies} registers
    every declared pair with it automatically. *)

val trace : t -> Cm_rule.Trace.t
val locator : t -> Cm_rule.Item.locator

val add_shell : t -> site:string -> Shell.t
(** One shell per site; @raise Invalid_argument on duplicates. *)

val shell : t -> site:string -> Shell.t
(** The shell responsible for [site] (its own or a routed one).
    @raise Not_found if no shell handles it. *)

val shells : t -> (string * Shell.t) list
(** Every shell by primary site, sorted — the deterministic iteration
    order used when a change must reach all sites (e.g. an epoch
    transition). *)

(** {1 The program}

    The system holds the one description of the running program that
    every guarantee derivation reads: the interface statements (those
    the translators report plus those declared with
    {!declare_interfaces}) and the running strategy ({!install} appends
    to it, a rule-epoch {!cutover} replaces it).  Each declared copy's
    {!Derive} report is a function of that program, re-derived whenever
    it changes. *)

val register_translator : t -> shell:Shell.t -> Cmi.t -> unit
(** Attach, route the translator's site to that shell, and add its
    interface statements to the program. *)

val declare_interfaces : t -> Cm_rule.Rule.t list -> unit
(** Add interface statements ({!Interface.classify}) no translator
    reports but an administrator knows — e.g.
    {!Interface.no_spontaneous_write} on a target nothing else
    writes. *)

val interface_rules : t -> Cm_rule.Rule.t list
(** Every interface statement, reported and declared, in the order they
    joined the program. *)

val install : t -> Strategy.t -> unit
(** Distribute the strategy's rules to all shells, write its auxiliary
    data, register [P(p)] timers for its polling rules, and append its
    rules to the running strategy. *)

val strategy_rules : t -> Cm_rule.Rule.t list
(** The running strategy. *)

val all_rules : t -> Cm_rule.Rule.t list

val cutover :
  t ->
  epoch:int ->
  Strategy.t ->
  (string * string * Derive.report * Derive.report) list
(** The system's half of a rule-epoch cutover, run by {!Evolution} once
    every shell has switched to [epoch]: write the incoming strategy's
    auxiliary items (an epoch never inherits another strategy's stale
    auxiliary state, e.g. a propagation cache), register its periodic
    timers, make its rules the running strategy, and re-derive every
    declared copy.  Returns [(source, target, before, after)] per
    declared copy, in declaration order. *)

type guarantee_handle

val declare_guarantee :
  t -> sites:string list -> Guarantee.t -> guarantee_handle
(** Track validity of a guarantee involving the given sites.

    Low-level registration.  For declared [constraint copy] directives
    prefer {!declare_copies} and {!copy_view}: they bundle the handle
    with the Derive report and the latest cutover. *)

val guarantee_valid : guarantee_handle -> bool
val guarantee_of : guarantee_handle -> Guarantee.t
val invalidations : guarantee_handle -> (string * Msg.failure_kind) list

(** {1 Declared copies} *)

(** The read-side record of one declared copy constraint, joining
    {!Derive.copy_guarantees} over the current program (static κ), the
    live {!guarantee_handle} (§5 validity) and the latest rule-epoch
    cutover.  The read router's catalog is built from it. *)
module Guarantee_view : sig
  type entry = {
    gv_source : string;  (** master item base *)
    gv_target : string;  (** copy item base *)
    gv_master_site : string;
    gv_site : string;  (** where the copy lives *)
    gv_report : Derive.report;  (** all four §3.3.1 verdicts *)
    gv_kappa : float option;  (** κ iff "(4) metric-follows" proved *)
    gv_valid : bool;  (** live §5 validity of the metric guarantee *)
    gv_invalidations : (string * Msg.failure_kind) list;
    gv_epoch_survival : (int * Derive.survival) option;
        (** the latest cutover's epoch and how guarantee (4) fared
            across it; [None] before any *)
  }
end

val declare_copies : t -> (string * string) list -> unit
(** Register [(source, target)] copy constraints (the parsed
    [constraint copy] directives): derive each report from the program,
    locate master and copy sites, and declare the live metric-guarantee
    handle over both.  Idempotent per pair; declaration order is
    preserved by {!guarantee_view}.  The handle and the {!monitor}'s
    watchers keep the κ derived at declaration. *)

val copy_view :
  t -> source:string -> target:string -> Guarantee_view.entry option

val guarantee_view : t -> Guarantee_view.entry list
(** Every declared copy, in declaration order, with live state. *)

val copy_qualifies :
  ?slo:float -> t -> source:string -> target:string -> (float, string) result
(** Whether a read with staleness budget [slo] may be served from this
    copy — the router's per-read probe.  [Ok κ] when κ is proved, the
    handle is valid, and κ ≤ [slo] {e inclusive}: a copy exactly at the
    bound qualifies, since Derive's κ (sampling period included for
    Sampled channels) and the SLO are both end-to-end seconds.  The
    [Error] strings are the router's skip-reason vocabulary, in
    precedence order: ["undeclared"]; ["epoch-lost"] when a cutover
    happened and guarantee (4) is now unprovable; ["unprovable"];
    ["invalidated"]; ["over-slo"]. *)

val run : t -> until:float -> unit

val timeline : ?initial:(Cm_rule.Item.t * Cm_rule.Value.t) list -> t -> Cm_rule.Timeline.t

val check_guarantee :
  ?initial:(Cm_rule.Item.t * Cm_rule.Value.t) list ->
  ?ignore_after:float ->
  t ->
  Guarantee.t ->
  Guarantee.report
(** Check against the recorded trace, up to the current simulation time. *)

val check_validity :
  ?initial:(Cm_rule.Item.t * Cm_rule.Value.t) list -> t -> Cm_rule.Validity.violation list
(** Appendix-A validity of the recorded trace against interface +
    strategy rules.  Pass [initial] when interface conditions read item
    values (read and periodic-notify interfaces) and items existed
    before the trace began. *)
