(** Simulated network between CM-Shell sites.

    The paper assumes a reliable network with in-order message delivery
    and in-order processing at each site (§5 footnote 4, Appendix A.2
    property 7) — guarantee proofs depend on it.  By default this module
    provides exactly that: per-ordered-pair FIFO channels over the
    simulation clock, with configurable latency.  Jitter is sampled per
    message but delivery order is still enforced (a delayed message holds
    back later ones, as on a TCP stream).

    The assumption can also be deliberately broken.  Each directed link
    carries a {!faults} record (message loss and duplication
    probabilities, both 0 by default) and can be partitioned for a time
    window; a whole site's endpoint can crash and later restart.  All
    fault draws come from the network's own deterministic PRNG stream, so
    a faulty run is exactly reproducible from its seed, and a zero-fault
    network draws nothing extra — seeded executions are byte-identical to
    the pre-fault-model behaviour.  {!Cm_core.Reliable} re-earns the
    paper's reliability assumption on top of a faulty network.

    Message payloads are a type parameter of the endpoint handlers; the
    CM layer sends rule-firing envelopes.

    {b Instruments.}  Each directed link owns its {!Cm_obs.Obs} handles,
    labelled [{from, to}] and made on the network's registry when the
    link is first used: [net_sent] (every send attempt),
    [net_dropped{reason}] (one counter per {!drop_reason}),
    [net_duplicated], and the [net_latency] series (effective latency of
    each copy accepted onto the link, FIFO hold-back included).  They
    are the network's only tally: {!messages_sent}, {!drops_by} and the
    other totals are folds of the link counters, and the per-pair
    queries read one link's, so the statistics here and the exported
    snapshot agree by construction.  On {!Cm_obs.Obs.noop} the counters
    still count (privately) and the series records nothing.  A send to
    an unroutable site gets its link like any other send, so it counts
    in {!messages_between} and {!dropped_between}.  Per-link statistics
    feed the message-cost experiments (E10, E13). *)

type 'msg t

type latency = {
  base : float;  (** seconds added to every message *)
  jitter : float;  (** uniform extra delay in [\[0, jitter)] *)
}

val default_latency : latency
(** 0.05 s base, 0.01 s jitter — a 1996 campus network. *)

type faults = {
  drop_prob : float;  (** probability a message is lost in transit *)
  dup_prob : float;  (** probability a message is delivered twice *)
}

val no_faults : faults
(** [{ drop_prob = 0.0; dup_prob = 0.0 }] — the paper's reliable network. *)

type draws =
  | Stream  (** draws come from one net-wide PRNG stream, in global send
                order — the classic sequential behaviour *)
  | Keyed of int
      (** draws come from one {!Cm_util.Prng.of_key} stream per directed
          link, named by [(seed, from, to)] and advanced in link-send
          order.  A directed link lives entirely at its source site, so
          the draw a message sees is a pure function of the link's own
          traffic — independent of how sites are partitioned across
          shards.  The sharded executor runs every shard's network in
          this mode (with the one global seed) so fault and jitter
          decisions agree across shard counts. *)

type drop_reason =
  | Unroutable  (** destination site never registered *)
  | Endpoint_down  (** source or destination site crashed *)
  | Partitioned  (** directed link inside a partition window *)
  | Faulty  (** random loss from the link's [drop_prob] *)

val drop_reason_to_string : drop_reason -> string
(** Stable lowercase name, used as a metric label. *)

val create :
  sim:Cm_sim.Sim.t ->
  ?latency:latency ->
  ?fifo:bool ->
  ?faults:faults ->
  ?draws:draws ->
  ?obs:Cm_obs.Obs.t ->
  unit ->
  'msg t
(** [fifo] (default [true]) enforces per-link in-order delivery.
    Setting it to [false] lets jitter reorder messages — deliberately
    violating the paper's in-order assumption (Appendix A.2, property 7)
    for the ablation experiment that shows why the assumption matters.
    [faults] (default {!no_faults}) is the initial default fault model
    for every link.  [draws] (default {!draws.Stream}) selects where
    fault/jitter draws come from; a [Stream] network consumes exactly
    the PRNG stream it always did, draw for draw.  [obs] (default
    {!Cm_obs.Obs.noop}) is the registry the link instruments are made
    on. *)

val set_latency : 'msg t -> from_site:string -> to_site:string -> latency -> unit
(** Override the default for one directed link. *)

val set_faults : 'msg t -> from_site:string -> to_site:string -> faults -> unit
(** Override the fault model for one directed link.  Local links
    (site to itself) never drop or duplicate regardless of settings. *)

val set_default_faults : 'msg t -> faults -> unit
(** Fault model for every link not individually overridden, including
    links created later. *)

val partition : 'msg t -> from_site:string -> to_site:string -> until:float -> unit
(** Take the directed link down until absolute simulation time [until]:
    messages sent while the window is open are dropped ([Partitioned]).
    Messages already in flight still arrive. *)

val partition_pair : 'msg t -> site_a:string -> site_b:string -> until:float -> unit
(** Symmetric partition of both directions between two sites. *)

val crash_site : 'msg t -> site:string -> unit
(** Take a site's endpoint down: messages from or to it are dropped
    ([Endpoint_down]), including in-flight messages that would arrive
    while it is down.  The handler registration survives for {!restart_site}. *)

val restart_site : 'msg t -> site:string -> unit

val site_is_down : 'msg t -> site:string -> bool

val register : 'msg t -> site:string -> ('msg -> unit) -> unit
(** Install the receive handler for a site.  @raise Invalid_argument if
    the site is already registered. *)

val send : 'msg t -> from_site:string -> to_site:string -> 'msg -> unit
(** Deliver to the destination handler after the link latency, FIFO per
    directed link, subject to the link's fault model.  Sending to the
    local site delivers with zero delay but still asynchronously (on the
    next simulation step).  Sending to a site that was never registered
    is recorded as an [Unroutable] drop — with crash/restart in play a
    missing destination is a runtime condition, not a configuration
    error, and must not abort the event loop.  A destination claimed by
    {!set_remote} instead runs the full send-side pipeline here
    (counters, down/partition checks, fault draws, FIFO hold-back) and
    leaves through the forward hook with its final delivery time. *)

val set_remote :
  'msg t ->
  remote_site:(string -> bool) ->
  forward:(from_site:string -> to_site:string -> at:float -> 'msg -> unit) ->
  unit
(** Cross-shard routing, installed by [Cm_shard]: sites with no local
    handler for which [remote_site] holds are forwarded rather than
    dropped as [Unroutable].  [forward] receives the absolute delivery
    time computed by this (source) network and must hand the message to
    the owning shard, which completes delivery with {!inject}. *)

val inject :
  'msg t -> from_site:string -> to_site:string -> at:float -> 'msg -> unit
(** Destination half of a cross-shard delivery: schedule the message for
    its precomputed delivery time on this network's wheel.  Only the
    delivery-time checks run here (a crashed destination records an
    in-flight [Endpoint_down] drop); the send-side pipeline already ran
    on the source shard. *)

val on_send : 'msg t -> (from_site:string -> to_site:string -> unit) -> unit
(** The network's one hook: invoked on every send attempt, after
    [net_sent] is bumped and before routing, so a hook that crashes an
    endpoint affects the very send that triggered it.  Registration is
    O(1) and hooks run in registration order. *)

val link_base_latency : 'msg t -> from_site:string -> to_site:string -> float
(** The configured base latency of the directed link, jitter excluded —
    the network default for links never overridden with {!set_latency},
    [0.0] from a site to itself.  A pure cost query (used by the read
    router's cheapest-replica comparison); it does not materialize the
    link. *)

val reachable : 'msg t -> from_site:string -> to_site:string -> bool
(** Both endpoints up and the directed link outside any open partition
    window at the current simulation time.  This is the router's
    availability test: probabilistic loss does not count — a lossy link
    is reachable, a partitioned or crashed one is not. *)

val messages_sent : 'msg t -> int
(** Send attempts, including ones that were then dropped: the sum of
    every link's [net_sent]. *)

val messages_between : 'msg t -> from_site:string -> to_site:string -> int
(** One link's [net_sent]; 0 for a link never used. *)

val messages_dropped : 'msg t -> int
(** Every link's [net_dropped], all reasons. *)

val drops_by : 'msg t -> drop_reason -> int
(** Every link's [net_dropped] for one reason. *)

val endpoint_down_at_send : 'msg t -> int
(** [Endpoint_down] drops where an endpoint was already down when the
    message was handed to the network. *)

val endpoint_down_in_flight : 'msg t -> int
(** [Endpoint_down] drops where the destination crashed while the
    message was on the wire — it was accepted onto the link and lost at
    delivery time.  [endpoint_down_at_send + endpoint_down_in_flight =
    drops_by Endpoint_down]; chaos debugging needs the two apart because
    only the in-flight case represents state the sender believed was
    safely en route. *)

val dropped_between : 'msg t -> from_site:string -> to_site:string -> int
(** One link's [net_dropped], all reasons. *)

val messages_duplicated : 'msg t -> int
(** Every link's [net_duplicated]. *)
