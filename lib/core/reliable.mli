(** Reliable, in-order, exactly-once delivery over a faulty {!Cm_net.Net}.

    The paper's guarantee proofs assume the network cannot lose,
    duplicate, or reorder messages (§5 footnote 4, Appendix A.2 property
    7).  {!Cm_net.Net} can now violate all three; this layer sits between
    the network and the CM-Shells and re-earns the assumption
    explicitly:

    - every application message travels in a sequence-numbered
      {!Msg.Data} envelope, acknowledged by the receiver with {!Msg.Ack};
    - unacknowledged envelopes are retransmitted on a timeout that backs
      off exponentially up to a cap; after [max_retries] attempts the
      peer is suspected down and — without a journal — the envelope is
      abandoned (with one, the durable envelope stays on the wire at the
      capped interval: see below);
    - the receiver suppresses duplicates and buffers out-of-order
      arrivals, handing envelopes to the shell exactly once, in send
      order per directed link;
    - optionally, every endpoint emits periodic {!Msg.Heartbeat}s and
      runs a threshold failure detector over them: a peer not heard from
      for [suspect_after] seconds is suspected, which delivers a local
      {!Msg.Suspect_down} — turning a silent network-level stall into
      the paper's §5 failure notice so guarantees degrade instead of
      lying.  Hearing from a suspected peer again delivers a local
      {!Msg.Reset_notice} for it.

    {b Crash recovery.}  When a {!Journal} registry is attached, the
    exactly-once property extends across site crashes:

    - each directed link's sender numbers frames within an {e epoch}
      (the sender's incarnation, bumped by {!Cm_core.Recovery} on
      restart) and every message carries a stable per-link {e mid};
    - sends, acks, and in-order deliveries are journaled
      (write-ahead), so after a crash the unacknowledged set and the
      receiver window can be rebuilt;
    - the receiver rejects frames from epochs older than the one it is
      synchronized to (counted as [epoch_rejections]) instead of letting
      a previous life's retransmits collide with the new sequence space,
      and suppresses re-queued messages whose mid it already delivered;
    - a retransmission chain that exhausts [max_retries] raises the
      suspicion but keeps the journaled frame on the wire at the capped
      interval — a give-up may conclude {e after} a restarted peer's
      last sign of life, so waiting to hear it again would strand the
      frame.  A durable frame thus leaves the wire only on its ack, or
      when its sender's own restart re-queues it ({!recover}).

    All timers run on the simulation clock and all state changes are
    deterministic, so faulty runs remain reproducible from their seed.
    Local sends (site to itself) bypass the protocol: the simulated
    network never loses them. *)

type t

type config = {
  retry_timeout : float;  (** initial retransmission timeout, seconds *)
  backoff : float;  (** timeout multiplier per retry *)
  max_timeout : float;  (** retransmission timeout cap *)
  max_retries : int;  (** retransmissions before giving up and suspecting *)
  heartbeat_period : float;  (** 0 disables heartbeats and the detector *)
  suspect_after : float;
      (** silence threshold before suspecting a peer; 0 means
          [3 *. heartbeat_period] *)
}

val default_config : config
(** 1 s initial timeout, ×2 backoff capped at 10 s, 10 retries,
    heartbeats disabled. *)

type stats = {
  data_sent : int;  (** first transmissions of application envelopes *)
  retransmits : int;
  acks_sent : int;
  delivered : int;  (** envelopes handed to a handler, exactly once each *)
  dup_suppressed : int;  (** received again after delivery (or while buffered) *)
  reordered : int;  (** arrived ahead of a gap and were buffered *)
  heartbeats_sent : int;
  give_ups : int;
      (** retransmission chains that exhausted [max_retries]: the
          envelope is abandoned without a journal, kept on the wire at
          the capped interval with one *)
  suspects : int;
  recoveries : int;
  epoch_rejections : int;
      (** frames from a previous incarnation of the sender, rejected *)
  requeued : int;  (** journal-unacked messages put back on the wire *)
}

val create :
  sim:Cm_sim.Sim.t ->
  net:Msg.t Cm_net.Net.t ->
  ?config:config ->
  ?obs:Obs.t ->
  ?journals:Journal.registry ->
  unit ->
  t
(** [obs] (default {!Obs.noop}) receives [reliable_*] counters
    (data_sent, retransmits, acks_sent, delivered, dup_suppressed,
    reordered, give_ups, epoch_rejections and requeued per directed
    link; heartbeats_sent per site; suspects and recoveries per (site,
    peer)) and ["retransmit"] child spans for retried {!Msg.Fire}
    envelopes.  The counters are the layer's only tally: {!stats} sums
    them, on every registry.  [journals] (default: none) turns on
    write-ahead logging of transport state, the prerequisite for crash
    recovery. *)

val config : t -> config

val register : t -> site:string -> (Msg.t -> unit) -> unit
(** Install the application handler for a site; registers the site's
    transport handler with the underlying network and, if heartbeats are
    enabled, starts its heartbeat/detector timer.
    @raise Invalid_argument if the site is already registered. *)

val send : t -> from_site:string -> to_site:string -> Msg.t -> unit
(** Queue a message for reliable delivery.  Delivery to the handler at
    [to_site] happens exactly once, in per-link send order, as long as
    the link's loss rate leaves any retransmission chain alive — or,
    with a journal attached, as long as the message is eventually
    re-queued by recovery. *)

val on_suspect : t -> (site:string -> suspect:string -> unit) -> unit
(** Called when [site]'s detector (or retransmission give-up) starts
    suspecting [suspect], in addition to the local {!Msg.Suspect_down}
    delivery.  Registration is O(1). *)

val suspects : t -> site:string -> string list
(** Peers currently suspected by [site]'s detector, sorted. *)

(** {2 Crash recovery}

    Driven by {!Cm_core.Recovery}; not meant for application use. *)

val recover : t -> site:string -> incarnation:int -> Journal.link_state list -> unit
(** Restore [site]'s endpoint from a checkpoint's links ({!Cm_core.Recovery}
    derives them from the journal).  First the crash's loss is modelled:
    [site]'s failure-detector memory, the sender half of every link
    leaving it and the receiver half of every link entering it are
    wiped.  Then, for each peer, in list order: the receiver half from
    the peer gets its [in_epoch], next expected sequence number and
    cross-incarnation duplicate-suppression set; the sender half towards
    the peer is rebound to epoch [incarnation], with sequence numbers
    restarting at 0 and mids continuing from [next_mid]; and the
    [unacked] messages, in list (mid) order, are put back on the wire
    through {!send}'s write-ahead path (an [Outbound] record), counted
    as [requeued], each under the new epoch with a fresh sequence number
    and its original mid. *)

val stats : t -> stats
(** Sums of the layer's [reliable_*] counter handles. *)

val pending : t -> int
(** Envelopes sent but neither acknowledged nor abandoned. *)
