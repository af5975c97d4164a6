(** Crash-recovery manager: replay, re-queue, re-handshake.

    §5 of the paper: "crashes can be mapped to metric failures if the
    database ... can 'remember' messages that need to be sent out upon
    recovery."  {!Journal} is the memory; this module is the protocol
    that uses it.  On {!restart}:

    + the site's network endpoint comes back and a [Restarted] record
      opens its next incarnation;
    + the journal is folded — the newest checkpoint, then every record
      after it — into the site's one recoverable state: exactly what a
      [Checkpoint] record holds (the store, one {!Journal.link_state}
      per peer, the rule-epoch phases, the active epoch and the
      incarnation);
    + each layer restores its part in one call, first wiping the
      volatile state the crash destroyed — recovery must not cheat by
      reading surviving heap state: {!Shell.recover} takes the store and
      the epochs, {!Reliable.recover} the links;
    + every peer's link is restored the same way: receiver half, then
      the sender half rebound to the new incarnation's {e epoch}, then
      the unacknowledged messages re-sent in mid order with fresh
      sequence numbers but their original stable mids, so receivers
      deduplicate re-sends and reject the previous life's retransmits;
    + the crash is reported as a {e metric} failure notice — updates
      arrive late, never never — which also serves as the sign of life
      that clears peers' suspicion of the site (what they owe it stays
      on their wire: a durable frame keeps retransmitting past a
      give-up).

    Checkpoints ([Journal_with_checkpoint]) are taken on a periodic
    simulation timer per registered shell and append that same derived
    state, unchanged, bounding replay.  The derived state is a pure
    function of the journal, so two replays of the same run are
    byte-identical, and replay-from-checkpoint and replay-from-origin
    agree: [test_recovery] runs 40 seeded lossy schedules with crashes
    and rule cutovers with and without checkpoints and requires the
    same journal records (checkpoints aside), trace and final state. *)

type t

val create :
  sim:Cm_sim.Sim.t ->
  net:Msg.t Cm_net.Net.t ->
  ?reliable:Reliable.t ->
  journals:Journal.registry ->
  ?obs:Obs.t ->
  Journal.durability ->
  t
(** Under [Journal_with_checkpoint] every registered shell's site is
    checkpointed every 60 simulated seconds.  [obs] receives per-site
    [recovery_crashes], [recovery_restarts], [recovery_replayed_records]
    and [recovery_checkpoints] counters, which are also the manager's
    only tally: {!stats} sums them. *)

val mode : t -> Journal.durability
val journals : t -> Journal.registry

val register_shell : t -> Shell.t -> unit
(** Makes the shell's volatile state recoverable and, under
    [Journal_with_checkpoint], starts its periodic checkpoint timer
    (skipped while the site is down). *)

val crash : t -> site:string -> unit
(** Take the site's endpoint down ({!Cm_net.Net.crash_site}).  Volatile
    state is deliberately left in place until {!restart} wipes it — a
    real crash does not get to run code. *)

val restart : t -> site:string -> unit
(** The recovery protocol described above.  Safe for sites without a
    registered shell (transport-only endpoints): store restoration is
    skipped, transport recovery still runs. *)

val checkpoint_now : t -> site:string -> unit
(** Append the journal-derived state as a [Checkpoint] record now —
    the periodic timer uses this; tests use it to place checkpoints at
    awkward instants (e.g. between the two halves of a firing). *)

type stats = {
  crashes : int;
  restarts : int;
  replayed_records : int;  (** records folded during restarts *)
  checkpoints : int;
}

val stats : t -> stats
