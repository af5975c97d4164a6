(** Per-site write-ahead log backing crash recovery.

    §5 of the paper maps crashes to {e metric} failures "if the database
    ... can 'remember' messages that need to be sent out upon recovery".
    This module is that memory: an append-only stream of records per
    site — events received, rule-firing decisions, CM-store writes, the
    reliable layer's outbound/ack/delivery state, and incarnation
    changes — plus optional checkpoints that snapshot the volatile state
    so replay after a crash is bounded (the ARIES discipline, reduced to
    the CM-Shell's event/firing model).

    The journal models stable storage: it is owned by the recovery
    manager and deliberately survives {!Cm_net.Net.crash_site}, which
    wipes only volatile state.  Appends are deterministic in simulation
    order and {!to_string} is canonical, so two runs of the same seed
    produce byte-identical journals — the replay-determinism tests rely
    on this. *)

(** How much a {!System} remembers across crashes.  [None] is the
    pre-recovery behaviour: a crash loses in-flight traffic and volatile
    state, surfacing as a {e logical} failure.  [Journal] records enough
    to replay; [Journal_with_checkpoint] additionally snapshots volatile
    state periodically so replay cost stays bounded. *)
type durability = None | Journal | Journal_with_checkpoint

val durability_to_string : durability -> string
(** ["none"], ["journal"], ["journal+checkpoint"]. *)

val durability_of_string : string -> durability option

(** Transport state towards/from one peer as frozen by a checkpoint:
    sender-side next message id and unacknowledged messages, and
    receiver-side epoch, next expected sequence number, and the
    cross-incarnation duplicate-suppression set. *)
type link_state = {
  peer : string;
  next_mid : int;
  unacked : (int * int * int * Msg.t) list;  (** mid, epoch, seq, payload *)
  in_epoch : int;
  in_expected : int;
  delivered_mids : int list;
}

(** Lifecycle phase of a rule epoch (see {!Cm_core.Evolution}) as frozen
    by a checkpoint. *)
type epoch_phase = Ep_proposed | Ep_active | Ep_draining | Ep_retired

val epoch_phase_to_string : epoch_phase -> string

type record =
  | Event of { time : float; site : string; desc : string }
      (** An event recorded at this site (trace-level memory). *)
  | Fire_sent of {
      time : float;
      rule_id : string;
      to_site : string;
      trigger_id : int;
    }  (** A firing decision made by this site's shell. *)
  | Store_write of { time : float; item : Cm_rule.Item.t; value : Cm_rule.Value.t }
      (** A write to the shell's volatile {!Store}, logged before it is
          applied (write-ahead), so recovery can rebuild the store. *)
  | Outbound of {
      time : float;
      to_site : string;
      mid : int;
      epoch : int;
      seq : int;
      payload : Msg.t;
    }
      (** A message handed to the reliable layer — the §5 "message that
          needs to be sent out upon recovery" until a matching
          {!Acked} appears. *)
  | Acked of { time : float; to_site : string; mid : int }
  | Delivered of {
      time : float;
      from_site : string;
      epoch : int;
      seq : int;
      mid : int;
      applied : bool;
    }
      (** An inbound sequence slot consumed; [applied = false] means the
          payload was suppressed as a cross-epoch duplicate but the slot
          still advances the expected sequence number on replay. *)
  | Restarted of { time : float; incarnation : int }
  | Epoch_proposed of { time : float; epoch : int; rules : Cm_rule.Rule.t list }
      (** A rule epoch staged at this site, with its full program —
          journaled write-ahead so a crash mid-transition can replay the
          proposal. *)
  | Epoch_cutover of { time : float; epoch : int }
      (** [epoch] became the active program; the previously active epoch
          began draining. *)
  | Epoch_retired of { time : float; epoch : int }
      (** [epoch] stopped draining; firings tagged with it are rejected
          from now on. *)
  | Epoch_rollback of {
      time : float;
      from_epoch : int;
      to_epoch : int;
      reason : string;
    }
      (** The cutover to [from_epoch] regressed a required guarantee and
          was undone by re-proposing [to_epoch]'s program under a fresh
          epoch number.  Logged write-ahead so a crash mid-rollback is
          explainable from the log; the epoch-state effects themselves
          replay via the rollback's own {!Epoch_proposed} /
          {!Epoch_cutover} records. *)
  | Checkpoint of {
      time : float;
      incarnation : int;
      store : (Cm_rule.Item.t * Cm_rule.Value.t) list;
      links : link_state list;
      rule_epochs : (int * epoch_phase * Cm_rule.Rule.t list) list;
          (** Epoch state at checkpoint time, ascending by number.  Empty
              for a site still running only the base program; epoch 0,
              whose rules are configuration rather than journaled state,
              appears with an empty rule list and only when no longer
              simply active. *)
      active_epoch : int;
    }

val record_kind : record -> string
(** Stable lowercase tag, used as the [kind] label of the
    [journal_appends] counter. *)

val record_to_string : record -> string
(** Canonical one-line rendering. *)

type t

val site : t -> string

val append : t -> record -> unit
(** Appends are observable as [journal_appends] counters (labels [site],
    [kind]), bumped through handles the journal resolves when it is
    created; checkpoint records additionally feed the
    [journal_checkpoint_bytes] series.  Nothing is rendered, except a
    checkpoint's line for that series when the registry is enabled. *)

val records : t -> record list
(** Oldest first. *)

val length : t -> int

val incarnation : t -> int
(** Number of {!Restarted} records appended — the epoch under which the
    site's reliable links currently operate. *)

val replay_base : t -> record option * record list
(** The newest {!Checkpoint} (if any) and every record after it, oldest
    first: exactly what recovery replays. *)

val to_string : t -> string
(** One canonical line per record — byte-identical across replays of the
    same seed. *)

type stats = {
  appends : int;
  bytes : int;
      (** total serialized size — the journal-overhead metric: the length
          of {!to_string}, computed from the retained records when
          {!stats} is read (O(records)), not kept at append *)
  checkpoints : int;
  incarnation : int;
}

val stats : t -> stats

(** {2 Registry}

    One journal per site, held on shared (stable) storage by the
    system. *)

type registry

val create_registry : ?obs:Obs.t -> unit -> registry
val for_site : registry -> site:string -> t
val sites : registry -> string list
(** Sites that ever journaled, sorted. *)
