(** Messages exchanged between CM-Shells over the network.

    Rule distribution (paper §4.1) places each rule at the shell of its
    LHS site; when it matches there, the binding environment travels to
    the shell of the RHS site as a {!Fire} envelope, where conditions are
    evaluated against local data and the RHS events are produced.
    Failure notices propagate between shells so that affected guarantees
    can be marked invalid at every site (§5).

    The last four variants belong to the transport layer
    ({!Cm_core.Reliable}), which re-earns the paper's reliable-network
    assumption over a faulty {!Cm_net.Net}: application messages travel
    wrapped in sequence-numbered {!Data} envelopes answered by {!Ack}s,
    {!Heartbeat}s feed the per-site failure detector, and
    {!Suspect_down} is what the detector delivers locally when a peer
    stops responding — the §5 failure notice for a dead communication
    endpoint, which would otherwise be a silent stall. *)

type failure_kind = Metric | Logical

type t =
  | Fire of {
      rule_id : string;
      rule_epoch : int;
          (** Rule epoch (see {!Cm_core.Evolution}) the firing was
              produced under: [0] is the base program installed at
              configuration time.  The RHS shell executes the envelope
              under this epoch's program while it is still draining, and
              rejects (and counts) it once that epoch is retired — an
              in-flight firing is never silently re-interpreted under a
              newer program. *)
      env : Cm_rule.Expr.env;  (** the LHS match's bindings *)
      trigger_id : int;
      span : int;
          (** Id of the ["fire"] span opened at the LHS shell, or [0]
              when observability is off.  The RHS shell parents its
              ["execute"] span on it; the reliable layer parents
              ["retransmit"] spans on it — one trace follows the
              evaluation end-to-end across sites. *)
    }
  | Failure_notice of { origin_site : string; kind : failure_kind }
  | Reset_notice of { origin_site : string }
  | Data of { from_site : string; epoch : int; seq : int; mid : int; payload : t }
      (** Reliable-delivery envelope: [seq] orders the [from_site] →
          receiver link within [epoch], the sender's incarnation number
          (0 until the site ever crash-restarts).  [mid] is a stable
          per-link message id that survives re-sends across epochs, so
          the receiver can deduplicate a message re-queued after a crash
          even though it carries a fresh [(epoch, seq)]. *)
  | Ack of { from_site : string; epoch : int; seq : int }
      (** Acknowledges [Data { epoch; seq }] on the link towards
          [from_site].  The epoch is echoed so an ack for a previous
          incarnation's frame cannot discharge the re-sent copy. *)
  | Heartbeat of { origin_site : string; beat : int }
  | Suspect_down of { origin_site : string; suspect_site : string }
      (** Delivered locally by [origin_site]'s failure detector when
          [suspect_site] has gone quiet. *)

val failure_kind_to_string : failure_kind -> string

val summary : t -> string
(** Compact single-line rendering, stable across runs — used by the
    crash-recovery journal's deterministic serialization. *)
