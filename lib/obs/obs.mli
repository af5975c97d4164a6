(** Observability: one instrument registry + span tracing per system run.

    The paper's evaluation (§4.2.3, §5, §6) is a set of claims about
    message cost, staleness, and failure behaviour.  This module makes
    each such number a query over a single registry instead of an ad-hoc
    counter scrape: [Cm_net.Net] records sends/drops/dups/latency,
    [Cm_core.Reliable] records retransmissions/acks/heartbeat verdicts,
    [Cm_core.Shell] records matches/firings/guard rejections, and
    [Cm_core.System]/[Cm_core.Toolkit] record guarantee invalidations
    and strategy installs — all into the [Obs.t] carried by
    [Cm_core.System.Config].  The library sits below the network so
    that every layer, [Cm_net] included, owns its instruments.

    Counters are each layer's only tally: a layer's own statistics
    accessors ([Net.messages_sent], [Reliable.stats], [Journal.stats],
    ...) read its counter handles with {!Counter.value}, so they agree
    with the exported snapshot by construction, and they keep counting
    when the registry is {!noop}.

    Span-based tracing follows one constraint evaluation end-to-end:
    the LHS shell opens a ["fire"] span when a rule matches, the span id
    travels inside the [Msg.Fire] envelope, the reliable layer attaches
    ["retransmit"] child spans to it, and the RHS shell opens an
    ["execute"] child span with per-action ["step"] children.

    Everything is deterministic: instruments are keyed by (name, sorted
    labels), snapshots are emitted sorted, span ids are sequential, and
    nothing here draws from the simulation PRNG — a run with
    observability on is byte-identical to the same seed with it off. *)

type t

type labels = (string * string) list
(** Label sets are canonicalized: sorted by key, duplicate keys
    collapsed (first binding per key wins after sorting).  Two calls
    with the same bindings in different orders hit the same
    instrument.  A set whose keys already ascend strictly is kept as
    given, unsorted and uncopied, so a per-event call site passes its
    labels in that order. *)

val create : unit -> t
(** A fresh, enabled registry. *)

val noop : t
(** The shared disabled registry, the default when no [?obs] is
    configured.  Nothing on it is exported: snapshots and the span log
    are empty, {!span} returns [0], and gauges, series and the one-shot
    {!incr}/{!gauge}/{!observe} record nothing.  A {!Counter} handle
    made on it still counts, in a private cell that only
    {!Counter.value} reads — that is how layers keep their statistics
    with observability off.  No bump allocates. *)

val enabled : t -> bool

(** {1 Instruments} *)

val incr : ?by:int -> ?labels:labels -> t -> string -> unit
(** Bump a counter (creating it at 0 first). *)

val gauge : ?labels:labels -> t -> string -> float -> unit
(** Set a gauge to its latest value. *)

val observe : ?labels:labels -> t -> string -> float -> unit
(** Append one observation to a series (exported as a
    {!Cm_util.Stats.summary}). *)

(** {2 Handles}

    A per-event site resolves its instrument once and bumps the handle:
    the [(name, canonical labels)] key is built at {!Counter.make}, and
    a bump does no label work and no hashing.  The registry cell is
    found or created on the handle's first use, so a handle that is
    resolved but never used adds no snapshot row, and a kind mismatch
    raises [Invalid_argument] at that first use.  A handle and the
    one-shot calls above with the same name and labels share one cell.
    On a disabled registry {!Counter.make} gives each handle a private
    cell, never exported, and {!Gauge.make}/{!Series.make} hand out one
    shared dead handle; no bump allocates.  A noop counter is bumped
    without synchronisation, so it belongs to one domain: never share
    one between shells or shards that run in parallel. *)

module Counter : sig
  type obs := t
  type t

  val make : ?labels:labels -> obs -> string -> t
  val incr : ?by:int -> t -> unit

  val value : t -> int
  (** The count behind the handle: its registry cell on an enabled
      registry (0 while no handle or one-shot call has made the cell;
      reading never makes it), its private cell on {!noop}. *)
end

module Gauge : sig
  type obs := t
  type t

  val make : ?labels:labels -> obs -> string -> t
  val set : t -> float -> unit
end

module Series : sig
  type obs := t
  type t

  val make : ?labels:labels -> obs -> string -> t
  val observe : t -> float -> unit
end

val counter_value : ?labels:labels -> t -> string -> int
(** Value of one labelled counter; 0 if absent. *)

val counter_total : t -> string -> int
(** Sum of a counter across all label sets. *)

val gauge_value : ?labels:labels -> t -> string -> float option
val series_values : ?labels:labels -> t -> string -> float list
(** Observations in chronological order; [[]] if absent. *)

(** {1 Spans} *)

val span : ?parent:int -> ?labels:labels -> t -> name:string -> at:float -> int
(** Open a span at sim-time [at]; returns its id (ids start at 1).
    [parent = 0] (the default) means a root span.  On a disabled
    registry returns [0], the "no span" sentinel carried by envelopes. *)

val end_span : t -> id:int -> at:float -> unit
(** Close a span, in O(1): spans are stored by id.  Ignored for id [0]
    or unknown ids; closing a closed span again moves its end to [at]. *)

type span = {
  id : int;
  parent : int;  (** 0 = root *)
  span_name : string;
  span_labels : labels;
  started : float;
  mutable ended : float option;
}

val spans : t -> span list
(** All spans in creation order. *)

(** {1 Snapshots} *)

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Series_sample of Cm_util.Stats.summary

type row = { name : string; labels : labels; sample : sample }

val snapshot : t -> row list
(** All instruments, sorted by (name, labels) — deterministic for a
    deterministic run. *)

val snapshot_to_json : t -> string
(** The snapshot as a JSON array (hand-rolled; byte-identical across
    runs at a fixed seed). *)

val snapshot_to_csv : t -> string
val spans_to_json : t -> string
val spans_to_csv : t -> string
