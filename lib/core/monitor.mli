(** Incremental streaming guarantee monitors (§3.3 online).

    {!Guarantee.check} folds the {e entire} recorded timeline after the
    run ends — O(trace) memory, and a violated κ bound is discovered
    hours too late for a long-lived service to react.  This module turns
    each §3.3.1 guarantee into a small state machine updated once per
    trace event (via {!Cm_rule.Trace.on_record} or explicit {!feed}):

    - {b (1) follows} — set of values the leader has taken; a follower
      take outside the set is flagged the instant it is recorded.
    - {b (2) leads} — multiset of leader takes not yet reflected by the
      follower; entries are discharged when a follower interval carrying
      the value closes strictly after the take.  An eventually-property:
      leftovers become violations only at {!finalize}, but the pending
      count is exported live as an Obs gauge.
    - {b (3) strictly-follows} — co-simulation of the fold's greedy
      order-embedding: a queue of unconsumed leader takes plus a FIFO of
      follower takes awaiting a future leader occurrence; residuals are
      embedded exactly like the fold at {!finalize}.
    - {b (4) metric-follows κ} — the leader's value intervals pruned to
      the κ window (adjacent same-value entries merged, which is
      equivalence-preserving for the fold's predicate); a follower take
      is checked against the window at its own timestamp.
    - {b always-leq} — evaluated at every instant at which any item
      changed, mirroring the fold's sample points.

    Events sharing a timestamp are micro-batched: all state updates of
    the instant apply before any obligation of that instant is
    evaluated, which is what makes the streaming verdicts {e equal} to
    the post-hoc fold (the fold's predicates quantify over the whole
    instant, not the intra-instant event order).  The differential suite
    in [test/test_monitor.ml] locks this equivalence trace-by-trace.

    State per guarantee is bounded by current activity, not trace
    length: the κ window holds only intervals newer than [now − κ], the
    leads pending set only undischarged takes, the strictly queues only
    unmatched takes (all empty on a converged copy); the follows value
    set grows with {e distinct} leader values only.

    On top of the per-guarantee verdicts, a per-copy {b live staleness}
    verdict drives the self-healing layer: a copy is stale at time T
    when its current value was not held by the leader within (T − κ, T]
    — which catches the §5 [Silent_drop] failure (the leader's writes
    keep appearing in the trace while notifications silently die) within
    κ plus one monitor tick, where the post-hoc fold only notices at the
    end of the run.  {!force_refresh} re-evaluates a copy synchronously
    — the probe step of the router's quarantine machinery. *)

type t

type handle
(** One watched guarantee (from {!watch} or a {!watch_copy} family). *)

type verdict = {
  v_holds : bool;  (** no violation so far (or, after finalize, ever) *)
  v_points : int;  (** obligations checked, = the fold's [checked_points] *)
  v_violations : int;  (** obligations failed, = the fold's failure count *)
}

type violation = {
  vi_at : float;  (** simulated time the violation was detected *)
  vi_guarantee : Guarantee.t;
  vi_detail : string;
}

val create : ?sim:Cm_sim.Sim.t -> ?obs:Obs.t -> ?tick:float -> unit -> t
(** A fresh monitor.  [sim] enables the periodic staleness tick (period
    [tick], default 1.0 s — the "poll period" of the κ + tick detection
    bound); without it staleness is still re-evaluated on every relevant
    event and on {!force_refresh}, but not on quiet passage of time.
    [obs] (default {!Obs.noop}) receives per-guarantee [monitor_holds]
    gauges, [monitor_violations] counters, per-copy [monitor_stale]
    gauges and [monitor_forced_refreshes] counters. *)

val attach : t -> Cm_rule.Trace.t -> unit
(** Subscribe to the trace: every subsequent {!Cm_rule.Trace.record} is
    {!feed}ed automatically.  Observation only — the monitor never
    records events, schedules no PRNG draws, and leaves the trace
    byte-identical to an unmonitored run. *)

val feed : t -> Cm_rule.Event.t -> unit
(** Advance the monitors by one event (in time order — the trace
    discipline).  Events that do not change item state ([N], [RR],
    CM-internal chains, …) return immediately.
    @raise Invalid_argument if fed after {!finalize} or out of order. *)

val note_initial : t -> (Cm_rule.Item.t * Cm_rule.Value.t) list -> unit
(** Pre-existing item values, applied at time 0.0 — the monitor-side
    mirror of {!Cm_rule.Timeline.of_trace}'s [initial].  Call before any
    event with a later timestamp is fed. *)

val supported : Guarantee.t -> bool
(** The five streamed forms above.  [Exists_within], [Monitor_window]
    and [Periodic_equal] quantify over dense time and stay post-hoc. *)

val watch : ?ignore_after:float -> t -> Guarantee.t -> handle
(** Stream one guarantee.  [ignore_after] mirrors the fold's parameter
    for {!Guarantee.Leads}: leader takes after it create no obligation
    (used to excuse updates injected too close to the horizon).
    @raise Invalid_argument if [not (supported g)]. *)

val watch_copy :
  t -> source:string -> target:string -> kappa:float option -> unit
(** Watch a [constraint copy] pair as a {e family}: per parameter
    vector, the three logical forms plus — when [kappa] is proved —
    metric-follows and the live staleness verdict.  Instances appear
    lazily at their first event.  Idempotent per (source, target). *)

val on_violation : t -> (violation -> unit) -> unit
(** Subscribe to every point violation, in detection order. *)

val on_staleness :
  t -> (source:string -> target:string -> at:float -> stale:bool -> unit) -> unit
(** Subscribe to per-copy staleness {e transitions} (aggregated over the
    family's parameter vectors).  The router's quarantine trigger. *)

val copy_stale : t -> source:string -> target:string -> bool
(** Current staleness verdict of a watched copy; [false] for unwatched
    pairs and for pairs with no proved κ. *)

val force_refresh : t -> source:string -> target:string -> bool
(** Synchronously re-evaluate the copy's staleness at the current time
    (the quarantine probe's "one synchronous poll": the simulation's
    ground-truth leader timeline stands in for the poll result) and
    return the refreshed verdict — [true] = still stale. *)

val crash_wipe : t -> owns:(Cm_rule.Item.t -> bool) -> int
(** Model a site crash: monitor state is volatile, so every watcher
    homed at the crashed site (its follower/right item satisfies
    [owns]) loses its in-memory state — value tracks, metric windows,
    pending leads obligations, strictly queues — and stops hearing the
    live feed.  A batch completed before the current instant is flushed
    first: the watchers heard it before they died.  Copy-family
    instances whose watchers went down freeze their staleness verdict
    until recovery.  Returns the number of watchers wiped.  Accumulated
    points/violations are kept: those were already reported before the
    crash.  Pair with {!relearn} at restart. *)

val relearn : t -> Cm_rule.Event.t list -> unit
(** Recovery for watchers downed by {!crash_wipe}.  [events] is the
    history in time order, as {!feed} takes it.  The {!note_initial}
    bindings and every event before the still-open instant run through
    the live engine on fresh twins of the wiped watchers, whose state
    then replaces theirs; the open instant's events stay in the live
    batch, which the revived watchers hear when it completes.  The
    rebuild is {e silent} — no points are scored, no violations
    reported, no staleness transitions published during the replay,
    because the surviving watchers already observed (and reported on)
    this history live.  What the replay restores is the
    {e obligations}: a leads trigger before the crash re-enters the
    pending set, so a violation that occurred before the crash but
    whose detection deadline falls after it is still reported at
    {!finalize} — the crash cannot launder a violation.  Watchers then
    resume hearing the live feed, and revived copy instances re-evaluate
    staleness once (subscribers hear only genuine transitions).  Like
    {!crash_wipe}, flushes a completed batch first.
    @raise Invalid_argument after {!finalize}. *)

val finalize : t -> horizon:float -> unit
(** Resolve the eventually-properties: close open intervals at
    [horizon], discharge or fail the remaining leads obligations, embed
    the residual strictly-follows queues.  Verdicts then equal
    [Guarantee.check ~horizon] over the same events (with matching
    [ignore_after]), provided every fed event has time ≤ [horizon].
    One-shot: further {!feed}s raise. *)

val verdict : handle -> verdict

val family_verdicts :
  t -> source:string -> target:string -> (Guarantee.t * verdict) list
(** Per-instance verdicts of a watched copy family, keys sorted, forms
    in §3.3.1 order — deterministic for reports. *)
