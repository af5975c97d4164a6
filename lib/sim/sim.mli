(** Discrete-event simulation kernel.

    The toolkit's formal framework (paper, Appendix A) reasons about events
    in global physical time.  Running the whole system — information
    sources, translators, CM-Shells, network, applications — inside one
    deterministic simulated clock makes that reasoning premise literally
    true, so metric guarantees (time bounds δ, κ) can be checked exactly.

    Executions are fully deterministic: callbacks scheduled for the same
    instant run in scheduling order (a sequence number breaks ties), and
    all randomness must come from {!rng}. *)

type t

type time = float
(** Simulated seconds since the start of the run. *)

val create : ?seed:int -> unit -> t
(** Fresh simulator at time 0.  [seed] (default 42) seeds {!rng}. *)

val now : t -> time

val rng : t -> Cm_util.Prng.t
(** The root generator.  Long-lived components should [Prng.split] their
    own stream from it at set-up time. *)

exception Stop
(** Raise from within a callback to end {!run} early. *)

val schedule : t -> delay:time -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at time [now t +. delay].  Negative
    delays are clamped to 0 (immediate, but still queued after already
    pending work at the current instant). *)

val schedule_at : t -> time -> (unit -> unit) -> unit
(** Absolute-time variant.  Times before [now] are clamped to [now]. *)

val every : t -> ?start:time -> period:time -> (unit -> unit) -> cancel:(unit -> bool) -> unit
(** [every t ~period f ~cancel] runs [f] at [start] (default [now + period])
    and then every [period] simulated seconds, until [cancel ()] returns
    [true] (checked before each occurrence).  Implements the paper's
    periodic events [P(p)].
    @raise Invalid_argument unless [period > 0.] (NaN included). *)

val run : ?until:time -> t -> unit
(** Process queued events in time order.  Stops when the queue drains, when
    the next event would exceed [until] (clock then advances to [until]),
    or when a callback raises {!Stop}. *)

val step : t -> bool
(** Process exactly one queued event.  [false] if the queue was empty. *)

val advance : ?inclusive:bool -> t -> until:time -> unit
(** Conservative-window variant of {!run}: process events strictly
    before [until] ([inclusive] adds the boundary instant itself), then
    set the clock to [until] even if later events remain queued.  This
    is the lookahead horizon of the sharded executor — a shard whose
    peers cannot affect it before [until] runs its wheel up to that
    horizon and then waits for the cross-shard exchange; events at or
    beyond the horizon stay queued for later windows.  Honors {!Stop}. *)

val next_at : t -> time option
(** Time of the earliest queued event ([None] on an empty queue) —
    including entries whose [live] predicate already returns [false],
    which occupy the wheel until their instant.  The sharded executor's
    quiescence test. *)

val pending : t -> int
(** Number of queued events that will still do work: a periodic re-arm
    whose [cancel] already returns [true] sits in the queue until its
    time comes but is {e not} counted.  Every other entry is counted as
    it is queued and popped, so a read costs one [cancel] call per
    periodic timer whose re-arm is queued: O(periodic timers), whatever
    the queue's length. *)

val events_processed : t -> int
(** Total callbacks executed so far — used by throughput benchmarks. *)
