(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the toolkit flows through values of type {!t} so that
    every simulation run is reproducible from a single integer seed.  The
    generator is intentionally not shared with [Stdlib.Random]: experiments
    must not be perturbed by library code drawing from a global state. *)

type t

val create : seed:int -> t
(** [create ~seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val of_key : seed:int -> string -> t
(** [of_key ~seed key] is a generator whose stream is a pure function of
    [(seed, key)] — no ambient state, no splitting order.  Used where
    draws must not depend on how a run is partitioned: the sharded
    executor keys one stream per network link (and per workload tag) so
    every shard layout of one simulation sees the same draws in the same
    per-key order. *)

val copy : t -> t
(** Independent copy with the same current state. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream.  Used to
    give each workload generator its own stream so that adding one
    generator does not shift the draws of another. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean; used for Poisson
    arrival processes in workloads.  [mean] must be positive. *)

val uniform_in : t -> lo:float -> hi:float -> float

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array.  @raise Invalid_argument on an
    empty array. *)
