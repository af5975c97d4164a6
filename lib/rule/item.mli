(** Data item names.

    A data item is what a constraint ranges over: a field, a tuple, a file
    — the framework fixes no granularity (paper §3).  Items may be
    *parameterized* ("the phone number of [n]"), so a concrete name is a
    base identifier plus a vector of concrete parameter values:
    [Salary1("emp7")].  By the paper's convention, item base names start
    with an upper-case letter (lower-case identifiers are rule
    parameters). *)

type t = { base : string; params : Value.t list }

val make : ?params:Value.t list -> string -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
(** Agrees with {!equal}: parameters hash through {!Value.hash}.
    Allocates nothing. *)

val to_string : t -> string
(** [Salary1("emp7", 3)] style rendering; 0-ary items render bare. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s text. *)

val pp : Format.formatter -> t -> unit

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

type site = string
(** Sites are named locations: one per participating database plus one per
    CM-Shell's private store.  The special site {!cm_site_prefix}[ ^ s]
    holds CM auxiliary data for the shell at site [s]. *)

type locator = t -> site
(** Where an item lives.  Supplied by toolkit configuration; rule
    distribution (paper §4.1) and the "conditions read local data only"
    restriction (§3.2) are enforced against it. *)
