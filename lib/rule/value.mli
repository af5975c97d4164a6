(** Scalar values stored in data items and carried by events.

    The framework is data-model-agnostic: heterogeneous sources map their
    native representations to these scalars at the CM-Translator boundary
    (paper §4.1).  [Null] doubles as the "item absent / unknown" marker in
    interpretations (Appendix A.1 allows interpretations to under-specify
    the state). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

val equal : t -> t -> bool
(** Structural equality, except numeric values compare by magnitude
    ([Int 3] equals [Float 3.0]) — sources of different data models store
    the "same" number differently.  An int equals a float only when the
    float holds it exactly ([Int (2{^53} + 1)] equals no float), so
    equality is transitive. *)

val compare : t -> t -> int
(** Total order consistent with {!equal}; values of different kinds order
    by kind (Null < Bool < numeric < Str). *)

val hash : t -> int
(** Agrees with {!equal}: [Int 3] and [Float 3.0], [0.0] and [-0.0], and
    any two nans hash alike.  Allocates nothing. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Numeric arithmetic with int→float promotion.
    @raise Invalid_argument on non-numeric operands or division by zero. *)

val neg : t -> t
val abs : t -> t

val truthy : t -> bool
(** [Bool b] is [b]; [Null] is false; anything else raises. *)

val to_float : t -> float
(** @raise Invalid_argument on non-numeric values. *)

val to_string : t -> string
(** Round-trippable with {!of_string_literal} for ints, floats, bools and
    quoted strings. *)

val of_string_literal : string -> t option
(** Parse ["42"], ["3.5"], ["true"], ["\"s\""], ["null"]. *)

val pp : Format.formatter -> t -> unit
