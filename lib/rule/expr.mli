(** Terms, conditions and their evaluation.

    One first-order expression language serves three roles in the rule
    language of the paper (§3, Appendix A.1):

    - {b template arguments} — the restricted forms [Const], [Var],
      [Item] and [Wildcard];
    - {b conditions} on rule left- and right-hand sides — full
      expressions evaluating to a boolean;
    - {b parameterized item names} — [Item (base, args)].

    Rule parameters (lower-case identifiers) are bound by matching the
    LHS event template, and additionally by {e binding equalities} in
    conditions: evaluating [X = b] with [b] unbound binds [b] to the
    current value of item [X] and succeeds.  This is exactly how the
    paper's read interface [RR(X) ∧ (X = b) →δ R(X, b)] and periodic
    notify [P(300) ∧ (X = b) →ε N(X, b)] capture "the current value".
    Binding is permitted only in positive positions (conjunctions);
    under [||] or [!] new bindings are discarded. *)

type unop = Neg | Not | Abs

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type t =
  | Const of Value.t
  | Var of string  (** rule parameter; lower-case by convention *)
  | Item of string * t list
      (** reference to a (possibly parameterized) local data item; reading
          it in a condition yields its current value *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Exists of string * t list
      (** the paper's [E(item)] existence predicate (§6.2) *)
  | Wildcard  (** ["*"]; template argument position only *)

(** What a rule parameter can be bound to.  Variables normally denote
    values, but a wild-carded item position binds the item itself. *)
type binding = Bval of Value.t | Bitem of Item.t

module Env : Map.S with type key = string

type env = binding Env.t

val empty_env : env

(** The local-state oracle a condition evaluates against: the current
    values of data items at the site of the rule's right-hand side, plus
    the CM-Shell's private store.  [lookup] returns [None] when the item
    does not exist — that is what {!Exists} tests. *)
type state = { lookup : Item.t -> Value.t option }

val state_of_fun : (Item.t -> Value.t option) -> state

exception Eval_error of string

val eval : state -> env -> t -> Value.t * env
(** Full evaluation.  Binding equalities extend the environment.  This
    is the rule language's one interpreter (the shell's conditions and
    {!Validity}'s go through it, via {!eval_cond}): per node it
    allocates no tuple and shares its boolean results, and the
    environment grows only where a binding equality binds.
    @raise Eval_error on every evaluation failure: unbound variables in
    non-binding positions, wildcards, missing items, operands of the
    wrong kind (a non-boolean condition, [b + "s"]) or division by
    zero. *)

val eval_cond : state -> env -> t -> env option
(** Evaluate as a condition: [Some env'] if truthy (with any new
    bindings), [None] if falsy.
    @raise Eval_error as {!eval}. *)

val free_vars : t -> string list
(** Variables occurring anywhere in the expression, without duplicates,
    in first-occurrence order. *)

val is_template_arg : t -> bool
(** True for the restricted forms allowed as event-template arguments. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
