(** Events: the observable behaviour of databases and the CM.

    Following Appendix A.1, every event carries the time at which it
    occurred, a descriptor (name + arguments), and — for {e generated}
    events — the rule whose firing produced it and the identifier of the
    triggering event.  {e Spontaneous} events model local applications
    operating on their databases independently of the CM.

    The standard descriptor vocabulary is the paper's (§3.1.1):

    - [W(X, b)]   — the database performs the write X ← b
    - [Ws(X, a, b)] — a spontaneous write X ← b (old value [a]);
      the two-argument form [Ws(X, b)] is shorthand with [a] wild-carded
    - [RR(X)]     — the database receives a read request from the CM
    - [R(X, b)]   — the CM receives the read response
    - [N(X, b)]   — the CM receives a notification of X ← b
    - [WR(X, b)]  — the database receives a write request from the CM
    - [P(p)]      — a periodic event occurring every [p] seconds
    - [INS(X)] / [DEL(X)] — item creation / deletion (for the existence
      predicate of §6.2); [DR(X)] — a deletion request from the CM

    The set is extensible (Appendix A.1): any other name denotes a
    CM-internal event routed between shells, which is how composite
    strategies such as the Demarcation Protocol chain rules. *)

type arg = Av of Value.t | Ai of Item.t

type desc = { name : string; args : arg list }

type kind =
  | Spontaneous
  | Generated of { rule_id : string; trigger : int }
      (** [trigger] is the {!field-id} of the event that fired the rule. *)

type t = {
  id : int;  (** unique within a trace, assigned by {!Trace.record} *)
  time : float;
  site : Item.site;
  desc : desc;
  kind : kind;
}

val desc_to_string : desc -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val desc_equal : desc -> desc -> bool

(** {2 Standard descriptor constructors} *)

val w : Item.t -> Value.t -> desc
val ws : ?old:Value.t -> Item.t -> Value.t -> desc
(** Omitted [old] becomes [Null] (unknown). *)

val rr : Item.t -> desc
val r : Item.t -> Value.t -> desc
val n : Item.t -> Value.t -> desc
val wr : Item.t -> Value.t -> desc
val p : float -> desc
val ins : Item.t -> desc
val del : Item.t -> desc
val dr : Item.t -> desc

val known_arity : string -> int option
(** Arity of the standard names above, [None] for extension names.  Used
    by the parser and linter. *)

val item_of_desc : desc -> Item.t option
(** The first item argument, which determines the event's site for
    standard descriptors. *)

val written_value : desc -> (Item.t * Value.t) option
(** For [W] and [Ws] descriptors, the item and its new value — the basis
    for state reconstruction (Appendix A.2, property 2). *)
