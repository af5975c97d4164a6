(** The menu of standard database interfaces (paper §3.1.1).

    Each constructor builds the interface statement(s) for one data item
    (or parameterized item family) as {!Cm_rule.Rule.t} values.  These
    rules are what a CM-Translator reports when queried during toolkit
    initialization, what the strategy-suggestion engine matches on, and
    what the validity checker verifies against the trace.

    Items are given as templates: [Item ("Salary1", [Var "n"])] denotes
    the parameterized family salary1(n). *)

type item_pattern = Cm_rule.Expr.t
(** An [Item (base, args)] expression. *)

val plain : string -> item_pattern
(** 0-ary item. *)

val family : string -> string list -> item_pattern
(** [family "Salary1" ["n"]] is salary1(n). *)

(** Which of the standard interfaces a rule set provides — the
    capability vocabulary used by strategy suggestion. *)
type kind =
  | Write  (** [WR(X, b) →δ W(X, b)] *)
  | No_spontaneous_write  (** [Ws(X, b) → ℱ] *)
  | Notify  (** [Ws(X, b) →δ N(X, b)] *)
  | Conditional_notify  (** notify filtered by a condition *)
  | Periodic_notify  (** [P(p) ∧ (X = b) →ε N(X, b)] *)
  | Read  (** [RR(X) ∧ (X = b) →δ R(X, b)] *)
  | Delete  (** [DR(X) →δ DEL(X)] — for referential-integrity sweeps *)

val kind_to_string : kind -> string

val write : ?id:string -> delta:float -> item_pattern -> Cm_rule.Rule.t
val no_spontaneous_write : ?id:string -> item_pattern -> Cm_rule.Rule.t
val notify : ?id:string -> delta:float -> item_pattern -> Cm_rule.Rule.t

val conditional_notify :
  ?id:string -> delta:float -> condition:Cm_rule.Expr.t -> item_pattern -> Cm_rule.Rule.t
(** [condition] ranges over [a] (old value) and [b] (new value); the LHS
    is the three-argument [Ws(X, a, b)] form. *)

val relative_change_condition : threshold:float -> Cm_rule.Expr.t
(** [|b - a| > threshold * a], the paper's 10 %-change example for
    [threshold = 0.1]. *)

val periodic_notify : ?id:string -> period:float -> delta:float -> item_pattern -> Cm_rule.Rule.t
val read : ?id:string -> delta:float -> item_pattern -> Cm_rule.Rule.t
val delete : ?id:string -> delta:float -> item_pattern -> Cm_rule.Rule.t

val classify : Cm_rule.Rule.t -> kind option
(** Recognize which standard interface a rule expresses, if any. *)

val kinds_of_rules : Cm_rule.Rule.t list -> kind list
(** Distinct kinds among the recognizable rules, in stable order. *)

val served_base : Cm_rule.Rule.t -> string option
(** The item family an interface statement serves: its LHS item, or the
    first RHS item for P-triggered forms. *)

val restates : declared:Cm_rule.Rule.t list -> Cm_rule.Rule.t -> bool
(** An interface statement in a rule file adds to the declared set unless
    it restates one: [restates ~declared r] holds when [r] is an
    interface statement of a kind and base some statement of [declared]
    already offers — the same interface, not a second channel. *)
