(** Rules: the common specification form for interfaces and strategies.

    The general form (Appendix A.1) is

    {v E0 ∧ C0  →δ  C1?E1, C2?E2, …, Ck?Ek v}

    If an event matching template [E0] occurs at time [t] with condition
    [C0] true, then there exist times [t ≤ t1 < … < tk ≤ t + δ] such that
    at each [ti] condition [Ci] is evaluated and, if true, an event
    matching [Ei] occurs.  All right-hand-side events share one site, and
    every condition refers only to data local to that site (§3.2) — this
    is what lets strategies execute without global transactions (§7.2).

    Interface statements (§3.1) are rules whose conditions sit on the
    left ([E ∧ C →δ E']); the same representation serves both by keeping
    [C0] on the LHS and per-step guards on the RHS. *)

type step = { guard : Expr.t; template : Template.t }
(** One right-hand-side element; [guard] is [Const (Bool true)] when the
    condition was omitted. *)

type rhs =
  | False  (** the prohibition form [E → ℱ] *)
  | Steps of step list

type t = {
  id : string;  (** unique label, used in event provenance and routing *)
  lhs : Template.t;
  lhs_cond : Expr.t;
  delta : float;  (** time bound δ; [infinity] when unspecified *)
  rhs : rhs;
}

val make :
  ?id:string ->
  ?lhs_cond:Expr.t ->
  ?delta:float ->
  lhs:Template.t ->
  rhs ->
  t
(** Missing [id]s are generated ("r1", "r2", …); default [lhs_cond] is
    true; default [delta] is [infinity].
    @raise Invalid_argument if [delta] is negative, the LHS is ℱ, or the
    RHS is empty. *)

val rhs_steps : t -> step list
(** [] for [False]. *)

val duplicate_id : t list -> string option
(** The first id that labels two rules of a program, if any.  Ids must
    be unique within a program: firings, provenance and the journal name
    rules by id. *)

val lhs_site : t -> Item.locator -> Item.site option
(** Site responsible for detecting the trigger: the site of the LHS
    template's item, or of the first RHS item for item-free LHS forms
    such as [P(p)] (the paper assigns polling rules to the shell that
    owns the polled item). *)

val rhs_site : t -> Item.locator -> Item.site option
(** The single site of the right-hand side.  [None] when no RHS template
    mentions an item (pure CM-internal chaining). *)

val check_well_formed : t -> Item.locator -> (unit, string) result
(** Static checks: RHS events all at one site; RHS parameters bound by
    the LHS template, the LHS condition, or a preceding binding guard;
    standard-name arities respected (enforced at template construction).
    The toolkit refuses ill-formed strategy files. *)

val free_vars : t -> string list
val to_string : t -> string
val pp : Format.formatter -> t -> unit
