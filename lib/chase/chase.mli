(** Constraints as dependencies, and the chase that repairs them.

    The paper's repair actions are hand-written per rule (§3.2); this
    module generalizes them following the classical dependency view
    (Cruz-Filipe et al., "Integrity Constraints for General-Purpose
    Knowledge Bases"): a constraint is a {e tuple-generating dependency}
    (TGD, [body -> head atoms]) or an {e equality-generating dependency}
    (EGD, [body -> equalities]), and the {e chase} derives the minimal
    repair of an instance that violates it — inserting facts with
    labelled nulls for existential variables, or merging nulls forced
    equal by an EGD.

    {b Surface syntax} (CM-RID [dependency] lines, parsed by {!parse}):

    {v
    dependency copy_dep: Salary1(n, s) -> Salary2(n, s)
    dependency has_mgr:  Emp(n, s) -> Mgr(n, m)            # m existential
    dependency fd:       Emp(n, s) && Emp(n, s2) -> s == s2
    v}

    Atoms follow the {e value-last convention}: [Base(p1, …, pk, v)]
    states that item [Base(p1, …, pk)] exists and holds value [v] — an
    item declared with [k] parameters takes [k + 1] atom arguments.
    Terms are rule-language variables and constants; head variables
    absent from the body are existentially quantified.

    {b Static analysis.}  {!special_cycles} decides {e weak acyclicity}
    (Fagin et al.): build the position graph (one node per (base, index)
    pair; a TGD adds ordinary edges body-position → head-position for
    each universal variable and ⁎-marked {e special} edges into every
    existential position), run Tarjan SCC ({!Cm_util.Graph}, shared with
    the CON passes), and report every component a special edge stays
    inside — on weakly-acyclic programs the chase terminates on every
    instance.  {!interaction_cycles} flags EGD/TGD feedback loops where
    an EGD can merge nulls a TGD created and re-enable it — restricted-
    chase termination becomes order-dependent there.

    {b Execution.}  {!chase} runs the restricted (standard) chase over
    an {!Instance} — a dependency fires only on {e active} triggers,
    i.e. homomorphisms of its body that no extension already satisfies —
    and returns the repairs applied, in firing order.  {!to_rules}
    compiles a weakly-acyclic TGD program to ordinary CM rules so the
    existing Shell/dispatch/guarantee pipeline executes chase repairs
    unchanged. *)

type term = Tvar of string | Tconst of Cm_rule.Value.t

type atom = { a_base : string; a_args : term list }

type tgd = { t_body : atom list; t_head : atom list }

type egd = { e_body : atom list; e_eqs : (term * term) list }

type form = Tgd of tgd | Egd of egd

type dep = { d_label : string; d_form : form }

val parse : ?label:string -> string -> (dep, string) result
(** Parse one dependency from its surface text [\[label:\] body -> head].
    The body is a [&&]-conjunction of item atoms; the head is either all
    atoms (TGD) or all [==] equalities between body terms (EGD).
    [?label] names the dependency when the text carries no [label:]
    prefix (default ["dep"]).  Errors are human-readable one-liners. *)

val to_string : dep -> string
(** Round-trips with {!parse} (canonical spacing). *)

val atom_to_string : atom -> string

val kind_name : dep -> string
(** ["tgd"] or ["egd"] — for machine-readable reports. *)

val body_atoms : dep -> atom list
val head_atoms : dep -> atom list
(** [] for EGDs. *)

val existential_vars : tgd -> string list
(** Head variables not bound by the body, in first-occurrence order. *)

val body_bases : dep -> string list
(** Sorted, deduplicated bases of the body atoms. *)

val written_bases : dep -> string list
(** Sorted bases a repair for this dependency writes: head-atom bases
    (TGD), or bases of body atoms carrying an equated variable (EGD). *)

(** {1 The dependency (position) graph and weak acyclicity} *)

type position = { p_base : string; p_index : int }
(** Argument position [p_index] (0-based) of base [p_base]. *)

val position_to_string : position -> string
(** ["Base.i"]. *)

type edge = {
  e_src : position;
  e_dst : position;
  e_special : bool;  (** ⁎ edge into an existential position *)
  e_dep : string;  (** label of the TGD contributing the edge *)
}

val dependency_graph : dep list -> edge list
(** All position-graph edges, sorted and deduplicated (EGDs contribute
    none). *)

type cycle = {
  c_positions : position list;  (** the SCC, sorted *)
  c_labels : string list;
      (** labels of the dependencies whose edges stay inside the SCC,
          sorted and deduplicated *)
}

val special_cycles : dep list -> cycle list
(** The witnesses against weak acyclicity: every SCC of the position
    graph that keeps a special edge inside itself.  [[]] iff the program
    is weakly acyclic.  Deterministic. *)

val weakly_acyclic : dep list -> bool

val interaction_cycles : dep list -> dep list list
(** Dependency-level feedback loops that weak acyclicity does not rule
    out: SCCs of the graph with an edge [d1 → d2] whenever a base [d1]
    writes occurs in [d2]'s body, kept when the SCC is cyclic and mixes
    an EGD with an existential TGD (the EGD can merge nulls the TGD
    creates and re-fire it).  Each group lists its members in
    declaration order; groups are ordered by first member. *)

(** {1 Instances and the chase} *)

type const = Cval of Cm_rule.Value.t | Lnull of int
(** A database constant or a labelled null [⊥n]. *)

type fact = { f_base : string; f_args : const list }

val fact_to_string : fact -> string

module Instance : sig
  type t

  val create : unit -> t

  val add : t -> fact -> bool
  (** [false] when the fact was already present. *)

  val mem : t -> fact -> bool
  val size : t -> int

  val facts : t -> fact list
  (** Grouped by base (sorted), insertion order within each base. *)

  val copy : t -> t

  val load_database :
    t ->
    base_of_table:(string -> string option) ->
    Cm_relational.Database.t ->
    (unit, string) result
  (** Add one fact per row of every table [base_of_table] maps to a
      base, columns in table order with the value column last — the
      value-last convention lines up with items reading one column keyed
      by the rest.  Deterministic: tables sorted by name, rows in
      insertion order. *)
end

type repair =
  | Insert of { by : string; fact : fact }
      (** TGD [by] inserted [fact] (existential positions carry fresh
          labelled nulls) *)
  | Merge of { by : string; null_ : int; into : const }
      (** EGD [by] merged [⊥null_] into [into] everywhere *)

val repair_to_string : repair -> string

type outcome = { rounds : int; repairs : repair list }
(** [rounds] counts full passes over the program, including the final
    quiescent one; [repairs] is in firing order. *)

val chase : ?max_rounds:int -> dep list -> Instance.t -> (outcome, string) result
(** Run the restricted chase to fixpoint, mutating the instance.
    [Error] when two distinct constants are forced equal by an EGD (the
    instance is irreparable) or [?max_rounds] (default 1000) passes do
    not reach a fixpoint.  Deterministic: dependencies fire in program
    order, triggers in instance order, labelled nulls are numbered in
    creation order. *)

(** {1 Compiling dependencies to CM rules} *)

val to_rules : ?delta:float -> dep list -> (Cm_rule.Rule.t list, string) result
(** Compile a weakly-acyclic, EGD-free program to ordinary CM rules, one
    per TGD, labelled with the dependency's label: the leading body atom
    becomes the [N(Base(params), v)] trigger, the remaining body atoms
    become LHS-condition conjuncts [Base(params) == v] (binding their
    value variables left to right), and each head atom becomes a
    [WR(Base(params), v)] step with δ [?delta] (default 5) — an
    existential head value compiles to a [!E(Base(params))]-guarded
    write of [null] (create-if-absent); an existential in a parameter
    position is an error, as is a join parameter not bound when its atom
    is evaluated.  Refuses non-weakly-acyclic programs outright. *)
