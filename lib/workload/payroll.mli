(** The paper's running example (§4.2): salaries replicated between a
    San Francisco branch database A and the New York headquarters
    database B, constraint salary1(n) = salary2(n) for every employee n
    in A.

    Both databases are relational sources; A's interface is configurable
    — [`Notify] (trigger-based, the paper's first scenario),
    [`Conditional of threshold] (10 %-change filtering), or [`Read_only]
    (the paper's §4.2.3 change of interface, which forces polling).
    B always offers write + read.

    The federation is one CM-RID description (§4.1) — both sources,
    their items, [init] statements and A's notify timing — built by
    {!Cm_core.Toolkit.attach}; [examples/config/payroll.cmrid] is the
    same federation at three employees. *)

type source_mode = Notify | Conditional of float | Read_only

type t = {
  system : Cm_core.System.t;
  shell_a : Cm_core.Shell.t;
  shell_b : Cm_core.Shell.t;
  tr_a : Cm_core.Tr_relational.t;
  tr_b : Cm_core.Tr_relational.t;
  db_a : Cm_relational.Database.t;
  db_b : Cm_relational.Database.t;
  employees : string list;
  initial : (Cm_rule.Item.t * Cm_rule.Value.t) list;
}

val site_a : string
val site_b : string

val locator : Cm_rule.Item.locator
(** The description's locator: Salary1(…) → {!site_a}, everything else
    → {!site_b} — the locator the internally-built system uses; pass it
    to an externally-built system (e.g. a shard fabric) handed in via
    [?system]. *)

val create :
  ?config:Cm_core.System.Config.t ->
  ?system:Cm_core.System.t ->
  ?employees:int ->
  ?mode:source_mode ->
  ?notify_latency:float ->
  ?notify_delta:float ->
  unit ->
  t
(** Defaults: 10 employees ("e1"…), [`Notify], 1 s notification latency
    with a 5 s bound; reads and writes take the translator's default
    0.2 s with a 1 s bound.  [config] (default
    {!Cm_core.System.Config.default}) carries the seed, network model,
    reliable-delivery layer, durability mode, and observability registry
    (see {!Cm_core.System.create}).  [system] substitutes a pre-built
    system (created over {!locator}) for the internally-constructed one;
    [config] is then ignored — the sharded golden suite uses this to run
    the same workload through a fabric-owned system. *)

val source_item : string -> Cm_rule.Item.t
(** salary1(emp). *)

val target_item : string -> Cm_rule.Item.t

val source_pattern : Cm_rule.Expr.t
(** The Salary1(n) family pattern. *)

val target_pattern : Cm_rule.Expr.t

val install_propagation : ?delta:float -> t -> unit
(** The §4.2.2 strategy: [N(salary1(n), b) →δ WR(salary2(n), b)]. *)

val install_polling : ?delta:float -> period:float -> t -> unit
(** The §4.2.3 polling strategy, one poller per employee (read requests
    must name concrete items). *)

val update_salary : t -> emp:string -> salary:int -> unit
(** Spontaneous application update on A, at the current simulated time.
    @raise Failure on database errors. *)

val schedule_update : t -> at:float -> emp:string -> salary:int -> unit

val random_updates :
  t -> mean_interarrival:float -> until:float -> unit
(** Poisson stream of salary changes across random employees. *)

val salary_at : t -> [ `A | `B ] -> string -> Cm_rule.Value.t

val guarantees : ?kappa:float -> t -> emp:string -> Cm_core.Guarantee.t list
(** The four §3.3.1 guarantees for one employee's copy constraint. *)
