(** CM-Translator for flat key/value file stores.

    The file system offers read and write but {b no change notification},
    so the only interfaces this translator reports are read, write and
    delete — forcing polling strategies on the CM (paper §4.2.3's second
    scenario).  Because the source cannot observe its own changes, the
    ground-truth [Ws] events for spontaneous application writes are
    recorded by {!write_app} / {!remove_app}, which workload drivers must
    use instead of touching the {!Cm_sources.Kvfile.t} directly.

    Items map to file keys through key templates: binding
    [("Phone", ["n"], "phone.$n")] stores phone("ann") in file
    ["phone.ann"].  Scalars are encoded as their literal syntax. *)

type item_binding = {
  base : string;
  params : string list;
  key_template : string;  (** [$param] substitution *)
  writable : bool;
}

type t

val create :
  sim:Cm_sim.Sim.t ->
  fs:Cm_sources.Kvfile.t ->
  site:string ->
  emit:Cmi.emit ->
  report:Cmi.failure_report ->
  ?latency:float ->
  ?delta:float ->
  item_binding list ->
  t
(** [latency] (default {!default_latency}) applies to each operation;
    [delta] (default 5 × latency) is the reported interface bound. *)

val default_latency : float
(** 0.1 s. *)

val cmi : t -> Cmi.t
val interface_rules : t -> Cm_rule.Rule.t list
val health : t -> Cm_sources.Health.t

val interfaces : site:string -> delta:float -> item_binding -> Cm_rule.Rule.t list
(** One binding's interface statements, as a translator at [site] with
    bound [delta] reports them — computed without a file store. *)

val key_of : t -> Cm_rule.Item.t -> string option
(** The file key an item maps to. *)

val write_app : t -> Cm_rule.Item.t -> Cm_rule.Value.t -> unit
(** Spontaneous application write: performs the native write and records
    the [Ws] ground truth.  @raise Health.Unavailable when down. *)

val remove_app : t -> Cm_rule.Item.t -> unit
(** Spontaneous removal; records [DEL]. *)
