(** Configuration-driven system assembly.

    [build] turns a parsed {!Cmrid.t} into a live {!System.t}: one
    CM-Shell per declared site, a fresh Raw Information Source per
    [source] block (initialized by its [init] statements), a configured
    CM-Translator attached to each, and the item locator derived from
    the declarations.  This is the toolkit workflow of §4.1 end to end:
    after [build], pass {!System.interface_rules} — what the sources
    offer — to {!Suggest.for_constraint} for candidates with their
    derived guarantees, and {!System.install} the chosen strategy. *)

type built = {
  system : System.t;
  shells : (string * Shell.t) list;  (** site → shell *)
  relational : (string * Tr_relational.t) list;  (** site → translator *)
  kvfiles : (string * Tr_kvfile.t) list;
  databases : (string * Cm_relational.Database.t) list;
  stores : (string * Cm_sources.Kvfile.t) list;
}

val attach : System.t -> Cmrid.t -> (built, string) result
(** Everything [build] does after creating the system, over an existing
    one: shells (created in declaration order), sources, translators and
    the configuration's rules.
    Fails on bad SQL in item templates or [init] statements and on
    duplicate item bases.  The workloads build their federations this
    way, so a system they are handed (a shard fabric's, say) keeps its
    own configuration and locator. *)

val build : ?config:System.Config.t -> Cmrid.t -> (built, string) result
(** [attach] over [System.create ~config (Cmrid.locator cmrid)].  The
    {!System.Config.t} (default {!System.Config.default}) carries the
    seed, network latency/fault model, optional reliable-delivery layer,
    and optional observability registry (see {!System.create}). *)

val item_interfaces : Cmrid.source_decl -> Cmrid.item_decl -> Cm_rule.Rule.t list
(** The interface statements the translator {!build} configures for this
    source reports for this item — same ids, δ bounds and bodies —
    derived without building anything.  The static checker sees a
    configuration through this function. *)

val interface_summary : built -> (string * string list) list
(** For each item base ({!Interface.served_base}), the interface kinds
    its statements offer, in reporting order — what [cmtool config]
    prints. *)
