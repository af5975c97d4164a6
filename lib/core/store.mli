(** CM-Shell private data store.

    Strategies may keep auxiliary data in the shell itself — caches like
    [Cx], monitor flags like [Flag]/[Tb] (paper §3.2, §6.3).  Writes go
    through the shell so they appear in the trace as [W] events on
    CM-local items; reads are synchronous and consistent because the
    store is single-writer under the shell's control (§7.1). *)

type t

val create : unit -> t
val get : t -> Cm_rule.Item.t -> Cm_rule.Value.t option
val set : t -> Cm_rule.Item.t -> Cm_rule.Value.t -> unit
val clear : t -> unit
(** Drop everything.  Models the loss of volatile memory when a site
    crashes; {!Cm_core.Recovery} rebuilds the contents from the journal. *)
