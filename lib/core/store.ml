module Itbl = Hashtbl.Make (Cm_rule.Item)

(* Keyed under Item.equal/Item.hash, so a write to an existing item
   updates its binding in place. *)
type t = Cm_rule.Value.t Itbl.t

let create () = Itbl.create 64
let get t item = Itbl.find_opt t item
let set t item v = Itbl.replace t item v
let clear t = Itbl.reset t
