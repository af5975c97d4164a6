type t = { mutable data : Cm_rule.Value.t Cm_rule.Item.Map.t }

let create () = { data = Cm_rule.Item.Map.empty }

let get t item = Cm_rule.Item.Map.find_opt item t.data

let set t item v = t.data <- Cm_rule.Item.Map.add item v t.data

let remove t item = t.data <- Cm_rule.Item.Map.remove item t.data


let bindings t = Cm_rule.Item.Map.bindings t.data

let clear t = t.data <- Cm_rule.Item.Map.empty
