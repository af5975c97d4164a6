module Whois = Cm_sources.Whois
open Cm_rule

type item_binding = { base : string; field : string }

type t = {
  server : Whois.t;
  bindings : (string, item_binding) Hashtbl.t;
  port : Cmi.port;
  cmi : Cmi.t;
}

let health t = Whois.health t.server
let cmi t = t.cmi
let interface_rules t = t.cmi.Cmi.interface_rules

let name_of_item (item : Item.t) =
  match item.Item.params with
  | [ Value.Str name ] -> Some name
  | [ v ] -> Some (Value.to_string v)
  | _ -> None

let read server bindings (item : Item.t) =
  match Hashtbl.find_opt bindings item.Item.base, name_of_item item with
  | Some b, Some name ->
    Option.bind (Whois.query server name) (fun fields ->
        Option.map (fun s -> Value.Str s) (List.assoc_opt b.field fields))
  | _ -> None

let create ~sim ~server ~site ~emit ~report ?(latency = 0.3) ?delta bindings =
  let table = Cmi.index ~what:"Tr_whois" (fun b -> b.base) bindings in
  let port =
    Cmi.port ~sim ~site ~emit ~report ~health:(Whois.health server)
      ~latency:(Cmi.uniform latency) ?delta:(Option.map Cmi.uniform delta) ()
  in
  let read_interface b =
    Interface.read ~id:(Cmi.rule_id ~site b.base "read") ~delta:port.Cmi.delta.read
      (Interface.family b.base [ "n" ])
  in
  let cmi =
    Cmi.make port
      ~bases:(List.map (fun b -> b.base) bindings)
      ~interfaces:(List.map read_interface bindings)
      ~read:(read server table) ()
  in
  { server; bindings = table; port; cmi }

(* Administrative operations record ground truth for every bound field. *)

let record_ws t ~name ~field ~old_value ~value =
  Hashtbl.iter
    (fun base b ->
      if String.equal b.field field then
        Cmi.changed t.port ~notify:false
          (Item.make base ~params:[ Value.Str name ])
          ~old_value ~new_value:(Value.Str value))
    t.bindings

let register_app t ~name ~fields =
  Whois.register t.server ~name ~fields;
  List.iter
    (fun (field, value) -> record_ws t ~name ~field ~old_value:Value.Null ~value)
    fields

let update_app t ~name ~field ~value =
  let old_value =
    match Whois.query t.server name with
    | Some fields ->
      Option.value
        (Option.map (fun s -> Value.Str s) (List.assoc_opt field fields))
        ~default:Value.Null
    | None -> Value.Null
  in
  let changed = Whois.update_field t.server ~name ~field ~value in
  if changed then record_ws t ~name ~field ~old_value ~value;
  changed

let unregister_app t ~name =
  let existed = Whois.unregister t.server ~name in
  if existed then
    Hashtbl.iter
      (fun base _ ->
        let item = Item.make base ~params:[ Value.Str name ] in
        ignore (t.port.Cmi.emit (Event.del item) ~kind:Event.Spontaneous))
      t.bindings;
  existed
