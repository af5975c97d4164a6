module Objstore = Cm_sources.Objstore
module Health = Cm_sources.Health
open Cm_rule

type notify_mode =
  | No_notify
  | Plain
  | Filtered of {
      filter : old_value:Value.t -> new_value:Value.t -> bool;
      filter_expr : Expr.t;
    }

type item_binding = {
  base : string;
  cls : string;
  attr : string;
  writable : bool;
  notify : notify_mode;
}

type t = { store : Objstore.t; bindings : (string, item_binding) Hashtbl.t; cmi : Cmi.t }

let health t = Objstore.health t.store
let cmi t = t.cmi
let interface_rules t = t.cmi.Cmi.interface_rules

let id_of_item (item : Item.t) =
  match item.Item.params with
  | [ Value.Str id ] -> id
  | [] -> "singleton"
  | [ v ] -> Value.to_string v
  | _ -> invalid_arg ("Tr_objstore: too many parameters on " ^ Item.to_string item)

let read store bindings (item : Item.t) =
  match Hashtbl.find_opt bindings item.Item.base, item.Item.params with
  | Some b, [ Value.Str id ] -> Objstore.get_attr store ~cls:b.cls ~id ~attr:b.attr
  | Some b, [] -> Objstore.get_attr store ~cls:b.cls ~id:"singleton" ~attr:b.attr
  | _ -> None

let interfaces ~site ~(delta : Cmi.timing) b =
  let pattern =
    if b.cls = "" then Interface.plain b.base else Interface.family b.base [ "n" ]
  in
  let id = Cmi.rule_id ~site b.base in
  List.concat
    [
      [ Interface.read ~id:(id "read") ~delta:delta.read pattern ];
      (if b.writable then [ Interface.write ~id:(id "write") ~delta:delta.write pattern ]
       else []);
      (match b.notify with
       | No_notify -> []
       | Plain -> [ Interface.notify ~id:(id "notify") ~delta:delta.notify pattern ]
       | Filtered { filter_expr; _ } ->
         [
           Interface.conditional_notify ~id:(id "notify") ~delta:delta.notify
             ~condition:filter_expr pattern;
         ]);
    ]

(* Subscribe unfiltered so spontaneous-write ground truth (Ws) is always
   recorded; the notify condition then decides whether an N is sent —
   semantically the in-source filtering of §3.1.1, since translator and
   source are co-located and the saved communication is the CM hop. *)
let subscribe port store self_write b =
  let filter = match b.notify with Filtered { filter; _ } -> Some filter | _ -> None in
  let callback ~id ~old_value ~new_value =
    if not !self_write then
      let item = Item.make b.base ~params:(if b.cls = "" then [] else [ Value.Str id ]) in
      Cmi.changed port ~notify:true ?filter item ~old_value ~new_value
  in
  ignore (Objstore.subscribe store ~cls:b.cls ~attr:b.attr callback)

let create ~sim ~store ~site ~emit ~report ?(latency = 0.1) ?(notify_latency = 0.5)
    ?delta ?notify_delta bindings =
  let table = Cmi.index ~what:"Tr_objstore" (fun b -> b.base) bindings in
  let latency = { (Cmi.uniform latency) with Cmi.notify = notify_latency } in
  let default = Cmi.default_deltas latency in
  let delta =
    {
      (Cmi.uniform (Option.value delta ~default:default.Cmi.read)) with
      Cmi.notify = Option.value notify_delta ~default:default.Cmi.notify;
    }
  in
  let port =
    Cmi.port ~sim ~site ~emit ~report ~health:(Objstore.health store) ~latency ~delta ()
  in
  let self_write = ref false in
  let write (item : Item.t) =
    match Hashtbl.find_opt table item.Item.base with
    | Some ({ writable = true; _ } as b) ->
      Some
        (fun v ->
          let id = id_of_item item in
          self_write := true;
          let ok = Objstore.set_attr store ~cls:b.cls ~id ~attr:b.attr v in
          self_write := false;
          if ok then Ok ()
          else begin
            Logs.warn (fun m ->
                m "translator %s: object for %s missing" site (Item.to_string item));
            Error Msg.Logical
          end)
    | _ -> None
  in
  let cmi =
    Cmi.make port
      ~bases:(List.map (fun b -> b.base) bindings)
      ~interfaces:(List.concat_map (interfaces ~site ~delta) bindings)
      ~read:(read store table) ~write ()
  in
  Hashtbl.iter
    (fun _ b ->
      match b.notify with
      | No_notify -> ()
      | Plain | Filtered _ -> subscribe port store self_write b)
    table;
  { store; bindings = table; cmi }

let set_app t item v =
  Health.check (health t) ~name:"objstore";
  match Hashtbl.find_opt t.bindings item.Item.base with
  | None -> invalid_arg ("Tr_objstore.set_app: unknown item " ^ Item.to_string item)
  | Some b -> Objstore.set_attr t.store ~cls:b.cls ~id:(id_of_item item) ~attr:b.attr v
