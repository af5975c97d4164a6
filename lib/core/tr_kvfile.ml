module Kvfile = Cm_sources.Kvfile
open Cm_rule

type item_binding = {
  base : string;
  params : string list;
  key_template : string;
  writable : bool;
}

type t = {
  fs : Kvfile.t;
  bindings : (string, item_binding) Hashtbl.t;
  port : Cmi.port;
  cmi : Cmi.t;
}

let default_latency = 0.1
let health t = Kvfile.health t.fs
let cmi t = t.cmi
let interface_rules t = t.cmi.Cmi.interface_rules

let substitute template names values =
  let buf = Buffer.create (String.length template) in
  let n = String.length template in
  let i = ref 0 in
  while !i < n do
    if template.[!i] = '$' then begin
      incr i;
      let start = !i in
      while
        !i < n
        && (let c = template.[!i] in
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
            || c = '_')
      do
        incr i
      done;
      let name = String.sub template start (!i - start) in
      match List.assoc_opt name (List.combine names values) with
      | Some (Value.Str s) -> Buffer.add_string buf s
      | Some v -> Buffer.add_string buf (Value.to_string v)
      | None -> invalid_arg ("Tr_kvfile: unbound key parameter $" ^ name)
    end
    else begin
      Buffer.add_char buf template.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let key_in bindings (item : Item.t) =
  match Hashtbl.find_opt bindings item.Item.base with
  | None -> None
  | Some b -> Some (substitute b.key_template b.params item.Item.params)

let key_of t item = key_in t.bindings item

let decode data = Option.value (Value.of_string_literal data) ~default:(Value.Str data)

let encode = function
  | Value.Str s -> s
  | v -> Value.to_string v

let interfaces ~site ~delta b =
  let pattern = Interface.family b.base b.params in
  let id = Cmi.rule_id ~site b.base in
  Interface.read ~id:(id "read") ~delta pattern
  ::
  (if b.writable then
     [
       Interface.write ~id:(id "write") ~delta pattern;
       Interface.delete ~id:(id "delete") ~delta pattern;
     ]
   else [])

let create ~sim ~fs ~site ~emit ~report ?(latency = default_latency) ?delta bindings =
  let table = Cmi.index ~what:"Tr_kvfile" (fun b -> b.base) bindings in
  let port =
    Cmi.port ~sim ~site ~emit ~report ~health:(Kvfile.health fs)
      ~latency:(Cmi.uniform latency) ?delta:(Option.map Cmi.uniform delta) ()
  in
  (* The native operation on a writable item's file, bound on arrival. *)
  let on_file op (item : Item.t) =
    match Hashtbl.find_opt table item.Item.base, key_in table item with
    | Some { writable = true; _ }, Some key -> Some (op key)
    | _ -> None
  in
  let cmi =
    Cmi.make port
      ~bases:(List.map (fun b -> b.base) bindings)
      ~interfaces:(List.concat_map (interfaces ~site ~delta:port.Cmi.delta.read) bindings)
      ~read:(fun item ->
        Option.map decode (Option.bind (key_in table item) (Kvfile.read fs)))
      ~write:(on_file (fun key v -> Kvfile.write fs key (encode v); Ok ()))
      ~delete:(on_file (fun key () -> ignore (Kvfile.remove fs key); Ok ()))
      ()
  in
  { fs; bindings = table; port; cmi }

let write_app t item v =
  match key_of t item with
  | None -> invalid_arg ("Tr_kvfile.write_app: unknown item " ^ Item.to_string item)
  | Some key ->
    let old_value = Option.fold ~none:Value.Null ~some:decode (Kvfile.read t.fs key) in
    Kvfile.write t.fs key (encode v);
    Cmi.changed t.port ~notify:false item ~old_value ~new_value:v

let remove_app t item =
  match key_of t item with
  | None -> invalid_arg ("Tr_kvfile.remove_app: unknown item " ^ Item.to_string item)
  | Some key ->
    ignore (Kvfile.remove t.fs key);
    ignore (t.port.Cmi.emit (Event.del item) ~kind:Event.Spontaneous)
