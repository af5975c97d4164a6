type arg = Av of Value.t | Ai of Item.t

type desc = { name : string; args : arg list }

type kind =
  | Spontaneous
  | Generated of { rule_id : string; trigger : int }

type t = {
  id : int;
  time : float;
  site : Item.site;
  desc : desc;
  kind : kind;
}

let add_arg buf = function
  | Av v -> Buffer.add_string buf (Value.to_string v)
  | Ai item -> Item.add_to_buffer buf item

let rec add_args buf = function
  | [] -> ()
  | [ a ] -> add_arg buf a
  | a :: rest ->
    add_arg buf a;
    Buffer.add_string buf ", ";
    add_args buf rest

(* One buffer per text: the journal renders every event it records. *)
let desc_to_string d =
  let buf = Buffer.create 64 in
  Buffer.add_string buf d.name;
  Buffer.add_char buf '(';
  add_args buf d.args;
  Buffer.add_char buf ')';
  Buffer.contents buf

let to_string e =
  let origin =
    match e.kind with
    | Spontaneous -> "spontaneous"
    | Generated { rule_id; trigger } -> Printf.sprintf "by %s <- #%d" rule_id trigger
  in
  Printf.sprintf "#%d %.3f @%s %s [%s]" e.id e.time e.site (desc_to_string e.desc) origin

let pp fmt e = Format.pp_print_string fmt (to_string e)

let arg_equal a b =
  match a, b with
  | Av x, Av y -> Value.equal x y
  | Ai x, Ai y -> Item.equal x y
  | Av _, Ai _ | Ai _, Av _ -> false

let desc_equal a b =
  String.equal a.name b.name && List.equal arg_equal a.args b.args

let w item v = { name = "W"; args = [ Ai item; Av v ] }

let ws ?(old = Value.Null) item v = { name = "Ws"; args = [ Ai item; Av old; Av v ] }

let rr item = { name = "RR"; args = [ Ai item ] }
let r item v = { name = "R"; args = [ Ai item; Av v ] }
let n item v = { name = "N"; args = [ Ai item; Av v ] }
let wr item v = { name = "WR"; args = [ Ai item; Av v ] }
let p period = { name = "P"; args = [ Av (Value.Float period) ] }
let ins item = { name = "INS"; args = [ Ai item ] }
let del item = { name = "DEL"; args = [ Ai item ] }
let dr item = { name = "DR"; args = [ Ai item ] }

let known_arity = function
  | "W" | "R" | "N" | "WR" -> Some 2
  | "Ws" -> Some 3
  | "RR" | "P" | "INS" | "DEL" | "DR" -> Some 1
  | _ -> None

let item_of_desc d =
  List.find_map (function Ai item -> Some item | Av _ -> None) d.args

let written_value d =
  match d.name, d.args with
  | "W", [ Ai item; Av v ] -> Some (item, v)
  | "Ws", [ Ai item; _; Av v ] -> Some (item, v)
  | _ -> None
