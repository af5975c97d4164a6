type t = { base : string; params : Value.t list }

let make ?(params = []) base = { base; params }

let compare a b =
  match String.compare a.base b.base with
  | 0 -> List.compare Value.compare a.params b.params
  | c -> c

let equal a b = compare a b = 0

let rec add_params buf = function
  | [] -> ()
  | v :: rest ->
    Buffer.add_string buf ", ";
    Buffer.add_string buf (Value.to_string v);
    add_params buf rest

let add_to_buffer buf t =
  Buffer.add_string buf t.base;
  match t.params with
  | [] -> ()
  | v :: rest ->
    Buffer.add_char buf '(';
    Buffer.add_string buf (Value.to_string v);
    add_params buf rest;
    Buffer.add_char buf ')'

let to_string t =
  match t.params with
  | [] -> t.base
  | _ ->
    let buf = Buffer.create 16 in
    add_to_buffer buf t;
    Buffer.contents buf

let hash t =
  List.fold_left (fun h v -> (h * 31) + Value.hash v) (Hashtbl.hash t.base) t.params
  land max_int

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

type site = string
type locator = t -> site
