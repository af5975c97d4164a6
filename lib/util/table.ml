type t = { title : string; columns : string list; mutable rows : string list list }

let create ~title ~columns = { title; columns; rows = [] }

let fit ncols row =
  let rec go i = function
    | [] -> if i < ncols then "" :: go (i + 1) [] else []
    | x :: rest -> if i >= ncols then [] else x :: go (i + 1) rest
  in
  go 0 row

let add_row t row = t.rows <- fit (List.length t.columns) row :: t.rows

let render t =
  let rows = List.rev t.rows in
  let all = t.columns :: rows in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  let note_widths row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter note_widths all;
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  let emit row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit t.columns;
  let total = Array.fold_left ( + ) 0 widths + (2 * (ncols - 1)) in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()

let cell_f ?(digits = 2) v = Printf.sprintf "%.*f" digits v
let cell_pct v = Printf.sprintf "%.1f%%" (v *. 100.0)
let cell_bool b = if b then "yes" else "no"
