(* Process-wide instrument registry + span tracing for one system run.
   Everything is deterministic: instruments are keyed by (name, sorted
   labels), snapshots are emitted in sorted order, span ids are
   allocated sequentially, and nothing here consumes the simulation
   PRNG — enabling observability cannot change a seeded run. *)

module Stats = Cm_util.Stats

type labels = (string * string) list

(* A call site that passes its labels already in canonical order (keys
   strictly ascending) gets its own list back, sorted by nothing. *)
let rec ascending = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b < 0 && ascending rest
  | [ _ ] | [] -> true

let canon labels =
  if ascending labels then labels
  else List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

type instrument =
  | Counter of int ref
  | Gauge of float ref
  | Series of float list ref  (* reverse chronological *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  span_name : string;
  span_labels : labels;
  started : float;
  mutable ended : float option;
}

type t = {
  enabled : bool;
  instruments : (string * labels, instrument) Hashtbl.t;
  mutable span_tab : span array;  (* span [id] at [id - 1]; the rest [no_span] *)
  mutable next_span : int;
}

let no_span =
  { id = 0; parent = 0; span_name = ""; span_labels = []; started = 0.0; ended = None }

let create () =
  {
    enabled = true;
    instruments = Hashtbl.create 64;
    span_tab = [||];
    next_span = 1;
  }

let noop =
  { enabled = false; instruments = Hashtbl.create 1; span_tab = [||]; next_span = 1 }

let enabled t = t.enabled

(* -- handles -- *)

(* A handle names one instrument by its (name, canonical labels) key,
   built once.  The registry cell is found or created on first use, so a
   handle resolved but never used adds no snapshot row; after that a
   bump is a field read and a store.  On a disabled registry a counter
   gets a private cell that no registry holds, so it still counts; a
   gauge or series gets the shared [dead] handle, which every call
   ignores. *)
type 'a handle = {
  h_obs : t;
  h_key : string * labels;
  mutable h_cell : 'a option;
}

let handle ~dead ?(labels = []) t name =
  if t.enabled then { h_obs = t; h_key = (name, canon labels); h_cell = None }
  else dead

(* The one find-or-create and kind check behind every recording call. *)
let cell h ~op ~kind ~make ~cast =
  match h.h_cell with
  | Some c -> c
  | None ->
    let inst =
      match Hashtbl.find_opt h.h_obs.instruments h.h_key with
      | Some i -> i
      | None ->
        let i = make () in
        Hashtbl.replace h.h_obs.instruments h.h_key i;
        i
    in
    (match cast inst with
     | Some c ->
       h.h_cell <- Some c;
       c
     | None -> invalid_arg ("Obs." ^ op ^ ": " ^ fst h.h_key ^ " is not a " ^ kind))

module Counter = struct
  type nonrec t = int ref handle

  let make ?(labels = []) t name =
    if t.enabled then { h_obs = t; h_key = (name, canon labels); h_cell = None }
    else { h_obs = t; h_key = (name, []); h_cell = Some (ref 0) }

  let cast = function Counter r -> Some r | _ -> None
  let fresh () = Counter (ref 0)

  let incr ?(by = 1) h =
    let r = cell h ~op:"incr" ~kind:"counter" ~make:fresh ~cast in
    r := !r + by

  (* An enabled handle not yet bumped reads the registry's cell, if
     another handle or a one-shot call made it, without creating one. *)
  let value h =
    match h.h_cell with
    | Some r -> !r
    | None -> (
      match Hashtbl.find_opt h.h_obs.instruments h.h_key with
      | Some (Counter r) -> !r
      | _ -> 0)
end

module Gauge = struct
  type nonrec t = float ref handle

  let dead = { h_obs = noop; h_key = ("", []); h_cell = None }
  let make ?labels t name = handle ~dead ?labels t name
  let cast = function Gauge r -> Some r | _ -> None
  let fresh () = Gauge (ref 0.0)

  let set h v =
    if h.h_obs.enabled then
      cell h ~op:"gauge" ~kind:"gauge" ~make:fresh ~cast := v
end

module Series = struct
  type nonrec t = float list ref handle

  let dead = { h_obs = noop; h_key = ("", []); h_cell = None }
  let make ?labels t name = handle ~dead ?labels t name
  let cast = function Series r -> Some r | _ -> None
  let fresh () = Series (ref [])

  let observe h v =
    if h.h_obs.enabled then begin
      let r = cell h ~op:"observe" ~kind:"series" ~make:fresh ~cast in
      r := v :: !r
    end
end

let incr ?by ?labels t name =
  if t.enabled then Counter.incr ?by (Counter.make ?labels t name)

let gauge ?labels t name v =
  if t.enabled then Gauge.set (Gauge.make ?labels t name) v

let observe ?labels t name v =
  if t.enabled then Series.observe (Series.make ?labels t name) v

let counter_value ?(labels = []) t name =
  match Hashtbl.find_opt t.instruments (name, canon labels) with
  | Some (Counter r) -> !r
  | _ -> 0

let counter_total t name =
  Hashtbl.fold
    (fun (n, _) i acc ->
      match i with Counter r when String.equal n name -> acc + !r | _ -> acc)
    t.instruments 0

let gauge_value ?(labels = []) t name =
  match Hashtbl.find_opt t.instruments (name, canon labels) with
  | Some (Gauge r) -> Some !r
  | _ -> None

let series_values ?(labels = []) t name =
  match Hashtbl.find_opt t.instruments (name, canon labels) with
  | Some (Series r) -> List.rev !r
  | _ -> []

(* -- spans -- *)

let span ?(parent = 0) ?(labels = []) t ~name ~at =
  if not t.enabled then 0
  else begin
    let id = t.next_span in
    if id > Array.length t.span_tab then begin
      let tab = Array.make (max 64 (2 * Array.length t.span_tab)) no_span in
      Array.blit t.span_tab 0 tab 0 (id - 1);
      t.span_tab <- tab
    end;
    t.span_tab.(id - 1) <-
      { id; parent; span_name = name; span_labels = canon labels;
        started = at; ended = None };
    t.next_span <- id + 1;
    id
  end

let end_span t ~id ~at =
  if id > 0 && id < t.next_span then t.span_tab.(id - 1).ended <- Some at

let spans t = List.init (t.next_span - 1) (fun i -> t.span_tab.(i))

(* -- snapshots -- *)

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Series_sample of Stats.summary

type row = { name : string; labels : labels; sample : sample }

let snapshot t =
  let rows =
    Hashtbl.fold
      (fun (name, labels) i acc ->
        let sample =
          match i with
          | Counter r -> Counter_sample !r
          | Gauge r -> Gauge_sample !r
          | Series r -> Series_sample (Stats.summary (List.rev !r))
        in
        { name; labels; sample } :: acc)
      t.instruments []
  in
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    rows

(* -- rendering (hand-rolled: no JSON dependency in the switch) -- *)

let buf_add_json_string buf s = Printf.bprintf buf "\"%s\"" (Cm_util.Json.escape s)

(* %.17g would print float noise; %g keeps snapshots stable and readable
   while still round-tripping every value the registry actually holds
   (counts and sim times). *)
let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.1f" v
  else Printf.sprintf "%g" v

let labels_to_json buf labels =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      buf_add_json_string buf k;
      Buffer.add_char buf ':';
      buf_add_json_string buf v)
    labels;
  Buffer.add_char buf '}'

(* Semicolon-joined and quoted so multi-label sets stay one CSV field;
   a quote inside the field is doubled (RFC 4180). *)
let labels_to_string labels =
  let field =
    String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels)
  in
  "\"" ^ String.concat "\"\"" (String.split_on_char '"' field) ^ "\""

let snapshot_to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i { name; labels; sample } ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  {\"name\":";
      buf_add_json_string buf name;
      Buffer.add_string buf ",\"labels\":";
      labels_to_json buf labels;
      (match sample with
       | Counter_sample n ->
         Buffer.add_string buf (Printf.sprintf ",\"type\":\"counter\",\"value\":%d" n)
       | Gauge_sample v ->
         Buffer.add_string buf ",\"type\":\"gauge\",\"value\":";
         Buffer.add_string buf (float_str v)
       | Series_sample s ->
         Buffer.add_string buf
           (Printf.sprintf ",\"type\":\"series\",\"n\":%d,\"mean\":%s,\"stddev\":%s,\"p50\":%s,\"p95\":%s,\"min\":%s,\"max\":%s"
              s.Stats.n (float_str s.Stats.mean) (float_str s.Stats.stddev)
              (float_str s.Stats.p50) (float_str s.Stats.p95)
              (float_str s.Stats.min) (float_str s.Stats.max)));
      Buffer.add_char buf '}')
    (snapshot t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let snapshot_to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "name,labels,type,value,n,mean,stddev,p50,p95,min,max\n";
  List.iter
    (fun { name; labels; sample } ->
      let ls = labels_to_string labels in
      match sample with
      | Counter_sample n ->
        Buffer.add_string buf (Printf.sprintf "%s,%s,counter,%d,,,,,,,\n" name ls n)
      | Gauge_sample v ->
        Buffer.add_string buf
          (Printf.sprintf "%s,%s,gauge,%s,,,,,,,\n" name ls (float_str v))
      | Series_sample s ->
        Buffer.add_string buf
          (Printf.sprintf "%s,%s,series,,%d,%s,%s,%s,%s,%s,%s\n" name ls
             s.Stats.n (float_str s.Stats.mean) (float_str s.Stats.stddev)
             (float_str s.Stats.p50) (float_str s.Stats.p95)
             (float_str s.Stats.min) (float_str s.Stats.max)))
    (snapshot t);
  Buffer.contents buf

let spans_to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf "  {\"id\":%d,\"parent\":%d,\"name\":" s.id s.parent);
      buf_add_json_string buf s.span_name;
      Buffer.add_string buf ",\"labels\":";
      labels_to_json buf s.span_labels;
      Buffer.add_string buf ",\"start\":";
      Buffer.add_string buf (float_str s.started);
      (match s.ended with
       | Some e ->
         Buffer.add_string buf ",\"end\":";
         Buffer.add_string buf (float_str e)
       | None -> Buffer.add_string buf ",\"end\":null");
      Buffer.add_char buf '}')
    (spans t);
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let spans_to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "id,parent,name,labels,start,end\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%s,%s,%s,%s\n" s.id s.parent s.span_name
           (labels_to_string s.span_labels)
           (float_str s.started)
           (match s.ended with Some e -> float_str e | None -> "")))
    (spans t);
  Buffer.contents buf
