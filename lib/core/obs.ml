(* Process-wide instrument registry + span tracing for one system run.
   Everything is deterministic: instruments are keyed by (name, sorted
   labels), snapshots are emitted in sorted order, span ids are
   allocated sequentially, and nothing here consumes the simulation
   PRNG — enabling observability cannot change a seeded run. *)

module Stats = Cm_util.Stats

type labels = (string * string) list

let canon labels =
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) labels

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
  mutable span_log : span list;  (* reverse chronological *)
  mutable next_span : int;
}

let create () =
  {
    enabled = true;
    instruments = Hashtbl.create 64;
    span_log = [];
    next_span = 1;
  }

let noop =
  { enabled = false; instruments = Hashtbl.create 1; span_log = []; next_span = 1 }

let enabled t = t.enabled

(* -- handles -- *)

(* A handle names one instrument by its (name, canonical labels) key,
   built once.  The registry cell is found or created on first use, so a
   handle resolved but never used adds no snapshot row; after that a
   bump is a field read and a store.  A handle on a disabled registry is
   the shared [dead] one, which every bump ignores. *)
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

  let dead = { h_obs = noop; h_key = ("", []); h_cell = None }
  let make ?labels t name = handle ~dead ?labels t name
  let cast = function Counter r -> Some r | _ -> None
  let fresh () = Counter (ref 0)

  let incr ?(by = 1) h =
    if h.h_obs.enabled then begin
      let r = cell h ~op:"incr" ~kind:"counter" ~make:fresh ~cast in
      r := !r + by
    end
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
    t.next_span <- id + 1;
    t.span_log <-
      { id; parent; span_name = name; span_labels = canon labels;
        started = at; ended = None }
      :: t.span_log;
    id
  end

let end_span t ~id ~at =
  if t.enabled && id > 0 then
    match List.find_opt (fun s -> s.id = id) t.span_log with
    | Some s -> s.ended <- Some at
    | None -> ()

let spans t = List.rev t.span_log

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

(* Semicolon-joined and quoted so multi-label sets stay one CSV field. *)
let labels_to_string labels =
  Printf.sprintf "\"%s\""
    (String.concat ";"
       (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) labels))

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

(* -- log correlation -- *)

let site_tag : string Logs.Tag.def =
  Logs.Tag.def "site" ~doc:"CM-Shell site" Format.pp_print_string

let time_tag : float Logs.Tag.def =
  Logs.Tag.def "sim-time" ~doc:"simulation time" (fun fmt t ->
      Format.fprintf fmt "%.3f" t)

let span_tag : int Logs.Tag.def =
  Logs.Tag.def "span" ~doc:"active span id" Format.pp_print_int

let log_tags ~site ~time ?span () =
  let tags = Logs.Tag.empty in
  let tags = Logs.Tag.add site_tag site tags in
  let tags = Logs.Tag.add time_tag time tags in
  match span with
  | Some id when id > 0 -> Logs.Tag.add span_tag id tags
  | _ -> tags

let reporter ?(ppf = Format.err_formatter) () =
  let report _src level ~over k msgf =
    msgf @@ fun ?header:_ ?(tags = Logs.Tag.empty) fmt ->
    let prefix =
      let time = Logs.Tag.find time_tag tags in
      let site = Logs.Tag.find site_tag tags in
      let span = Logs.Tag.find span_tag tags in
      let parts =
        List.filter_map Fun.id
          [
            Option.map (Printf.sprintf "t=%.3f") time;
            Option.map (Printf.sprintf "site=%s") site;
            Option.map (Printf.sprintf "span=%d") span;
          ]
      in
      if parts = [] then "" else "[" ^ String.concat " " parts ^ "] "
    in
    Format.kfprintf
      (fun ppf ->
        Format.fprintf ppf "@.";
        over ();
        k ())
      ppf
      ("%s[%s] " ^^ fmt)
      prefix
      (Logs.level_to_string (Some level))
  in
  { Logs.report }
