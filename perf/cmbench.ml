(* cmbench — the toolkit's benchmark.

     cmbench [--workload W] [--seed N] [--seconds S] [--trace 0|1]
             [--quick] [--json FILE]
     cmbench compare A.json B.json [--bench BENCHMARK.json]

   With --workload, measures that workload in this process and prints
   every metric by name and unit; the last line is the one-line JSON
   result.  Without it, runs every workload untraced and traced, each in
   a fresh process (this program re-executes itself), one at a time.
   Exits non-zero when a correctness gate fails. *)

open Cmbench_lib

let usage () =
  prerr_endline
    "usage: cmbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--json \
     FILE]\n\
    \       cmbench compare A.json B.json [--bench BENCHMARK.json]";
  exit 2

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | ic ->
    let line = try Some (input_line ic) with End_of_file -> None in
    (match (Unix.close_process_in ic, line) with
     | Unix.WEXITED 0, Some l -> l
     | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let report_json results =
  Json.Obj
    [ ("bench", Json.Str "cmbench");
      ("git_rev", Json.Str (git_rev ()));
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("results", Json.Arr results) ]

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool option;
  quick : bool;
  json : string option;
}

let rec parse o = function
  | [] -> o
  | "--workload" :: w :: rest -> parse { o with workload = Some w } rest
  | "--seed" :: n :: rest -> (
    match int_of_string_opt n with Some n -> parse { o with seed = n } rest | None -> usage ())
  | "--seconds" :: s :: rest -> (
    match float_of_string_opt s with
    | Some s when s > 0.0 -> parse { o with seconds = s } rest
    | _ -> usage ())
  | "--trace" :: ("0" | "1" as t) :: rest -> parse { o with trace = Some (t = "1") } rest
  | "--quick" :: rest -> parse { o with quick = true } rest
  | "--json" :: f :: rest -> parse { o with json = Some f } rest
  | _ -> usage ()

let scale o = if o.quick then 0.01 else 1.0

(* One workload in this process. *)
let measure o (w : Workloads.workload) =
  let r =
    Protocol.run w ~scale:(scale o) ~seed:o.seed ~seconds:o.seconds
      ~trace:(Option.value o.trace ~default:false)
  in
  print_string (Protocol.to_text r);
  Option.iter (fun f -> write_file f (Json.to_string (report_json [ Protocol.to_report_json r ]))) o.json;
  print_endline (Protocol.to_contract_json r);
  if not (Protocol.correct r) then exit 1

(* Every workload, each measurement in a fresh child process so heap
   peaks and GC state stay per workload. *)
let measure_all o =
  let modes = match o.trace with Some t -> [ t ] | None -> [ false; true ] in
  let parts = ref [] and ok = ref true in
  List.iter
    (fun (w : Workloads.workload) ->
      List.iter
        (fun traced ->
          let part =
            Option.map
              (fun f -> Printf.sprintf "%s.part-%s-%d" f w.Workloads.name (Bool.to_int traced))
              o.json
          in
          let args =
            [ "--workload"; w.Workloads.name; "--seed"; string_of_int o.seed; "--seconds";
              Printf.sprintf "%g" o.seconds; "--trace"; (if traced then "1" else "0") ]
            @ (if o.quick then [ "--quick" ] else [])
            @ match part with Some p -> [ "--json"; p ] | None -> []
          in
          flush_all ();
          let pid =
            Unix.create_process Sys.executable_name
              (Array.of_list (Sys.executable_name :: args))
              Unix.stdin Unix.stdout Unix.stderr
          in
          (match Unix.waitpid [] pid with
           | _, Unix.WEXITED 0 -> ()
           | _ -> ok := false);
          Option.iter (fun p -> parts := p :: !parts) part)
        modes)
    Workloads.all;
  Option.iter
    (fun f ->
      let results =
        List.concat_map
          (fun p ->
            if Sys.file_exists p then begin
              let j = Json.of_file p in
              Sys.remove p;
              Json.to_list (Json.field "results" j)
            end
            else [])
          (List.rev !parts)
      in
      write_file f (Json.to_string (report_json results)))
    o.json;
  if not !ok then exit 1

(* --- compare --- *)

let bounds_of bench =
  let j = Json.of_file bench in
  List.map
    (fun m -> (Json.to_str (Json.field "name" m), Json.to_num (Json.field "bound" m)))
    (Json.to_list (Json.field "end_to_end" j))

let untraced_results path =
  let j = Json.of_file path in
  List.filter_map
    (fun r ->
      match Json.member "traced" r with
      | Some (Json.Bool false) -> Some (Json.to_str (Json.field "workload" r), Json.field "metrics" r)
      | _ -> None)
    (Json.to_list (Json.field "results" j))

let stat_of_json m =
  let f k = Json.to_num (Json.field k m) in
  { Metrics.median = f "median"; q1 = f "q1"; q3 = f "q3"; n = int_of_float (f "n") }

(* choosing-metrics §6.5/§8: a spread wider than the bound leaves the
   metric unresolved; otherwise B is worse (or better) when its median
   moved past the bound in that direction. *)
let verdict (m : Metrics.metric) ~bound a b =
  let spread = Float.max (Metrics.rel_iqr a) (Metrics.rel_iqr b) in
  if spread > bound then "unresolved"
  else
    let change = (b.Metrics.median -. a.Metrics.median) /. Float.abs a.Metrics.median in
    let worse = match m.Metrics.better with Metrics.Lower -> change | Metrics.Higher -> -.change in
    if worse > bound then "worse" else if worse < -.bound then "better" else "same"

let compare_files a_path b_path bench =
  let bounds = bounds_of bench in
  let a = untraced_results a_path and b = untraced_results b_path in
  let bad = ref false in
  Printf.printf "%-18s %-20s %14s %10s %14s %10s %7s  %s\n" "workload" "metric" "A median" "A IQR"
    "B median" "B IQR" "bound" "verdict";
  List.iter
    (fun (workload, am) ->
      match List.assoc_opt workload b with
      | None -> Printf.printf "%-18s missing from %s\n" workload b_path
      | Some bm ->
        List.iter
          (fun (m : Metrics.metric) ->
            match (Json.member m.Metrics.name am, Json.member m.Metrics.name bm, List.assoc_opt m.Metrics.name bounds) with
            | Some aj, Some bj, Some bound ->
              let sa = stat_of_json aj and sb = stat_of_json bj in
              let v = verdict m ~bound sa sb in
              if v = "worse" || v = "unresolved" then bad := true;
              Printf.printf "%-18s %-20s %14.6g %10.4g %14.6g %10.4g %6.1f%%  %s\n" workload
                m.Metrics.name sa.Metrics.median (sa.Metrics.q3 -. sa.Metrics.q1) sb.Metrics.median
                (sb.Metrics.q3 -. sb.Metrics.q1) (100.0 *. bound) v
            | _ -> Printf.printf "%-18s %-20s not in both files\n" workload m.Metrics.name)
          Metrics.end_to_end)
    a;
  if !bad then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> (
    match rest with
    | [ a; b ] -> compare_files a b "BENCHMARK.json"
    | [ a; b; "--bench"; bench ] -> compare_files a b bench
    | _ -> usage ())
  | args -> (
    let o =
      parse { workload = None; seed = Protocol.default_seed; seconds = 10.0; trace = None; quick = false; json = None }
        args
    in
    match o.workload with
    | None -> measure_all o
    | Some name -> (
      match Workloads.find name with
      | Some w -> measure o w
      | None ->
        Printf.eprintf "unknown workload %s (have: %s)\n" name
          (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all));
        exit 2))
