(* Quick mode of cmbench (1/100 size) as a test:

   - BENCHMARK.json names exactly the metrics the bench emits, with the
     same units and directions;
   - every workload emits every metric, passes its gates and matches
     its pinned trace digest at the default seed;
   - every count metric repeats exactly across two in-process runs;
   - a second, unpinned seed passes the gates too. *)

open Cmbench_lib

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL %s\n%!" msg
      end)
    fmt

let scale = 0.01

(* Metrics that count work rather than time it: equal on equal inputs.
   GC and ledger figures depend on the runtime's state and are left
   out. *)
let is_count name =
  match Metrics.find name with
  | Some m ->
    List.mem m.Metrics.unit_ [ "count"; "words"; "bytes"; "ratio" ]
    && not (String.starts_with ~prefix:"gc." name || String.starts_with ~prefix:"ledger." name)
  | None -> false

let check_declared bench =
  let listed key =
    List.map
      (fun m ->
        ( Json.to_str (Json.field "name" m),
          Json.to_str (Json.field "unit" m),
          Json.to_str (Json.field "better" m) ))
      (Json.to_list (Json.field key bench))
  in
  let ours ms =
    List.map (fun m -> (m.Metrics.name, m.Metrics.unit_, Metrics.better_to_string m.Metrics.better)) ms
  in
  check (listed "end_to_end" = ours Metrics.end_to_end) "BENCHMARK.json end_to_end differs from the bench";
  check (listed "per_layer" = ours Metrics.per_layer) "BENCHMARK.json per_layer differs from the bench";
  let names = List.map (fun w -> Json.to_str (Json.field "name" w)) (Json.to_list (Json.field "workloads" bench)) in
  check (names = List.map (fun w -> w.Workloads.name) Workloads.all) "BENCHMARK.json workloads differ"

let check_emitted (r : Protocol.result) (expected : Metrics.metric list) =
  check
    (List.map fst r.Protocol.metrics = List.map (fun m -> m.Metrics.name) expected)
    "%s: emitted metrics differ from the declared ones" r.Protocol.workload;
  check (Protocol.correct r) "%s seed %d: gates failed: %s" r.Protocol.workload r.Protocol.seed
    (String.concat "; " r.Protocol.failures)

let counts (r : Protocol.result) =
  List.filter_map
    (fun (name, s) -> if is_count name then Some (name, s.Metrics.median) else None)
    r.Protocol.metrics

let same_counts a b =
  List.iter2
    (fun (name, x) (_, y) ->
      check (x = y) "%s: count %s differs between runs (%g vs %g)" a.Protocol.workload name x y)
    (counts a) (counts b);
  check (a.Protocol.attempted = b.Protocol.attempted) "%s: attempted differs" a.Protocol.workload;
  check (a.Protocol.digest = b.Protocol.digest) "%s: digest differs" a.Protocol.workload

let () =
  check_declared (Json.of_file Sys.argv.(1));
  let seed = Protocol.default_seed in
  List.iter
    (fun (w : Workloads.workload) ->
      List.iter
        (fun s ->
          check (List.mem_assoc (w.Workloads.name, s) Protocol.pinned_digests)
            "%s: no digest pinned at scale %g" w.Workloads.name s)
        [ scale; 1.0 ];
      let e2e () = Protocol.run w ~scale ~seed ~seconds:0.0 ~trace:false in
      let traced () = Protocol.run w ~scale ~seed ~seconds:0.0 ~trace:true in
      let a = e2e () and b = e2e () in
      check_emitted a Metrics.end_to_end;
      same_counts a b;
      let ta = traced () and tb = traced () in
      check_emitted ta Metrics.per_layer;
      same_counts ta tb;
      let other = Protocol.run w ~scale ~seed:(seed + 41) ~seconds:0.0 ~trace:false in
      check_emitted other Metrics.end_to_end;
      Printf.printf "%-18s correct=%b  %d ops attempted  digest %s\n%!" w.Workloads.name
        (Protocol.correct a) a.Protocol.attempted
        (Option.value a.Protocol.digest ~default:"-"))
    Workloads.all;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
