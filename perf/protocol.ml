(* The measurement protocol.  One process measures one workload:

   - an untimed warm-up round at 1/10 size (page faults, lazy
     initialisation);
   - untraced mode: timed rounds, each on a freshly built world after a
     [Gc.compact], until [seconds] have passed; every end-to-end metric
     is the median over rounds, with its quartiles and sample count;
   - traced mode: one untraced round (reference speed, GC counts), one
     traced round (the ledger), then the replays.

   Every round checks the workload's gates; a failed gate makes the run
   incorrect. *)

module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Reliable = Cm_core.Reliable
module Journal = Cm_core.Journal
module Obs = Cm_core.Obs
module Route = Cm_route.Route
module Trace = Cm_rule.Trace

let default_seed = 1

(* Trace digests of the first timed round at the default seed, per
   workload and size: a change that alters what the system does, not
   just how fast, shows here. *)
let pinned_digests =
  [ (("dispatch-local", 1.0), "d87f3444b0cad6e8125170b65235f61a");
    (("dispatch-local", 0.01), "b5714b8e8cff9a1bf037c18f7f5387df");
    (("propagate-durable", 1.0), "2c0d733f95d8740ae49a31d7f592c94c");
    (("propagate-durable", 0.01), "a65e05e3c529594657c983fa9f2f4f91");
    (("monitor-soak", 1.0), "db1781cad53afc5d756f74027da0fa23");
    (("monitor-soak", 0.01), "b6d057f9f7d63939bab4d91e11550042");
    (("routed-reads", 1.0), "ba4be073887a88ad7299bacd449de0d8");
    (("routed-reads", 0.01), "bd3a27f70ffeedfb234c556351da179d") ]

type round = {
  world : Workloads.world;
  setup_s : float;
  run_s : float;
  alloc_words : float;
  minor_collections : int;
  major_collections : int;
  promoted_words : float;
  gates : Workloads.gate list;
}

let run_round ?ledger build =
  Gc.compact ();
  let t0 = Meter.now_ns () in
  let world = build ledger in
  let setup_s = Meter.seconds_since t0 in
  let g0 = Gc.quick_stat () in
  let a0 = Meter.allocated_words () in
  let t1 = Meter.now_ns () in
  (match ledger with
   | None -> Sys_.run world.Workloads.system ~until:world.Workloads.horizon
   | Some l -> ignore (Meter.run_steps l (Sys_.sim world.Workloads.system) ~until:world.Workloads.horizon));
  let run_s = Meter.seconds_since t1 in
  let a1 = Meter.allocated_words () in
  let g1 = Gc.quick_stat () in
  let gates = world.Workloads.finish () in
  {
    world;
    setup_s;
    run_s;
    alloc_words = a1 -. a0;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    gates;
  }

let ops_per_s r = float_of_int r.world.Workloads.ops /. r.run_s

type result = {
  workload : string;
  seed : int;
  traced : bool;
  scale : float;
  metrics : (string * Metrics.stat) list;
  attempted : int;
  failed : int;
  failures : string list;  (** gate names that failed, with counts *)
  digest : string option;
  notes : string list;  (** extra human-readable lines (the ledger) *)
}

let correct r = r.failed = 0 && r.failures = []

(* Gate bookkeeping across rounds. *)
type tally = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let tally () = { attempted = 0; failed = 0; failures = [] }

let note_round t r =
  let ops = r.world.Workloads.ops in
  t.attempted <- t.attempted + ops;
  let bad = List.fold_left (fun acc g -> acc + g.Workloads.failed) 0 r.gates in
  t.failed <- t.failed + min ops bad;
  List.iter
    (fun g ->
      if g.Workloads.failed > 0 then
        t.failures <- t.failures @ [ Printf.sprintf "%s (%d)" g.Workloads.gate g.Workloads.failed ])
    r.gates

let fail_all t name =
  t.failures <- t.failures @ [ name ];
  t.failed <- t.attempted

let digest_of r = Digest.to_hex (Digest.string (Trace.to_string (Sys_.trace r.world.Workloads.system)))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let warm_up (w : Workloads.workload) ~scale ~seed t =
  note_round t (run_round (w.Workloads.prepare ~scale:(scale /. 10.0) ~seed))

(* --- untraced: the end-to-end metrics --- *)

let end_to_end (w : Workloads.workload) ~scale ~seed ~seconds =
  let t = tally () in
  warm_up w ~scale ~seed t;
  let build = w.Workloads.prepare ~scale ~seed in
  (* Each round is reduced to its numbers at once: a retained world
     would inflate the next round's heap. *)
  let sample r =
    let ops = float_of_int r.world.Workloads.ops in
    let calls = r.world.Workloads.calls in
    [| ops_per_s r; r.setup_s; r.alloc_words /. ops; Meter.percentile_ns calls 0.50 /. 1000.0;
       Meter.percentile_ns calls 0.99 /. 1000.0 |]
  in
  let start = Meter.now_ns () in
  let first = run_round build in
  note_round t first;
  (* Taken before the digest renders the trace to text: the peak is the
     workload's, and later rounds repeat the first. *)
  let peak = peak_heap_mb () in
  let digest = digest_of first in
  (match List.assoc_opt (w.Workloads.name, scale) pinned_digests with
   | Some pin when seed = default_seed && not (String.equal pin digest) ->
     fail_all t (Printf.sprintf "trace digest %s differs from the pinned %s" digest pin)
   | _ -> ());
  let rec more acc =
    if Meter.seconds_since start >= seconds then List.rev acc
    else begin
      let r = run_round build in
      note_round t r;
      more (sample r :: acc)
    end
  in
  let samples = more [ sample first ] in
  let over i = Metrics.stat_of (List.map (fun a -> a.(i)) samples) in
  let metrics =
    [ ("ops_per_s", over 0);
      ("setup_s", over 1);
      ("alloc_words_per_op", over 2);
      ("peak_heap_mb", Metrics.single peak);
      ("call_p50_us", over 3);
      ("call_p99_us", over 4) ]
  in
  {
    workload = w.Workloads.name;
    seed;
    traced = false;
    scale;
    metrics;
    attempted = t.attempted;
    failed = t.failed;
    failures = t.failures;
    digest = Some digest;
    notes = [];
  }

(* --- traced: the ledger and the per-layer metrics --- *)

let obs_series_points obs =
  List.fold_left
    (fun acc row ->
      match row.Obs.sample with
      | Obs.Series_sample s -> acc + s.Cm_util.Stats.n
      | Obs.Counter_sample _ | Obs.Gauge_sample _ -> acc)
    0 (Obs.snapshot obs)

let per_layer (w : Workloads.workload) ~scale ~seed =
  let t = tally () in
  warm_up w ~scale ~seed t;
  let build = w.Workloads.prepare ~scale ~seed in
  let plain = run_round build in
  note_round t plain;
  let l = Meter.create_ledger () in
  let skips = ref 0 in
  let build_traced tracer =
    let world = build tracer in
    Option.iter
      (fun r -> Route.on_decision r (fun d -> skips := !skips + List.length d.Route.d_skips))
      world.Workloads.route;
    world
  in
  let traced = run_round ~ledger:l build_traced in
  note_round t traced;
  let world = traced.world in
  let system = world.Workloads.system in
  let ops = float_of_int world.Workloads.ops in
  let per_op x = x /. ops in
  (* The rows must add up to the traced total; the loop between steps
     is the only time outside them. *)
  let total_ns = traced.run_s *. 1e9 in
  let sum_ns = float_of_int (Meter.ledger_sum_ns l) in
  if Float.abs (sum_ns -. total_ns) > 0.01 *. total_ns then
    fail_all t
      (Printf.sprintf "ledger rows sum to %.0f ns, traced total is %.0f ns" sum_ns total_ns);
  let trace = Sys_.trace system in
  let events = Array.of_list (Trace.events trace) in
  let d = Replay.dispatch system world.Workloads.rules events in
  (* Translator rows: this workload's own spans, or a reference
     propagate pair when the workload has no relational source. *)
  let translator_ledger, translator_ops, mix, rows =
    if world.Workloads.db_rows > 0 then (l, ops, !(world.Workloads.db_mix), world.Workloads.db_rows)
    else begin
      let rl = Meter.create_ledger () in
      let r =
        run_round ~ledger:rl (Workloads.propagate_world ~pairs:1 ~rows:256 ~updates:2000 ~seed)
      in
      note_round t r;
      (rl, float_of_int r.world.Workloads.ops, !(r.world.Workloads.db_mix), r.world.Workloads.db_rows)
    end
  in
  let db_ns, db_words = Replay.db_exec ~rows mix in
  let feed_ns, feed_words =
    if Meter.row_calls l Meter.Feed > 0 then
      (float_of_int (Meter.row_self_ns l Meter.Feed), Meter.row_self_words l Meter.Feed)
    else Replay.monitor_feed world.Workloads.copies events
  in
  let net = Sys_.net system in
  let rel = Option.map Reliable.stats (Sys_.reliable system) in
  let journal_stats =
    match Sys_.journals system with
    | None -> []
    | Some reg -> List.map (fun site -> Journal.stats (Journal.for_site reg ~site)) (Journal.sites reg)
  in
  let jsum f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 journal_stats) in
  let obs = Sys_.obs system in
  let route_share, route_quarantines =
    match world.Workloads.route with
    | Some r when Route.reads r > 0 ->
      ( float_of_int (Route.reads_by r Route.Replica) /. float_of_int (Route.reads r),
        float_of_int (Route.quarantines r) )
    | _ -> (0.0, 0.0)
  in
  let reads =
    match world.Workloads.route with Some r -> float_of_int (Route.reads r) | None -> 0.0
  in
  let row_ns lg r = float_of_int (Meter.row_self_ns lg r) in
  let values =
    [ ("shell.emit_ns_per_op", per_op (row_ns l Meter.Emit));
      ("shell.emit_words_per_op", per_op (Meter.row_self_words l Meter.Emit));
      ("shell.fires_per_op", per_op (float_of_int (Workloads.sum_shells system Shell.fires_sent)));
      ("index.select_ns", d.Replay.select_ns);
      ("index.candidates_per_event", d.Replay.candidates_per_event);
      ("index.useful_ratio", d.Replay.useful_ratio);
      ("match.template_ns", d.Replay.template_ns);
      ("match.cond_ns", d.Replay.cond_ns);
      ("trace.record_ns", Replay.trace_record events);
      ("trace.events_per_op", per_op (float_of_int (Trace.length trace)));
      ( "trace.retained_words_per_event",
        float_of_int (Obj.reachable_words (Obj.repr (Trace.events trace)))
        /. float_of_int (max 1 (Trace.length trace)) );
      ("sim.steps_per_op", per_op (float_of_int (Sim.events_processed (Sys_.sim system))));
      ("sim.other_ns_per_op", per_op (float_of_int l.Meter.other_ns));
      ("net.msgs_per_op", per_op (float_of_int (Net.messages_sent net)));
      ("net.drops_per_op", per_op (float_of_int (Net.messages_dropped net)));
      ( "reliable.retransmits_per_op",
        per_op (match rel with Some s -> float_of_int s.Reliable.retransmits | None -> 0.0) );
      ( "reliable.acks_per_op",
        per_op (match rel with Some s -> float_of_int s.Reliable.acks_sent | None -> 0.0) );
      ("translator.request_ns_per_op", row_ns translator_ledger Meter.Request /. translator_ops);
      ("translator.exec_app_ns_per_op", row_ns translator_ledger Meter.Exec_app /. translator_ops);
      ("db.exec_ns", db_ns);
      ("db.exec_words", db_words);
      ("journal.appends_per_op", per_op (jsum (fun s -> s.Journal.appends)));
      ("journal.bytes_per_op", per_op (jsum (fun s -> s.Journal.bytes)));
      ("journal.append_ns", Replay.journal_append system events);
      ("obs.series_points", float_of_int (obs_series_points obs));
      ("obs.spans", float_of_int (List.length (Obs.spans obs)));
      ("monitor.feed_ns_per_op", per_op feed_ns);
      ("monitor.feed_words_per_op", per_op feed_words);
      ("route.replica_share", route_share);
      ("route.skips_per_read", if reads > 0.0 then float_of_int !skips /. reads else 0.0);
      ("route.quarantines", route_quarantines);
      ( "gc.minor_per_kop",
        1000.0 *. float_of_int plain.minor_collections /. float_of_int plain.world.Workloads.ops );
      ( "gc.promoted_words_per_op",
        plain.promoted_words /. float_of_int plain.world.Workloads.ops );
      ("gc.major_collections", float_of_int plain.major_collections);
      ("ledger.overhead_pct", 100.0 *. ((ops_per_s plain /. ops_per_s traced) -. 1.0));
      ("ledger.residual_share", float_of_int l.Meter.other_ns /. sum_ns) ]
  in
  let ledger_line name ns words calls =
    Printf.sprintf "  %-22s %12.1f ns/op %10.1f words/op %8.3f calls/op %6.1f%%" name (per_op ns)
      (per_op words) (per_op calls) (100.0 *. ns /. sum_ns)
  in
  let notes =
    [ Printf.sprintf "ledger (traced round, %d ops, %.3f s; rows sum to %.3f s):"
        world.Workloads.ops traced.run_s (sum_ns *. 1e-9) ]
    @ List.map
        (fun r ->
          ledger_line (Meter.row_name r) (row_ns l r) (Meter.row_self_words l r)
            (float_of_int (Meter.row_calls l r)))
        Meter.rows
    @ [ ledger_line "sim.other" (float_of_int l.Meter.other_ns) 0.0 (float_of_int l.Meter.steps) ]
  in
  {
    workload = w.Workloads.name;
    seed;
    traced = true;
    scale;
    metrics = List.map (fun (k, v) -> (k, Metrics.single v)) values;
    attempted = t.attempted;
    failed = t.failed;
    failures = t.failures;
    digest = None;
    notes;
  }

let run (w : Workloads.workload) ~scale ~seed ~seconds ~trace =
  if trace then per_layer w ~scale ~seed else end_to_end w ~scale ~seed ~seconds

(* --- rendering --- *)

let unit_of name = match Metrics.find name with Some m -> m.Metrics.unit_ | None -> ""

let to_text r =
  let b = Buffer.create 2048 in
  Printf.bprintf b "== %s  seed %d  %s  scale %g\n" r.workload r.seed
    (if r.traced then "traced" else "untraced") r.scale;
  List.iter
    (fun (name, s) ->
      if s.Metrics.n > 1 then
        Printf.bprintf b "  %-32s %14.6g %-6s  (median of %d, IQR %.4g-%.4g)\n" name
          s.Metrics.median (unit_of name) s.Metrics.n s.Metrics.q1 s.Metrics.q3
      else Printf.bprintf b "  %-32s %14.6g %s\n" name s.Metrics.median (unit_of name))
    r.metrics;
  Printf.bprintf b "  %-32s %14.6g ratio   (%d failed of %d attempted)\n" "ops_failed_share"
    (if r.attempted = 0 then 0.0 else float_of_int r.failed /. float_of_int r.attempted)
    r.failed r.attempted;
  Option.iter (fun d -> Printf.bprintf b "  trace digest %s\n" d) r.digest;
  List.iter (fun f -> Printf.bprintf b "  GATE FAILED: %s\n" f) r.failures;
  List.iter (fun n -> Printf.bprintf b "%s\n" n) r.notes;
  Buffer.contents b

(* The one-line result the benchmark contract asks for. *)
let to_contract_json r =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (correct r));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, s) ->
                  (name, Json.Obj [ ("value", Json.Num s.Metrics.median); ("unit", Json.Str (unit_of name)) ]))
                r.metrics) ) ])

let to_report_json r =
  Json.Obj
    [ ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("traced", Json.Bool r.traced);
      ("scale", Json.Num r.scale);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("failures", Json.Arr (List.map (fun f -> Json.Str f) r.failures));
      ("digest", match r.digest with Some d -> Json.Str d | None -> Json.Null);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, s) ->
               ( name,
                 Json.Obj
                   [ ("median", Json.Num s.Metrics.median);
                     ("q1", Json.Num s.Metrics.q1);
                     ("q3", Json.Num s.Metrics.q3);
                     ("n", Json.Num (float_of_int s.Metrics.n));
                     ("unit", Json.Str (unit_of name)) ] ))
             r.metrics) ) ]
