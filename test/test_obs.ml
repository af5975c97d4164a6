(* Observability layer: registry semantics, span tracing across a
   two-site firing, snapshot determinism, and the no-op mode. *)

module Obs = Cm_core.Obs
module Sys_ = Cm_core.System
module Net = Cm_net.Net
module Sim = Cm_sim.Sim
module Reliable = Cm_core.Reliable
module Journal = Cm_core.Journal
module Evolution = Cm_core.Evolution
module Strategy = Cm_core.Strategy
module Interface = Cm_core.Interface
module Msg = Cm_core.Msg
module Payroll = Cm_workload.Payroll
open Cm_rule

(* ---- registry ---- *)

let label_merging () =
  let t = Obs.create () in
  Obs.incr t "hits" ~labels:[ ("site", "sf"); ("rule", "r1") ];
  Obs.incr t "hits" ~labels:[ ("rule", "r1"); ("site", "sf") ];
  Alcotest.(check int) "order-insensitive" 2
    (Obs.counter_value t "hits" ~labels:[ ("site", "sf"); ("rule", "r1") ]);
  Obs.incr t "hits" ~labels:[ ("site", "ny"); ("rule", "r1") ] ~by:3;
  Alcotest.(check int) "distinct label set" 3
    (Obs.counter_value t "hits" ~labels:[ ("rule", "r1"); ("site", "ny") ]);
  Alcotest.(check int) "total sums label sets" 5 (Obs.counter_total t "hits");
  Alcotest.(check int) "absent counter is 0" 0
    (Obs.counter_value t "misses")

let instruments () =
  let t = Obs.create () in
  Obs.gauge t "depth" 3.0;
  Obs.gauge t "depth" 7.0;
  Alcotest.(check (option (float 1e-9))) "gauge keeps latest" (Some 7.0)
    (Obs.gauge_value t "depth");
  List.iter (Obs.observe t "lat") [ 1.0; 3.0; 2.0 ];
  Alcotest.(check (list (float 1e-9))) "series chronological" [ 1.0; 3.0; 2.0 ]
    (Obs.series_values t "lat");
  let rows = Obs.snapshot t in
  Alcotest.(check int) "snapshot has both" 2 (List.length rows);
  let names = List.map (fun r -> r.Obs.name) rows in
  Alcotest.(check (list string)) "sorted by name" [ "depth"; "lat" ] names

(* ---- spans across a two-site firing ---- *)

(* Payroll over a lossy network with the reliable layer: the sf shell
   opens "fire" roots, the span id rides the Fire envelope, retransmits
   attach to it, and the ny shell adds "execute" -> "step" children. *)
let traced_payroll ?(drop = 0.2) ?(until = 300.0) seed =
  let obs = Obs.create () in
  let config =
    Sys_.Config.(
      seeded seed
      |> with_faults { Net.drop_prob = drop; dup_prob = 0.1 }
      |> with_reliable Reliable.default_config
      |> with_obs obs)
  in
  let p = Payroll.create ~config ~employees:3 () in
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:20.0 ~until;
  Sys_.run p.Payroll.system ~until:(until +. 200.0);
  (obs, p)

let span_invariants () =
  let obs, _ = traced_payroll 1300 in
  let spans = Obs.spans obs in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 0);
  let by_id id = List.find (fun s -> s.Obs.id = id) spans in
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun i s ->
      Alcotest.(check int) "ids sequential from 1" (i + 1) s.Obs.id;
      Hashtbl.add seen s.Obs.id ())
    spans;
  List.iter
    (fun s ->
      if s.Obs.parent <> 0 then begin
        Alcotest.(check bool) "parent exists" true (Hashtbl.mem seen s.Obs.parent);
        Alcotest.(check bool) "parent opened first" true (s.Obs.parent < s.Obs.id);
        let p = by_id s.Obs.parent in
        Alcotest.(check bool) "parent started no later" true
          (p.Obs.started <= s.Obs.started);
        match s.Obs.span_name with
        | "execute" | "retransmit" ->
          Alcotest.(check string) "child of a fire" "fire" p.Obs.span_name
        | "step" ->
          Alcotest.(check string) "step under execute" "execute" p.Obs.span_name
        | other -> Alcotest.failf "unexpected child span %s" other
      end
      else
        Alcotest.(check string) "only fires are roots" "fire" s.Obs.span_name)
    spans;
  let fires = List.filter (fun s -> s.Obs.span_name = "fire") spans in
  let executes = List.filter (fun s -> s.Obs.span_name = "execute") spans in
  Alcotest.(check bool) "some firings traced" true (List.length fires > 0);
  Alcotest.(check int) "every fire executed exactly once (reliable net)"
    (List.length fires) (List.length executes);
  (* Cross-site: fire opens at sf, execute at ny. *)
  List.iter
    (fun s ->
      Alcotest.(check (option string)) "fire at source site" (Some "sf")
        (List.assoc_opt "site" s.Obs.span_labels))
    fires;
  List.iter
    (fun s ->
      Alcotest.(check (option string)) "execute at target site" (Some "ny")
        (List.assoc_opt "site" s.Obs.span_labels))
    executes;
  let retrans = List.filter (fun s -> s.Obs.span_name = "retransmit") spans in
  Alcotest.(check bool) "lossy run has retransmit spans" true
    (List.length retrans > 0)

let counters_wired () =
  let obs, _ = traced_payroll 1300 in
  Alcotest.(check bool) "net sends counted" true
    (Obs.counter_total obs "net_sent" > 0);
  Alcotest.(check bool) "drops counted" true
    (Obs.counter_total obs "net_dropped" > 0);
  Alcotest.(check bool) "retransmits counted" true
    (Obs.counter_total obs "reliable_retransmits" > 0);
  Alcotest.(check bool) "shell events counted" true
    (Obs.counter_total obs "shell_events" > 0);
  Alcotest.(check int) "fires sent = fires executed"
    (Obs.counter_total obs "shell_fires_sent")
    (Obs.counter_total obs "shell_fires_executed");
  Alcotest.(check bool) "latency series populated" true
    (Obs.series_values obs "net_latency" ~labels:[ ("from", "sf"); ("to", "ny") ]
     <> [])

(* ---- determinism ---- *)

let snapshot_determinism () =
  let obs1, _ = traced_payroll 1300 in
  let obs2, _ = traced_payroll 1300 in
  Alcotest.(check string) "snapshot JSON byte-identical"
    (Obs.snapshot_to_json obs1) (Obs.snapshot_to_json obs2);
  Alcotest.(check string) "spans JSON byte-identical"
    (Obs.spans_to_json obs1) (Obs.spans_to_json obs2);
  Alcotest.(check string) "snapshot CSV byte-identical"
    (Obs.snapshot_to_csv obs1) (Obs.snapshot_to_csv obs2);
  let obs3, _ = traced_payroll 1301 in
  Alcotest.(check bool) "different seed, different snapshot" true
    (Obs.snapshot_to_json obs1 <> Obs.snapshot_to_json obs3)

(* Observability must not perturb the simulation: the same seed with
   and without a registry ends in the same application state. *)
let observation_transparent () =
  let finals p =
    List.map
      (fun emp -> (Payroll.salary_at p `A emp, Payroll.salary_at p `B emp))
      p.Payroll.employees
  in
  let run config =
    let p = Payroll.create ~config ~employees:3 () in
    Payroll.install_propagation p;
    Payroll.random_updates p ~mean_interarrival:20.0 ~until:300.0;
    Sys_.run p.Payroll.system ~until:500.0;
    p
  in
  let base =
    Sys_.Config.(
      seeded 1300
      |> with_faults { Net.drop_prob = 0.2; dup_prob = 0.1 }
      |> with_reliable Reliable.default_config)
  in
  let plain = run base in
  let observed = run (Sys_.Config.with_obs (Obs.create ()) base) in
  Alcotest.(check bool) "same final salaries" true
    (finals plain = finals observed)

(* ---- pinned outputs ---- *)

(* The payroll run behind `cmtool stats` and `cmtool spans` at their
   defaults (seed 1300). *)
let stats_payroll () = fst (traced_payroll ~drop:0.1 ~until:500.0 1300)

(* Payroll propagation made to touch every instrument of the durable
   path: a lossy, duplicating, reordering network under the reliable
   layer with heartbeats and a checkpointed journal.  A partition
   outlasts the retransmission chain (give-ups, suspicion, recovery); a
   rollout that loses the required guarantee is rolled back and its
   drained epochs retired; and the sender crashes for a millisecond with
   a frame in flight, so its restart re-queues the frame under a new
   epoch while the old copy is still on the wire. *)
let durable_propagate () =
  let obs = Obs.create () in
  let config =
    Sys_.Config.(
      seeded 1300
      |> with_latency { Net.base = 0.04; jitter = 0.02 }
      |> with_fifo false
      |> with_faults { Net.drop_prob = 0.2; dup_prob = 0.1 }
      |> with_reliable { Reliable.default_config with heartbeat_period = 2.0 }
      |> with_durability Journal.Journal_with_checkpoint
      |> with_obs obs)
  in
  let p = Payroll.create ~config ~employees:3 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  let sim = Sys_.sim system and net = Sys_.net system in
  let interfaces =
    Sys_.interface_rules system
    @ [ Interface.no_spontaneous_write Payroll.target_pattern ]
  in
  let pair = ("Salary1", "Salary2") in
  let evo =
    Evolution.create ~constraints:[ pair ] ~required:[ pair ] ~interfaces system
  in
  Sys_.declare_copies ~interfaces system [ pair ];
  Payroll.random_updates p ~mean_interarrival:5.0 ~until:400.0;
  Sim.schedule_at sim 60.0 (fun () ->
      Net.partition_pair net ~site_a:Payroll.site_a ~site_b:Payroll.site_b
        ~until:200.0);
  Sim.schedule_at sim 250.0 (fun () ->
      ignore
        (Evolution.evolve evo
           { Strategy.strategy_name = "noop"; description = "no rules";
             rules = []; aux_init = [ (Item.make "Flag", Value.Int 1) ] }));
  let crashed = ref false in
  let reliable = Option.get (Sys_.reliable system) in
  Net.on_send net (fun ~from_site ~to_site:_ ->
      if (not !crashed) && Sim.now sim > 320.0
         && String.equal from_site Payroll.site_a
         && Reliable.pending reliable > 0
      then begin
        crashed := true;
        Sim.schedule sim ~delay:0.001 (fun () ->
            Sys_.crash_site system ~site:Payroll.site_a);
        Sim.schedule sim ~delay:0.002 (fun () ->
            Sys_.restart_site system ~site:Payroll.site_a)
      end);
  Sys_.run system ~until:600.0;
  obs

let md5 s = Digest.to_hex (Digest.string s)

(* MD5 of [snapshot_to_json] and [spans_to_json] for each run, recorded
   before Journal, Reliable, Shell and System's Net hooks moved to
   pre-resolved handles: the move must leave every export
   byte-identical.  To re-record after an *intentional* change:
   GOLDEN_PRINT=1 dune exec test/test_obs.exe *)
let golden_runs =
  [
    ("payroll seed 1300 (cmtool stats/spans)", stats_payroll,
     "7db3caa3bcd2e491b6098a160fb852c0", "abf5c6854320e1ec1268d827c48e6529");
    ("durable propagate, one crash", durable_propagate,
     "e2d04654ea8d88e29d088b0c29485a4f", "86fd2265ee25c0762d37e95295c525ca");
  ]

let golden_digests () =
  List.iter
    (fun (name, run, snapshot, spans) ->
      let obs = run () in
      Alcotest.(check string) (name ^ " snapshot") snapshot
        (md5 (Obs.snapshot_to_json obs));
      Alcotest.(check string) (name ^ " spans") spans
        (md5 (Obs.spans_to_json obs)))
    golden_runs

(* The durable pin is only as strong as what the run exercises: every
   instrument the handles serve must have a row in it. *)
let durable_run_covers_handles () =
  let rows = Obs.snapshot (durable_propagate ()) in
  let has ?kind name =
    List.exists
      (fun r ->
        String.equal r.Obs.name name
        && (kind = None || List.assoc_opt "kind" r.Obs.labels = kind))
      rows
  in
  Array.iter
    (fun kind ->
      Alcotest.(check bool) ("journal_appends " ^ kind) true
        (has "journal_appends" ~kind))
    [| "event"; "fire_sent"; "store_write"; "outbound"; "acked"; "delivered";
       "restarted"; "epoch_proposed"; "epoch_cutover"; "epoch_retired";
       "epoch_rollback"; "checkpoint" |];
  List.iter
    (fun name -> Alcotest.(check bool) name true (has name))
    [ "journal_checkpoint_bytes"; "reliable_data_sent"; "reliable_retransmits";
      "reliable_give_ups"; "reliable_requeued"; "reliable_delivered";
      "reliable_dup_suppressed"; "reliable_reordered";
      "reliable_epoch_rejections"; "reliable_acks_sent";
      "reliable_heartbeats_sent"; "reliable_suspects"; "reliable_recoveries";
      "net_sent"; "net_dropped"; "net_duplicated"; "net_latency";
      "shell_events"; "shell_fires_sent"; "shell_fires_executed";
      "sim_queue_depth" ]

(* ---- handles ---- *)

let unused_handle_adds_no_row () =
  let t = Obs.create () in
  let c = Obs.Counter.make t "c" ~labels:[ ("site", "sf") ] in
  let g = Obs.Gauge.make t "g" in
  let s = Obs.Series.make t "s" in
  Alcotest.(check int) "resolved, unused: no rows" 0
    (List.length (Obs.snapshot t));
  Obs.Counter.incr c;
  Alcotest.(check (list string)) "first use registers" [ "c" ]
    (List.map (fun r -> r.Obs.name) (Obs.snapshot t));
  Obs.Gauge.set g 2.0;
  Obs.Series.observe s 1.0;
  Alcotest.(check int) "one row per used handle" 3
    (List.length (Obs.snapshot t))

let handle_shares_cell_with_one_shot () =
  let t = Obs.create () in
  let h = Obs.Counter.make t "hits" ~labels:[ ("site", "sf"); ("rule", "r1") ] in
  Obs.Counter.incr h;
  Obs.incr t "hits" ~labels:[ ("rule", "r1"); ("site", "sf") ] ~by:2;
  Obs.Counter.incr h ~by:3;
  Alcotest.(check int) "one counter" 6
    (Obs.counter_value t "hits" ~labels:[ ("rule", "r1"); ("site", "sf") ]);
  let g = Obs.Gauge.make t "depth" ~labels:[ ("b", "2"); ("a", "1") ] in
  Obs.gauge t "depth" ~labels:[ ("a", "1"); ("b", "2") ] 5.0;
  Obs.Gauge.set g 7.0;
  Alcotest.(check (option (float 0.0))) "one gauge" (Some 7.0)
    (Obs.gauge_value t "depth" ~labels:[ ("a", "1"); ("b", "2") ]);
  let s = Obs.Series.make t "lat" ~labels:[ ("to", "ny"); ("from", "sf") ] in
  Obs.observe t "lat" ~labels:[ ("from", "sf"); ("to", "ny") ] 1.0;
  Obs.Series.observe s 2.0;
  Alcotest.(check (list (float 0.0))) "one series" [ 1.0; 2.0 ]
    (Obs.series_values t "lat" ~labels:[ ("from", "sf"); ("to", "ny") ]);
  Alcotest.(check int) "three rows" 3 (List.length (Obs.snapshot t))

let kind_mismatch_on_first_use () =
  let t = Obs.create () in
  Obs.incr t "x";
  Obs.gauge t "y" 1.0;
  (* Resolving is free of checks: the name may not be registered yet. *)
  let g = Obs.Gauge.make t "x" in
  let s = Obs.Series.make t "x" in
  let c = Obs.Counter.make t "y" in
  Alcotest.check_raises "gauge on a counter"
    (Invalid_argument "Obs.gauge: x is not a gauge") (fun () ->
      Obs.Gauge.set g 1.0);
  Alcotest.check_raises "series on a counter"
    (Invalid_argument "Obs.observe: x is not a series") (fun () ->
      Obs.Series.observe s 1.0);
  Alcotest.check_raises "counter on a gauge"
    (Invalid_argument "Obs.incr: y is not a counter") (fun () ->
      Obs.Counter.incr c);
  Alcotest.check_raises "one-shot shares the check"
    (Invalid_argument "Obs.incr: y is not a counter") (fun () ->
      Obs.incr t "y")

(* Words allocated by [f], net of the measurement itself. *)
let words f =
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  measure f -. measure ignore

let noop_handles_allocate_nothing () =
  let c = Obs.Counter.make Obs.noop "c" ~labels:[ ("site", "sf") ] in
  let g = Obs.Gauge.make Obs.noop "g" in
  let s = Obs.Series.make Obs.noop "s" in
  let bumps () =
    for _ = 1 to 1000 do
      Obs.Counter.incr c;
      Obs.Gauge.set g 1.0;
      Obs.Series.observe s 1.0
    done
  in
  Alcotest.(check (float 0.0)) "1 000 noop bumps" 0.0 (words bumps)

(* ---- journal bytes and the noop path ---- *)

(* One record of every kind, checkpoints included, in a valid order. *)
let all_kinds =
  let rule =
    match Parser.parse_rules "r1: N(Salary1(n), b) ->[5] WR(Salary2(n), b)" with
    | [ r ] -> r
    | _ -> Alcotest.fail "rule text"
  in
  let item = Item.make "Flag" ~params:[ Value.Int 3 ] in
  let payload = Msg.Reset_notice { origin_site = "sf" } in
  let link =
    { Journal.peer = "ny"; next_mid = 4;
      unacked = [ (3, 1, 0, payload) ]; in_epoch = 1; in_expected = 2;
      delivered_mids = [ 0; 1 ] }
  in
  Journal.
    [
      Event { time = 0.5; site = "sf"; desc = "W(Flag(3), 1)" };
      Fire_sent { time = 0.5; rule_id = "r1"; to_site = "ny"; trigger_id = 1 };
      Store_write { time = 0.5; item; value = Value.Int 1 };
      Checkpoint
        { time = 1.0; incarnation = 0; store = [ (item, Value.Int 1) ];
          links = [ link ]; rule_epochs = []; active_epoch = 0 };
      Outbound
        { time = 1.25; to_site = "ny"; mid = 3; epoch = 0; seq = 2; payload };
      Acked { time = 1.5; to_site = "ny"; mid = 3 };
      Delivered
        { time = 1.5; from_site = "ny"; epoch = 0; seq = 0; mid = 0;
          applied = true };
      Restarted { time = 2.0; incarnation = 1 };
      Epoch_proposed { time = 3.0; epoch = 1; rules = [ rule ] };
      Epoch_cutover { time = 3.0; epoch = 1 };
      Epoch_rollback
        { time = 3.0; from_epoch = 1; to_epoch = 0; reason = "lost" };
      Epoch_retired { time = 4.0; epoch = 0 };
      Checkpoint
        { time = 5.0; incarnation = 1; store = [ (item, Value.Int 1) ];
          links = [ link ];
          rule_epochs =
            [ (0, Ep_retired, []); (1, Ep_active, [ rule ]) ];
          active_epoch = 1 };
    ]

let journal_bytes_on_read () =
  let obs = Obs.create () in
  let j = Journal.for_site (Journal.create_registry ~obs ()) ~site:"sf" in
  List.iter (Journal.append j) all_kinds;
  Alcotest.(check int) "all 12 kinds" 12
    (List.length
       (List.sort_uniq String.compare (List.map Journal.record_kind all_kinds)));
  Alcotest.(check int) "bytes = rendered journal"
    (String.length (Journal.to_string j))
    (Journal.stats j).Journal.bytes;
  let checkpoints =
    List.filter (function Journal.Checkpoint _ -> true | _ -> false) all_kinds
  in
  Alcotest.(check (list (float 0.0))) "checkpoint_bytes points"
    (List.map
       (fun c -> float_of_int (String.length (Journal.record_to_string c) + 1))
       checkpoints)
    (Obs.series_values obs "journal_checkpoint_bytes" ~labels:[ ("site", "sf") ])

let noop_journal_append_is_cheap () =
  let j = Journal.for_site (Journal.create_registry ()) ~site:"sf" in
  List.iter
    (fun r ->
      let w = words (fun () -> Journal.append j r) in
      if w >= 16.0 then
        Alcotest.failf "append of a %s record allocated %.0f words"
          (Journal.record_kind r) w)
    all_kinds

(* ---- no-op mode ---- *)

let noop_mode () =
  Alcotest.(check bool) "noop disabled" false (Obs.enabled Obs.noop);
  Alcotest.(check bool) "create enabled" true (Obs.enabled (Obs.create ()));
  Obs.incr Obs.noop "x";
  Obs.gauge Obs.noop "g" 1.0;
  Obs.observe Obs.noop "s" 1.0;
  Alcotest.(check int) "span id is the 0 sentinel" 0
    (Obs.span Obs.noop ~name:"fire" ~at:0.0);
  Obs.end_span Obs.noop ~id:0 ~at:1.0;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.snapshot Obs.noop));
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans Obs.noop));
  (* Systems built without ?obs run on the shared noop registry. *)
  let p = Payroll.create ~config:(Sys_.Config.seeded 5) ~employees:1 () in
  Alcotest.(check bool) "default system is noop" false
    (Obs.enabled (Sys_.obs p.Payroll.system))

let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    List.iter
      (fun (name, run, _, _) ->
        let obs = run () in
        Printf.printf "%s %s %s\n%!" (md5 (Obs.snapshot_to_json obs))
          (md5 (Obs.spans_to_json obs)) name)
      golden_runs;
    exit 0
  end;
  Alcotest.run "cm_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "label merging" `Quick label_merging;
          Alcotest.test_case "instruments" `Quick instruments;
        ] );
      ( "spans",
        [
          Alcotest.test_case "parent-child invariants" `Quick span_invariants;
          Alcotest.test_case "counters wired" `Quick counters_wired;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "snapshot determinism" `Quick snapshot_determinism;
          Alcotest.test_case "observation transparent" `Quick
            observation_transparent;
        ] );
      ("noop", [ Alcotest.test_case "zero-overhead mode" `Quick noop_mode ]);
      ( "golden",
        [
          Alcotest.test_case "snapshot and spans digests" `Quick golden_digests;
          Alcotest.test_case "durable run covers the handles" `Quick
            durable_run_covers_handles;
        ] );
      ( "handles",
        [
          Alcotest.test_case "unused handle adds no row" `Quick
            unused_handle_adds_no_row;
          Alcotest.test_case "handle and one-shot share a cell" `Quick
            handle_shares_cell_with_one_shot;
          Alcotest.test_case "kind mismatch on first use" `Quick
            kind_mismatch_on_first_use;
          Alcotest.test_case "noop bumps allocate nothing" `Quick
            noop_handles_allocate_nothing;
        ] );
      ( "journal",
        [
          Alcotest.test_case "bytes computed on read" `Quick
            journal_bytes_on_read;
          Alcotest.test_case "noop append allocates < 16 words" `Quick
            noop_journal_append_is_cheap;
        ] );
    ]
