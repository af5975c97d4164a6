(* Crash-recovery tests: the Journal/Recovery protocol (ISSUE 3) driven
   through crashes placed exactly where the protocol is weakest — across
   the retransmission give-up horizon, across an epoch bump, between a
   checkpoint and the work it summarizes — plus the randomized 50-crash
   chaos schedule from the acceptance criteria. *)

module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Msg = Cm_core.Msg
module Reliable = Cm_core.Reliable
module Journal = Cm_core.Journal
module Recovery = Cm_core.Recovery
module Shell = Cm_core.Shell
module Sys_ = Cm_core.System
module Obs = Cm_core.Obs
module Payroll = Cm_workload.Payroll
module Chaos = Cm_chaos.Chaos
open Cm_rule

let tag i = Msg.Reset_notice { origin_site = string_of_int i }

let untag = function
  | Msg.Reset_notice { origin_site } -> int_of_string origin_site
  | _ -> Alcotest.fail "unexpected message shape"

(* A crash window that outlasts the whole retransmission chain
   (~85 s with the default config), so the sender's give-up concludes
   while the peer is still down. *)
let payroll_long_crash ~durability () =
  let config =
    Sys_.Config.(
      seeded 17
      |> with_reliable Reliable.default_config
      |> with_durability durability)
  in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let logical = ref 0 and metric = ref 0 in
  List.iter
    (fun shell ->
      Shell.on_failure_notice shell (fun ~origin:_ -> function
        | Msg.Logical -> incr logical
        | Msg.Metric -> incr metric))
    [ p.Payroll.shell_a; p.Payroll.shell_b ];
  let sim = Sys_.sim p.Payroll.system in
  Sim.schedule_at sim 1.0 (fun () ->
      Sys_.crash_site p.Payroll.system ~site:Payroll.site_b);
  Payroll.schedule_update p ~at:2.0 ~emp:"e1" ~salary:4200;
  Sim.schedule_at sim 150.0 (fun () ->
      Sys_.restart_site p.Payroll.system ~site:Payroll.site_b);
  Sys_.run p.Payroll.system ~until:400.0;
  (p, !logical, !metric)

let crash_outlasting_chain_without_journal_loses () =
  let p, logical, _metric = payroll_long_crash ~durability:Journal.None () in
  let s =
    match Sys_.reliable p.Payroll.system with
    | Some r -> Reliable.stats r
    | None -> Alcotest.fail "reliable layer expected"
  in
  Alcotest.(check bool) "chain exhausted" true (s.Reliable.give_ups >= 1);
  Alcotest.(check int) "abandoned, not pending" 0
    (match Sys_.reliable p.Payroll.system with
     | Some r -> Reliable.pending r
     | None -> 0);
  Alcotest.(check bool) "suspicion surfaced as a logical failure" true
    (logical >= 1);
  Alcotest.(check bool) "the update never reached the target" true
    (Value.to_float (Payroll.salary_at p `B "e1") <> 4200.0)

let crash_outlasting_chain_with_journal_recovers () =
  let p, logical, metric =
    payroll_long_crash ~durability:Journal.Journal_with_checkpoint ()
  in
  let s =
    match Sys_.reliable p.Payroll.system with
    | Some r -> Reliable.stats r
    | None -> Alcotest.fail "reliable layer expected"
  in
  Alcotest.(check bool) "chain crossed the give-up threshold" true
    (s.Reliable.give_ups >= 1);
  Alcotest.(check (float 0.0)) "the durable frame arrived after restart" 4200.0
    (Value.to_float (Payroll.salary_at p `B "e1"));
  Alcotest.(check int) "exactly once" 1
    (Shell.fires_executed p.Payroll.shell_b);
  Alcotest.(check int) "crash stayed metric" 0 logical;
  Alcotest.(check bool) "restart broadcast a metric notice" true (metric >= 1)

(* -- epoch discipline at the transport level -- *)

let transport ?(seed = 3) ?(fifo = true) ?(jitter = 0.0) () =
  let sim = Sim.create ~seed () in
  let net =
    Net.create ~sim ~latency:{ Net.base = 0.05; jitter } ~fifo
      ~faults:Net.no_faults ()
  in
  let journals = Journal.create_registry () in
  let r = Reliable.create ~sim ~net ~journals () in
  (sim, net, r)

let restart_sender r ~next_mid =
  Reliable.reset_endpoint r ~site:"a";
  Reliable.restore_sender_state r ~from_site:"a" ~to_site:"b" ~epoch:1
    ~next_mid;
  Reliable.requeue_unacked r ~from_site:"a" ~to_site:"b"

let epoch_bump_rejects_previous_life () =
  (* 20 frames scattered over [0.05, 5.05] by jitter; the sender
     "restarts" at 0.01 and re-queues all of them under epoch 1.  Old
     and new incarnations' frames interleave on the wire: previous-life
     arrivals after the receiver adopts epoch 1 must be rejected, and
     every payload must still come through exactly once. *)
  let sim, _net, r = transport ~fifo:false ~jitter:5.0 () in
  let got = ref [] in
  Reliable.register r ~site:"b" (fun m -> got := untag m :: !got);
  Reliable.register r ~site:"a" (fun _ -> ());
  for i = 1 to 20 do
    Reliable.send r ~from_site:"a" ~to_site:"b" (tag i)
  done;
  Sim.schedule_at sim 0.01 (fun () -> restart_sender r ~next_mid:20);
  Sim.run sim ~until:300.0;
  let s = Reliable.stats r in
  Alcotest.(check bool) "previous-life frames were rejected" true
    (s.Reliable.epoch_rejections > 0);
  Alcotest.(check (list int)) "every payload exactly once"
    (List.init 20 (fun i -> i + 1))
    (List.sort compare !got);
  Alcotest.(check int) "transport drained" 0 (Reliable.pending r)

let duplicate_suppressed_across_epoch_bump () =
  (* The ack path b->a is partitioned, so the frame is delivered but
     never discharged; the sender restarts and re-queues it under epoch
     1 with the same mid.  The receiver must recognize the mid across
     the epoch bump and deliver nothing twice. *)
  let sim, net, r = transport () in
  let got = ref [] in
  Reliable.register r ~site:"b" (fun m -> got := untag m :: !got);
  Reliable.register r ~site:"a" (fun _ -> ());
  Net.partition net ~from_site:"b" ~to_site:"a" ~until:50.0;
  Reliable.send r ~from_site:"a" ~to_site:"b" (tag 1);
  Sim.schedule_at sim 10.0 (fun () -> restart_sender r ~next_mid:1);
  Sim.run sim ~until:300.0;
  let s = Reliable.stats r in
  Alcotest.(check (list int)) "delivered once" [ 1 ] !got;
  Alcotest.(check int) "stats agree" 1 s.Reliable.delivered;
  Alcotest.(check bool) "the cross-epoch copy was suppressed" true
    (s.Reliable.dup_suppressed >= 1);
  Alcotest.(check int) "transport drained" 0 (Reliable.pending r)

(* -- checkpoints -- *)

let checkpoint_between_firing_halves () =
  (* An update's firing has two durable halves: Fire_sent at the source,
     Delivered at the target.  A checkpoint taken between the delivery
     and the crash must summarize the receiver window consistently, so
     the post-restart replay neither re-fires nor loses the update. *)
  let config =
    Sys_.Config.(
      seeded 23
      |> with_reliable Reliable.default_config
      |> with_durability Journal.Journal_with_checkpoint)
  in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let logical = ref 0 in
  Shell.on_failure_notice p.Payroll.shell_b (fun ~origin:_ -> function
    | Msg.Logical -> incr logical
    | Msg.Metric -> ());
  let sim = Sys_.sim p.Payroll.system in
  let rec_mgr =
    match Sys_.recovery p.Payroll.system with
    | Some r -> r
    | None -> Alcotest.fail "recovery manager expected"
  in
  Payroll.schedule_update p ~at:1.0 ~emp:"e1" ~salary:7777;
  (* Notify latency is 1 s and wire latency ~50 ms: the Fire is
     delivered at ~2.05.  Checkpoint at 2.1, crash at 2.15. *)
  Sim.schedule_at sim 2.1 (fun () ->
      Recovery.checkpoint_now rec_mgr ~site:Payroll.site_a;
      Recovery.checkpoint_now rec_mgr ~site:Payroll.site_b);
  Sim.schedule_at sim 2.15 (fun () ->
      Sys_.crash_site p.Payroll.system ~site:Payroll.site_b);
  Sim.schedule_at sim 30.0 (fun () ->
      Sys_.restart_site p.Payroll.system ~site:Payroll.site_b);
  Sys_.run p.Payroll.system ~until:100.0;
  Alcotest.(check (float 0.0)) "the update survived" 7777.0
    (Value.to_float (Payroll.salary_at p `B "e1"));
  Alcotest.(check int) "fired exactly once" 1
    (Shell.fires_executed p.Payroll.shell_b);
  Alcotest.(check int) "no logical failure" 0 !logical

(* -- determinism -- *)

let crash_replay_run () =
  let obs = Obs.create () in
  let config =
    Sys_.Config.(
      seeded 29
      |> with_reliable Reliable.default_config
      |> with_durability Journal.Journal_with_checkpoint
      |> with_obs obs)
  in
  let p = Payroll.create ~config ~employees:3 () in
  Payroll.install_propagation p;
  let sim = Sys_.sim p.Payroll.system in
  List.iteri
    (fun i emp ->
      Payroll.schedule_update p ~at:(2.0 +. float_of_int i) ~emp
        ~salary:(5000 + (100 * i)))
    [ "e1"; "e2"; "e3"; "e1" ];
  Sim.schedule_at sim 3.5 (fun () ->
      Sys_.crash_site p.Payroll.system ~site:Payroll.site_b);
  Sim.schedule_at sim 120.0 (fun () ->
      Sys_.restart_site p.Payroll.system ~site:Payroll.site_b);
  Sys_.run p.Payroll.system ~until:300.0;
  let journal site =
    match Sys_.journal p.Payroll.system ~site with
    | Some j -> Journal.to_string j
    | None -> Alcotest.fail "journal expected"
  in
  ( journal Payroll.site_a ^ journal Payroll.site_b,
    Obs.snapshot_to_json obs )

let journal_replay_is_deterministic () =
  let j1, o1 = crash_replay_run () in
  let j2, o2 = crash_replay_run () in
  Alcotest.(check string) "journals byte-identical" j1 j2;
  Alcotest.(check string) "observability snapshots byte-identical" o1 o2

(* -- chaos specs and golden report digests -- *)

let plan ?(min = 10.0) ?(max = 60.0) crashes =
  { Chaos.crashes; crash_min_len = min; crash_max_len = max }

let payroll ?(churn = 0) ?(seed = 42) ~events crashes =
  {
    Chaos.default_spec with
    seed;
    events;
    mode = Chaos.Payroll_faults { plan = plan crashes; churn };
  }

let bank crashes = { Chaos.default_spec with mode = Chaos.Bank_faults (plan crashes) }

let ring ?(events = 60) ~seed ~shards crashes =
  {
    Chaos.default_spec with
    seed;
    events;
    mode = Chaos.Ring { sites = 6; shards; crashes };
  }

let recovered r =
  match r.Chaos.result with
  | Chaos.Recovered x -> x
  | Chaos.Healed _ | Chaos.Sharded _ -> Alcotest.fail "not a recovery report"

let healed r =
  match r.Chaos.result with
  | Chaos.Healed x -> x
  | Chaos.Recovered _ | Chaos.Sharded _ -> Alcotest.fail "not a heal report"

let sharded r =
  match r.Chaos.result with
  | Chaos.Sharded x -> x
  | Chaos.Recovered _ | Chaos.Healed _ -> Alcotest.fail "not a ring report"

(* MD5 of [report_to_string] for one spec per mode, recorded before the
   harnesses were merged into one pipeline: a refactor of the chaos
   library must leave every report byte-identical.  To re-record after
   an *intentional* change: GOLDEN_PRINT=1 dune exec test/test_recovery.exe *)
let golden_reports =
  [
    ("payroll seed 42, 120 events, 4 crashes", payroll ~events:120 4,
     "7d8825c02917708b1c36bcde81c621ee");
    ("churn seed 7, 150 events, 3 crashes, 3 cutovers",
     payroll ~seed:7 ~events:150 ~churn:3 3, "ce618205bbddb413c28a56ea02196985");
    ("heal seed 42", { Chaos.default_spec with mode = Chaos.Heal },
     "347556cf3c8ae2edc39df86fca05abc5");
    ("ring seed 42, 1 shard", ring ~seed:42 ~shards:1 2,
     "6e347588a0ea17f906c053aa7622ffd2");
    ("ring seed 42, 2 shards", ring ~seed:42 ~shards:2 2,
     "6e347588a0ea17f906c053aa7622ffd2");
    ("bank seed 42, 5 crashes", bank 5, "cb06343618214b67cc3fc8b9ef1e7f7f");
    ("bank seed 42, crash-free", bank 0, "117eab9dffb6c0191b37cba82cad7566");
  ]

let report_digest spec =
  Digest.to_hex (Digest.string (Chaos.report_to_string (Chaos.run spec)))

let golden_report_digests () =
  List.iter
    (fun (name, spec, expected) ->
      Alcotest.(check string) (name ^ " report digest") expected (report_digest spec))
    golden_reports

let chaos_report_is_deterministic () =
  List.iter
    (fun spec ->
      let r1 = Chaos.run spec in
      if not (Chaos.passed r1) then
        Alcotest.failf "chaos verdict FAIL:\n%s" (Chaos.report_to_string r1);
      Alcotest.(check string) "chaos reports byte-identical"
        (Chaos.report_to_string r1)
        (Chaos.report_to_string (Chaos.run spec)))
    [ payroll ~events:120 4; bank 5 ]

(* On a short injection span the loss and partition windows used to
   outgrow their slots and start before time 0. *)
let tiny_schedules_start_at_or_after_zero () =
  for events = 0 to 5 do
    List.iter
      (fun spec ->
        let r = Chaos.run spec in
        List.iter
          (fun line ->
            match String.index_opt line '@' with
            | None -> ()
            | Some i ->
              let rest = String.sub line (i + 1) (String.length line - i - 1) in
              let start = Scanf.sscanf rest " %f" Fun.id in
              if start < 0.0 then
                Alcotest.failf "events=%d: negative window start in %S" events line)
          r.Chaos.schedule)
      [ payroll ~events 5; { (bank 5) with events } ]
  done

(* -- acceptance: the 50-crash schedule -- *)

let fifty_crash_chaos_schedule_is_lossless () =
  let spec = payroll ~seed:1 ~events:800 50 in
  let report = Chaos.run spec in
  if not (Chaos.passed report) then
    Alcotest.failf "chaos verdict FAIL:\n%s" (Chaos.report_to_string report);
  let r = recovered report in
  Alcotest.(check int) "no lost firings" 0 r.Chaos.lost_firings;
  Alcotest.(check int) "no duplicated firings" 0 r.Chaos.duplicate_firings;
  Alcotest.(check int) "crashes were metric failures only" 0
    r.Chaos.chaos.Chaos.logical_notices;
  Alcotest.(check bool) "crashes were visible" true
    (r.Chaos.chaos.Chaos.metric_notices > 0);
  Alcotest.(check bool) "final state converged" true r.Chaos.final_state_matches

(* -- acceptance: self-healing across 50 seeded schedules -- *)

let fifty_seed_heal_schedules_self_heal () =
  for seed = 1 to 50 do
    let spec = { Chaos.default_spec with seed; mode = Chaos.Heal } in
    let report = Chaos.run spec in
    if not (Chaos.passed report) then
      Alcotest.failf "heal verdict FAIL (seed %d):\n%s" seed
        (Chaos.report_to_string report);
    let r = healed report in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: no stale serves" seed)
      0 r.Chaos.stale_serves;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: bad rollout rolled back" seed)
      1 r.Chaos.rollbacks;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: rollback journaled" seed)
      true r.Chaos.rollback_journaled;
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: streamed verdicts match the fold" seed)
      [] r.Chaos.fold_mismatches;
    (* Spot-check byte determinism (every seed would double the sweep). *)
    if seed mod 10 = 0 then
      Alcotest.(check string)
        (Printf.sprintf "seed %d: deterministic report" seed)
        (Chaos.report_to_string report)
        (Chaos.report_to_string (Chaos.run spec))
  done

(* -- acceptance: sharded chaos across 25 seeded schedules --

   The multi-domain fabric under crash schedules: every seed must pass
   its invariants (journaled recovery on the crashed site's shard, live
   sites elsewhere keep firing through the window) with a durable
   config, and the report must be byte-identical across repeated runs
   AND across shard counts — the report deliberately omits the shard
   count so one seed prints one report at every layout.  One shard is
   the plain sequential system, so the 1-shard comparison is against
   the unsharded oracle. *)

let twenty_five_seed_sharded_chaos () =
  for seed = 1 to 25 do
    let at shards = Chaos.run (ring ~events:40 ~seed ~shards 2) in
    let report2 = at 2 in
    if not (Chaos.passed report2) then
      Alcotest.failf "sharded chaos verdict FAIL (seed %d):\n%s" seed
        (Chaos.report_to_string report2);
    let r2 = sharded report2 in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: both crashes recovered" seed)
      2 r2.Chaos.restarts;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: journal replay on restart" seed)
      true
      (r2.Chaos.replayed > 0);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: live shard fired during crash windows" seed)
      true
      (r2.Chaos.live_during_crash > 0);
    (* Byte determinism across layouts on every seed; repeated-run
       determinism spot-checked (each extra run re-executes the world). *)
    let text2 = Chaos.report_to_string report2 in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: report identical at 1 and 2 shards" seed)
      (Chaos.report_to_string (at 1))
      text2;
    if seed mod 5 = 0 then begin
      Alcotest.(check string)
        (Printf.sprintf "seed %d: report identical at 3 shards" seed)
        text2
        (Chaos.report_to_string (at 3));
      Alcotest.(check string)
        (Printf.sprintf "seed %d: repeated run byte-identical" seed)
        text2
        (Chaos.report_to_string (at 2))
    end
  done

(* Malformed specs are refused before any schedule is derived, with a
   message naming the offending field — not an exception from deep
   inside List.init or Prng, and not a FAIL verdict for a schedule that
   restarts a site before crashing it. *)
let malformed_specs_name_the_field () =
  let refused label expected spec =
    Alcotest.check_raises label (Invalid_argument expected) (fun () ->
        ignore (Chaos.run spec))
  in
  let spec = Chaos.default_spec in
  let lengths min max =
    { spec with mode = Chaos.Payroll_faults { plan = plan ~min ~max 5; churn = 0 } }
  in
  refused "negative events" "Chaos.run: events must be >= 0 (got -5)"
    { spec with events = -5 };
  refused "negative crashes" "Chaos.run: crashes must be >= 0 (got -3)"
    (payroll ~events:200 (-3));
  refused "negative churn" "Chaos.run: churn must be >= 0 (got -1)"
    (payroll ~events:200 ~churn:(-1) 5);
  refused "heal, negative events" "Chaos.run: events must be >= 0 (got -1)"
    { spec with events = -1; mode = Chaos.Heal };
  let ring_mode sites shards crashes =
    { spec with mode = Chaos.Ring { sites; shards; crashes } }
  in
  refused "ring below 4 sites" "Chaos.run: sites must be >= 4 (got 3)" (ring_mode 3 2 2);
  refused "zero shards" "Chaos.run: shards must be >= 1 (got 0)" (ring_mode 6 0 2);
  refused "sharded, negative events" "Chaos.run: events must be >= 0 (got -2)"
    { (ring_mode 6 2 2) with events = -2 };
  refused "sharded, negative crashes" "Chaos.run: crashes must be >= 0 (got -1)"
    (ring_mode 6 2 (-1));
  refused "negative crash length"
    "Chaos.run: crash_min_len must be finite and >= 0 (got -5)" (lengths (-5.0) 60.0);
  refused "NaN crash length" "Chaos.run: crash_max_len must be finite and >= 0 (got nan)"
    (lengths 10.0 Float.nan);
  refused "infinite crash length"
    "Chaos.run: crash_max_len must be finite and >= 0 (got inf)"
    (lengths 10.0 Float.infinity);
  refused "crash min above max"
    "Chaos.run: crash_min_len must be <= crash_max_len (got 30 > 20)"
    (lengths 30.0 20.0);
  refused "bank, negative crash length"
    "Chaos.run: crash_min_len must be finite and >= 0 (got -1)"
    { spec with mode = Chaos.Bank_faults (plan ~min:(-1.0) 5) }

let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    List.iter
      (fun (name, spec, _) -> Printf.printf "%s %s\n%!" (report_digest spec) name)
      golden_reports;
    exit 0
  end;
  Alcotest.run "cm_recovery"
    [
      ( "give-up horizon",
        [
          Alcotest.test_case "without journal the update is lost" `Quick
            crash_outlasting_chain_without_journal_loses;
          Alcotest.test_case "with journal the update survives" `Quick
            crash_outlasting_chain_with_journal_recovers;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "previous-life frames rejected" `Quick
            epoch_bump_rejects_previous_life;
          Alcotest.test_case "duplicate suppressed across bump" `Quick
            duplicate_suppressed_across_epoch_bump;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "between firing halves" `Quick
            checkpoint_between_firing_halves;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "journal replay" `Quick
            journal_replay_is_deterministic;
          Alcotest.test_case "chaos report" `Quick chaos_report_is_deterministic;
          Alcotest.test_case "golden report digests" `Quick golden_report_digests;
        ] );
      ( "validation",
        [
          Alcotest.test_case "malformed specs name the field" `Quick
            malformed_specs_name_the_field;
          Alcotest.test_case "tiny schedules start at or after 0" `Quick
            tiny_schedules_start_at_or_after_zero;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "50-crash payroll schedule" `Slow
            fifty_crash_chaos_schedule_is_lossless;
          Alcotest.test_case "50-seed heal schedules self-heal" `Slow
            fifty_seed_heal_schedules_self_heal;
          Alcotest.test_case "25-seed sharded chaos schedules" `Slow
            twenty_five_seed_sharded_chaos;
        ] );
    ]
