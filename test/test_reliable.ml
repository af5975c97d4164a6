(* Tests for the reliable-delivery layer over a faulty network: acks,
   retransmission with backoff, duplicate suppression, order restoration,
   heartbeat failure detection — and the end-to-end behaviour of a full
   toolkit scenario under loss (paper §5 made executable). *)

module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Msg = Cm_core.Msg
module Reliable = Cm_core.Reliable
module Shell = Cm_core.Shell
module Sys_ = Cm_core.System
module Guarantee = Cm_core.Guarantee
module Health = Cm_sources.Health
module Tr_rel = Cm_core.Tr_relational
module Payroll = Cm_workload.Payroll
open Cm_rule

let tag i = Msg.Reset_notice { origin_site = string_of_int i }

let untag = function
  | Msg.Reset_notice { origin_site } -> int_of_string origin_site
  | _ -> Alcotest.fail "unexpected message shape"

let make ?(seed = 7) ?(latency = { Net.base = 0.05; jitter = 0.01 }) ?(fifo = true)
    ?(faults = Net.no_faults) ?(config = Reliable.default_config) () =
  let sim = Sim.create ~seed () in
  let net = Net.create ~sim ~latency ~fifo ~faults () in
  let r = Reliable.create ~sim ~net ~config () in
  (sim, net, r)

let exactly_once_in_order () =
  (* 30 % loss and 30 % duplication on every link; the application must
     still see every envelope exactly once, in send order. *)
  let sim, net, r =
    make ~faults:{ Net.drop_prob = 0.3; dup_prob = 0.3 } ()
  in
  let got = ref [] in
  Reliable.register r ~site:"b" (fun m -> got := untag m :: !got);
  Reliable.register r ~site:"a" (fun _ -> ());
  for i = 1 to 60 do
    Reliable.send r ~from_site:"a" ~to_site:"b" (tag i)
  done;
  Sim.run sim ~until:500.0;
  Alcotest.(check (list int)) "exactly once, in order"
    (List.init 60 (fun i -> i + 1))
    (List.rev !got);
  let s = Reliable.stats r in
  Alcotest.(check int) "all envelopes delivered" 60 s.Reliable.delivered;
  Alcotest.(check int) "none abandoned" 0 s.Reliable.give_ups;
  Alcotest.(check int) "nothing outstanding" 0 (Reliable.pending r);
  Alcotest.(check bool) "losses forced retransmissions" true
    (s.Reliable.retransmits > 0);
  Alcotest.(check bool) "duplicates were suppressed" true
    (s.Reliable.dup_suppressed > 0);
  Alcotest.(check bool) "network really misbehaved" true
    (Net.messages_dropped net > 0 && Net.messages_duplicated net > 0)

let restores_order_over_reordering_net () =
  (* The fifo:false ablation network reorders aggressively (see
     test_net's no-fifo test); sequence numbers must restore send order
     on top of it. *)
  let sim, _net, r =
    make ~latency:{ Net.base = 0.01; jitter = 5.0 } ~fifo:false ()
  in
  let got = ref [] in
  Reliable.register r ~site:"b" (fun m -> got := untag m :: !got);
  Reliable.register r ~site:"a" (fun _ -> ());
  for i = 1 to 50 do
    Reliable.send r ~from_site:"a" ~to_site:"b" (tag i)
  done;
  Sim.run sim ~until:500.0;
  Alcotest.(check (list int)) "order restored"
    (List.init 50 (fun i -> i + 1))
    (List.rev !got);
  Alcotest.(check bool) "out-of-order arrivals were buffered" true
    ((Reliable.stats r).Reliable.reordered > 0)

let backoff_through_partition () =
  (* A partition outlasting several retransmission timeouts: the envelope
     must survive it via backoff and arrive exactly once. *)
  let sim, net, r = make ~latency:{ Net.base = 0.05; jitter = 0.0 } () in
  let got = ref [] in
  Reliable.register r ~site:"b" (fun m -> got := untag m :: !got);
  Reliable.register r ~site:"a" (fun _ -> ());
  Net.partition net ~from_site:"a" ~to_site:"b" ~until:20.0;
  Reliable.send r ~from_site:"a" ~to_site:"b" (tag 1);
  Sim.run sim ~until:200.0;
  Alcotest.(check (list int)) "delivered exactly once" [ 1 ] !got;
  let s = Reliable.stats r in
  Alcotest.(check bool) "several retries burned" true (s.Reliable.retransmits >= 3);
  Alcotest.(check int) "never abandoned" 0 s.Reliable.give_ups

let give_up_suspects_peer () =
  (* A permanently dead endpoint: after max_retries the sender abandons
     the envelope and its failure detector raises Suspect_down locally. *)
  let config =
    { Reliable.default_config with retry_timeout = 0.5; max_retries = 2 }
  in
  let sim, net, r = make ~config () in
  let suspicions = ref [] in
  let a_saw = ref [] in
  Reliable.register r ~site:"a" (fun m -> a_saw := m :: !a_saw);
  Reliable.register r ~site:"b" (fun _ -> ());
  Reliable.on_suspect r (fun ~site ~suspect -> suspicions := (site, suspect) :: !suspicions);
  Net.crash_site net ~site:"b";
  Reliable.send r ~from_site:"a" ~to_site:"b" (tag 1);
  Sim.run sim ~until:100.0;
  let s = Reliable.stats r in
  Alcotest.(check int) "envelope abandoned" 1 s.Reliable.give_ups;
  Alcotest.(check int) "queue empty" 0 (Reliable.pending r);
  Alcotest.(check bool) "hook fired" true (List.mem ("a", "b") !suspicions);
  Alcotest.(check (list string)) "a suspects b" [ "b" ] (Reliable.suspects r ~site:"a");
  Alcotest.(check bool) "Suspect_down delivered locally" true
    (List.exists
       (function
         | Msg.Suspect_down { origin_site = "a"; suspect_site = "b" } -> true
         | _ -> false)
       !a_saw)

let heartbeat_detects_crash_and_recovery () =
  let config =
    {
      Reliable.default_config with
      heartbeat_period = 1.0;
      suspect_after = 3.5;
    }
  in
  let sim, net, r = make ~config () in
  let a_saw = ref [] in
  Reliable.register r ~site:"a" (fun m -> a_saw := (Sim.now sim, m) :: !a_saw);
  Reliable.register r ~site:"b" (fun _ -> ());
  Sim.schedule_at sim 10.0 (fun () -> Net.crash_site net ~site:"b");
  Sim.schedule_at sim 30.0 (fun () -> Net.restart_site net ~site:"b");
  Sim.schedule_at sim 20.0 (fun () ->
      Alcotest.(check (list string)) "suspected while down" [ "b" ]
        (Reliable.suspects r ~site:"a"));
  Sim.run sim ~until:50.0;
  Alcotest.(check (list string)) "cleared after restart" []
    (Reliable.suspects r ~site:"a");
  let suspect_at =
    List.find_map
      (function
        | t, Msg.Suspect_down { suspect_site = "b"; _ } -> Some t
        | _ -> None)
      (List.rev !a_saw)
  and reset_at =
    List.find_map
      (function
        | t, Msg.Reset_notice { origin_site = "b" } -> Some t
        | _ -> None)
      (List.rev !a_saw)
  in
  (match suspect_at, reset_at with
   | Some ts, Some tr ->
     Alcotest.(check bool) "suspected after silence threshold" true
       (ts > 10.0 && ts < 20.0);
     Alcotest.(check bool) "recovered after restart" true (tr > 30.0 && tr < 35.0)
   | _ -> Alcotest.fail "missing Suspect_down or Reset_notice at a");
  let s = Reliable.stats r in
  Alcotest.(check bool) "heartbeats flowed" true (s.Reliable.heartbeats_sent > 0);
  Alcotest.(check bool) "counters saw the episode" true
    (s.Reliable.suspects >= 1 && s.Reliable.recoveries >= 1)

(* ---- end-to-end: full toolkit scenario under loss ---- *)

let final_salaries p =
  List.map
    (fun emp ->
      (Payroll.salary_at p `A emp, Payroll.salary_at p `B emp))
    p.Payroll.employees

let drive config =
  let p = Payroll.create ~config ~employees:3 () in
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:20.0 ~until:500.0;
  Sys_.run p.Payroll.system ~until:700.0;
  p

let faulty_run_matches_clean_run () =
  (* The acceptance bar: 20 % loss + duplication on every link, and the
     scenario must end in exactly the state of the zero-fault run at the
     same seed, with nonzero, deterministic retransmit/ack counters. *)
  let clean = drive (Sys_.Config.seeded 42) in
  let faulty () =
    drive
      Sys_.Config.(
        seeded 42
        |> with_faults { Net.drop_prob = 0.2; dup_prob = 0.2 }
        |> with_reliable Reliable.default_config)
  in
  let f1 = faulty () and f2 = faulty () in
  Alcotest.(check bool) "final stores identical to zero-fault run" true
    (final_salaries clean = final_salaries f1);
  let stats p =
    match Sys_.reliable p.Payroll.system with
    | Some r -> Reliable.stats r
    | None -> Alcotest.fail "reliable layer missing"
  in
  let s1 = stats f1 in
  Alcotest.(check bool) "retransmits nonzero" true (s1.Reliable.retransmits > 0);
  Alcotest.(check bool) "acks nonzero" true (s1.Reliable.acks_sent > 0);
  Alcotest.(check int) "no envelope lost" s1.Reliable.data_sent s1.Reliable.delivered;
  Alcotest.(check int) "no envelope abandoned" 0 s1.Reliable.give_ups;
  Alcotest.(check bool) "counters deterministic across runs" true (s1 = stats f2);
  Alcotest.(check bool) "final state deterministic across runs" true
    (final_salaries f1 = final_salaries f2);
  let r1 =
    Sys_.check_guarantee ~initial:f1.Payroll.initial f1.Payroll.system
      (Guarantee.Follows
         {
           Guarantee.leader = Payroll.source_item "e1";
           follower = Payroll.target_item "e1";
         })
  in
  Alcotest.(check bool) "guarantee (1) survives the faults" true
    r1.Guarantee.holds

let silent_drop_is_silent () =
  (* §5's undetectable failure, end to end: a source whose notify
     interface silently drops must miss updates without raising and
     without producing any failure notice. *)
  let p = Payroll.create ~config:(Cm_core.System.Config.seeded 7) ~employees:1 () in
  Payroll.install_propagation p;
  let g =
    Sys_.declare_guarantee p.Payroll.system
      ~sites:[ Payroll.site_a; Payroll.site_b ]
      (Guarantee.Follows
         {
           Guarantee.leader = Payroll.source_item "e1";
           follower = Payroll.target_item "e1";
         })
  in
  let notices = ref 0 in
  Shell.on_failure_notice p.Payroll.shell_b (fun ~origin:_ _ -> incr notices);
  Sim.schedule_at (Sys_.sim p.Payroll.system) 50.0 (fun () ->
      Health.set (Tr_rel.health p.Payroll.tr_a) Health.Silent_drop);
  Payroll.schedule_update p ~at:60.0 ~emp:"e1" ~salary:7777;
  Sys_.run p.Payroll.system ~until:200.0;
  Alcotest.(check bool) "source took the write" true
    (Value.equal (Payroll.salary_at p `A "e1") (Value.Int 7777));
  Alcotest.(check bool) "target silently missed it" false
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 7777));
  Alcotest.(check int) "no failure notice" 0 !notices;
  Alcotest.(check bool) "guarantee still believed valid" true
    (Sys_.guarantee_valid g)

let network_silence_is_detected () =
  (* The same silent loss placed in the communication substrate instead:
     the heartbeat detector surfaces it as a Suspect_down failure notice
     and the declared guarantee is invalidated — the previously
     undetectable failure becomes detectable. *)
  let reliable =
    {
      Reliable.default_config with
      retry_timeout = 1.0;
      max_retries = 5;
      heartbeat_period = 5.0;
      suspect_after = 15.0;
    }
  in
  let p =
    Payroll.create
      ~config:Sys_.Config.(seeded 7 |> with_reliable reliable)
      ~employees:1 ()
  in
  Payroll.install_propagation p;
  let g =
    Sys_.declare_guarantee p.Payroll.system
      ~sites:[ Payroll.site_a; Payroll.site_b ]
      (Guarantee.Follows
         {
           Guarantee.leader = Payroll.source_item "e1";
           follower = Payroll.target_item "e1";
         })
  in
  let notices = ref [] in
  Shell.on_failure_notice p.Payroll.shell_a (fun ~origin kind ->
      notices := (origin, kind) :: !notices);
  Sim.schedule_at (Sys_.sim p.Payroll.system) 50.0 (fun () ->
      Net.crash_site (Sys_.net p.Payroll.system) ~site:Payroll.site_b);
  Payroll.schedule_update p ~at:60.0 ~emp:"e1" ~salary:7777;
  Sys_.run p.Payroll.system ~until:300.0;
  Alcotest.(check bool) "target missed the update" false
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 7777));
  Alcotest.(check bool) "detector raised a failure notice for ny" true
    (List.exists
       (fun (origin, kind) ->
         String.equal origin Payroll.site_b && kind = Msg.Logical)
       !notices);
  Alcotest.(check bool) "guarantee invalidated" false (Sys_.guarantee_valid g)

let reliable_layer_is_transparent_when_network_is_clean () =
  (* With a zero-fault network the reliable layer must not change what
     the application computes — only add acks underneath. *)
  let raw = drive (Sys_.Config.seeded 11) in
  let wrapped =
    drive Sys_.Config.(seeded 11 |> with_reliable Reliable.default_config)
  in
  Alcotest.(check bool) "same final stores" true
    (final_salaries raw = final_salaries wrapped);
  Alcotest.(check int) "no retransmissions needed" 0
    (match Sys_.reliable wrapped.Payroll.system with
     | Some r -> (Reliable.stats r).Reliable.retransmits
     | None -> -1);
  Alcotest.(check int) "validity still clean" 0
    (List.length (Sys_.check_validity ~initial:wrapped.Payroll.initial
                    wrapped.Payroll.system))

(* One journaled Data/Ack round trip on a clean link, from send to the
   spent retransmit timer: frames, envelopes, timer closures, journal
   records and table cells, about 130 words.  Per-frame closures or an
   option per lookup would add to it. *)
let round_trip_allocation () =
  let sim = Sim.create ~seed:7 () in
  let net = Net.create ~sim ~latency:{ Net.base = 0.05; jitter = 0.0 } () in
  let journals = Cm_core.Journal.create_registry () in
  let r = Reliable.create ~sim ~net ~journals () in
  let got = ref 0 in
  Reliable.register r ~site:"a" (fun _ -> ());
  Reliable.register r ~site:"b" (fun _ -> incr got);
  let msg = tag 1 in
  let round_trips n =
    for _ = 1 to n do
      Reliable.send r ~from_site:"a" ~to_site:"b" msg;
      Sim.run sim
    done
  in
  round_trips 100;
  let n = 2_000 in
  let before = Gc.minor_words () in
  round_trips n;
  let per_trip = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check int) "every frame delivered" (n + 100) !got;
  Alcotest.(check int) "nothing outstanding" 0 (Reliable.pending r);
  if per_trip > 160.0 then
    Alcotest.failf "a round trip allocates %.1f words (bound 160)" per_trip

let () =
  Alcotest.run "cm_reliable"
    [
      ( "protocol",
        [
          Alcotest.test_case "exactly once, in order" `Quick exactly_once_in_order;
          Alcotest.test_case "restores order over no-fifo net" `Quick
            restores_order_over_reordering_net;
          Alcotest.test_case "backoff through partition" `Quick
            backoff_through_partition;
          Alcotest.test_case "give-up suspects peer" `Quick give_up_suspects_peer;
          Alcotest.test_case "heartbeat detect + recover" `Quick
            heartbeat_detects_crash_and_recovery;
          Alcotest.test_case "round trip allocation" `Quick round_trip_allocation;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "faulty run matches clean run" `Quick
            faulty_run_matches_clean_run;
          Alcotest.test_case "silent drop stays silent" `Quick silent_drop_is_silent;
          Alcotest.test_case "network silence is detected" `Quick
            network_silence_is_detected;
          Alcotest.test_case "transparent on clean network" `Quick
            reliable_layer_is_transparent_when_network_is_clean;
        ] );
    ]
