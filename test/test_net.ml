(* Tests for the simulated network: FIFO delivery, latency, statistics. *)

module Sim = Cm_sim.Sim
module Net = Cm_net.Net

let make ?latency () =
  let sim = Sim.create ~seed:5 () in
  let net = Net.create ~sim ?latency () in
  (sim, net)

let delivery () =
  let sim, net = make ~latency:{ Net.base = 0.1; jitter = 0.0 } () in
  let got = ref [] in
  Net.register net ~site:"b" (fun msg -> got := (msg, Sim.now sim) :: !got);
  Net.send net ~from_site:"a" ~to_site:"b" "hello";
  Sim.run sim;
  match !got with
  | [ ("hello", t) ] -> Alcotest.(check (float 1e-9)) "latency applied" 0.1 t
  | _ -> Alcotest.fail "message not delivered exactly once"

let fifo_per_link () =
  let sim, net = make ~latency:{ Net.base = 0.05; jitter = 0.2 } () in
  let got = ref [] in
  Net.register net ~site:"b" (fun msg -> got := msg :: !got);
  for i = 1 to 50 do
    Net.send net ~from_site:"a" ~to_site:"b" i
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "in order despite jitter" (List.init 50 (fun i -> i + 1))
    (List.rev !got)

let local_send_is_async () =
  let sim, net = make () in
  let got = ref false in
  Net.register net ~site:"a" (fun () -> got := true);
  Net.send net ~from_site:"a" ~to_site:"a" ();
  Alcotest.(check bool) "not synchronous" false !got;
  Sim.run sim;
  Alcotest.(check bool) "delivered" true !got;
  Alcotest.(check (float 1e-9)) "zero delay" 0.0 (Sim.now sim)

let unknown_destination () =
  (* With crash/restart in the fault model, a missing destination is a
     runtime condition: the message becomes a recorded drop, not an
     exception escaping the event loop. *)
  let sim, net = make () in
  Net.send net ~from_site:"a" ~to_site:"nowhere" ();
  Sim.run sim;
  Alcotest.(check int) "dropped" 1 (Net.messages_dropped net);
  Alcotest.(check int) "unroutable" 1 (Net.drops_by net Net.Unroutable);
  (* The unroutable send has its link like any other, so the per-pair
     queries count it, as its net_sent/net_dropped rows do. *)
  Alcotest.(check int) "sent on its link" 1
    (Net.messages_between net ~from_site:"a" ~to_site:"nowhere");
  Alcotest.(check int) "dropped on its link" 1
    (Net.dropped_between net ~from_site:"a" ~to_site:"nowhere")

let drop_all () =
  let sim, net = make ~latency:{ Net.base = 0.1; jitter = 0.0 } () in
  Net.set_default_faults net { Net.drop_prob = 1.0; dup_prob = 0.0 };
  let got = ref 0 in
  Net.register net ~site:"b" (fun () -> incr got);
  for _ = 1 to 20 do
    Net.send net ~from_site:"a" ~to_site:"b" ()
  done;
  Sim.run sim;
  Alcotest.(check int) "nothing delivered" 0 !got;
  Alcotest.(check int) "all recorded" 20 (Net.drops_by net Net.Faulty);
  Alcotest.(check int) "per link" 20
    (Net.dropped_between net ~from_site:"a" ~to_site:"b")

let duplicate_all () =
  let sim, net = make ~latency:{ Net.base = 0.1; jitter = 0.0 } () in
  Net.set_faults net ~from_site:"a" ~to_site:"b"
    { Net.drop_prob = 0.0; dup_prob = 1.0 };
  let got = ref 0 in
  Net.register net ~site:"b" (fun () -> incr got);
  for _ = 1 to 10 do
    Net.send net ~from_site:"a" ~to_site:"b" ()
  done;
  Sim.run sim;
  Alcotest.(check int) "each delivered twice" 20 !got;
  Alcotest.(check int) "duplications counted" 10 (Net.messages_duplicated net)

let local_sends_are_immune () =
  let sim, net = make () in
  Net.set_default_faults net { Net.drop_prob = 1.0; dup_prob = 1.0 };
  let got = ref 0 in
  Net.register net ~site:"a" (fun () -> incr got);
  Net.send net ~from_site:"a" ~to_site:"a" ();
  Sim.run sim;
  Alcotest.(check int) "self-send exempt from faults" 1 !got

let partition_window () =
  let sim, net = make ~latency:{ Net.base = 0.1; jitter = 0.0 } () in
  let got = ref [] in
  Net.register net ~site:"b" (fun msg -> got := msg :: !got);
  Net.partition net ~from_site:"a" ~to_site:"b" ~until:10.0;
  Net.send net ~from_site:"a" ~to_site:"b" "during";
  Sim.schedule_at sim 11.0 (fun () -> Net.send net ~from_site:"a" ~to_site:"b" "after");
  Sim.run sim;
  Alcotest.(check (list string)) "only post-partition traffic" [ "after" ] !got;
  Alcotest.(check int) "partition drop recorded" 1 (Net.drops_by net Net.Partitioned)

let crash_and_restart () =
  let sim, net = make ~latency:{ Net.base = 1.0; jitter = 0.0 } () in
  let got = ref [] in
  Net.register net ~site:"b" (fun msg -> got := msg :: !got);
  (* In flight when the endpoint dies: lost on arrival. *)
  Net.send net ~from_site:"a" ~to_site:"b" "in-flight";
  Sim.schedule_at sim 0.5 (fun () -> Net.crash_site net ~site:"b");
  Sim.schedule_at sim 2.0 (fun () -> Net.send net ~from_site:"a" ~to_site:"b" "while-down");
  Sim.schedule_at sim 5.0 (fun () -> Net.restart_site net ~site:"b");
  Sim.schedule_at sim 6.0 (fun () -> Net.send net ~from_site:"a" ~to_site:"b" "after-restart");
  Sim.run sim;
  Alcotest.(check (list string)) "only post-restart traffic" [ "after-restart" ] !got;
  Alcotest.(check int) "both losses recorded" 2 (Net.drops_by net Net.Endpoint_down)

let fault_determinism () =
  let run () =
    let sim, net = make ~latency:{ Net.base = 0.05; jitter = 0.1 } () in
    Net.set_default_faults net { Net.drop_prob = 0.3; dup_prob = 0.2 };
    let got = ref [] in
    Net.register net ~site:"b" (fun i -> got := (i, Sim.now sim) :: !got);
    for i = 1 to 50 do
      Net.send net ~from_site:"a" ~to_site:"b" i
    done;
    Sim.run sim;
    (!got, Net.messages_dropped net, Net.messages_duplicated net)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same faults" true (a = b);
  let _, dropped, duplicated = a in
  Alcotest.(check bool) "faults actually fired" true (dropped > 0 && duplicated > 0)

let no_fifo_reorders () =
  (* The fifo:false ablation path: with jitter much larger than the base
     latency, delivery order must differ from send order. *)
  let sim = Sim.create ~seed:5 () in
  let net = Net.create ~sim ~latency:{ Net.base = 0.01; jitter = 5.0 } ~fifo:false () in
  let got = ref [] in
  Net.register net ~site:"b" (fun i -> got := i :: !got);
  for i = 1 to 50 do
    Net.send net ~from_site:"a" ~to_site:"b" i
  done;
  Sim.run sim;
  let received = List.rev !got in
  Alcotest.(check int) "all delivered" 50 (List.length received);
  Alcotest.(check bool) "jitter reordered the stream" true
    (received <> List.init 50 (fun i -> i + 1))

let duplicate_registration () =
  let _, net = make () in
  Net.register net ~site:"a" (fun () -> ());
  Alcotest.(check bool) "raises" true
    (try
       Net.register net ~site:"a" (fun () -> ());
       false
     with Invalid_argument _ -> true)

let per_link_latency_override () =
  let sim, net = make ~latency:{ Net.base = 0.1; jitter = 0.0 } () in
  Net.set_latency net ~from_site:"a" ~to_site:"b" { Net.base = 2.0; jitter = 0.0 };
  let at = ref 0.0 in
  Net.register net ~site:"b" (fun () -> at := Sim.now sim);
  Net.send net ~from_site:"a" ~to_site:"b" ();
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "override used" 2.0 !at

let statistics () =
  let sim, net = make () in
  Net.register net ~site:"b" (fun () -> ());
  Net.register net ~site:"c" (fun () -> ());
  Net.send net ~from_site:"a" ~to_site:"b" ();
  Net.send net ~from_site:"a" ~to_site:"b" ();
  Net.send net ~from_site:"a" ~to_site:"c" ();
  Sim.run sim;
  Alcotest.(check int) "total" 3 (Net.messages_sent net);
  Alcotest.(check int) "a->b" 2 (Net.messages_between net ~from_site:"a" ~to_site:"b");
  Alcotest.(check int) "a->c" 1 (Net.messages_between net ~from_site:"a" ~to_site:"c")

let deterministic_jitter () =
  let run () =
    let sim, net = make ~latency:{ Net.base = 0.05; jitter = 0.1 } () in
    let times = ref [] in
    Net.register net ~site:"b" (fun () -> times := Sim.now sim :: !times);
    for _ = 1 to 10 do
      Net.send net ~from_site:"a" ~to_site:"b" ()
    done;
    Sim.run sim;
    !times
  in
  Alcotest.(check (list (float 1e-12))) "same seed, same delays" (run ()) (run ())

let () =
  Alcotest.run "cm_net"
    [
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick delivery;
          Alcotest.test_case "fifo per link" `Quick fifo_per_link;
          Alcotest.test_case "local send async" `Quick local_send_is_async;
          Alcotest.test_case "unknown destination" `Quick unknown_destination;
          Alcotest.test_case "duplicate registration" `Quick duplicate_registration;
          Alcotest.test_case "per-link override" `Quick per_link_latency_override;
          Alcotest.test_case "statistics" `Quick statistics;
          Alcotest.test_case "deterministic jitter" `Quick deterministic_jitter;
        ] );
      ( "faults",
        [
          Alcotest.test_case "drop all" `Quick drop_all;
          Alcotest.test_case "duplicate all" `Quick duplicate_all;
          Alcotest.test_case "local sends immune" `Quick local_sends_are_immune;
          Alcotest.test_case "partition window" `Quick partition_window;
          Alcotest.test_case "crash and restart" `Quick crash_and_restart;
          Alcotest.test_case "fault determinism" `Quick fault_determinism;
          Alcotest.test_case "no-fifo reorders" `Quick no_fifo_reorders;
        ] );
    ]
