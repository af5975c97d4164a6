(* Tests for the discrete-event simulation kernel. *)

module Sim = Cm_sim.Sim

let clock_starts_at_zero () =
  let sim = Sim.create () in
  Alcotest.(check (float 0.0)) "t=0" 0.0 (Sim.now sim)

let schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let ties_run_in_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.schedule sim ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo at same instant" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let clock_advances () =
  let sim = Sim.create () in
  let seen = ref 0.0 in
  Sim.schedule sim ~delay:5.5 (fun () -> seen := Sim.now sim);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "clock at callback" 5.5 !seen;
  Alcotest.(check (float 1e-9)) "clock after run" 5.5 (Sim.now sim)

let nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () ->
      log := ("outer", Sim.now sim) :: !log;
      Sim.schedule sim ~delay:2.0 (fun () -> log := ("inner", Sim.now sim) :: !log));
  Sim.run sim;
  match List.rev !log with
  | [ ("outer", t1); ("inner", t2) ] ->
    Alcotest.(check (float 1e-9)) "outer at 1" 1.0 t1;
    Alcotest.(check (float 1e-9)) "inner at 3" 3.0 t2
  | _ -> Alcotest.fail "wrong callback sequence"

let negative_delay_clamped () =
  let sim = Sim.create () in
  let ran = ref false in
  Sim.schedule sim ~delay:1.0 (fun () ->
      Sim.schedule sim ~delay:(-5.0) (fun () ->
          ran := true;
          Alcotest.(check (float 1e-9)) "no time travel" 1.0 (Sim.now sim)));
  Sim.run sim;
  Alcotest.(check bool) "ran" true !ran

let until_stops_and_advances () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr count);
  Sim.schedule sim ~delay:10.0 (fun () -> incr count);
  Sim.run ~until:5.0 sim;
  Alcotest.(check int) "only first ran" 1 !count;
  Alcotest.(check (float 1e-9)) "clock at horizon" 5.0 (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "second ran on resume" 2 !count

let until_drained_queue_advances_clock () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () -> ());
  Sim.run ~until:100.0 sim;
  Alcotest.(check (float 1e-9)) "clock at horizon" 100.0 (Sim.now sim)

let stop_exception () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr count);
  Sim.schedule sim ~delay:2.0 (fun () -> raise Sim.Stop);
  Sim.schedule sim ~delay:3.0 (fun () -> incr count);
  Sim.run sim;
  Alcotest.(check int) "stopped early" 1 !count

let every_fires_periodically () =
  let sim = Sim.create () in
  let ticks = ref [] in
  let stop = ref false in
  Sim.every sim ~period:10.0 (fun () -> ticks := Sim.now sim :: !ticks)
    ~cancel:(fun () -> !stop);
  Sim.schedule sim ~delay:35.0 (fun () -> stop := true);
  Sim.run ~until:100.0 sim;
  Alcotest.(check (list (float 1e-9))) "ticks at 10,20,30" [ 10.0; 20.0; 30.0 ]
    (List.rev !ticks)

let every_with_start () =
  let sim = Sim.create () in
  let ticks = ref [] in
  Sim.every sim ~start:0.0 ~period:5.0 (fun () -> ticks := Sim.now sim :: !ticks)
    ~cancel:(fun () -> Sim.now sim >= 11.0);
  Sim.run ~until:100.0 sim;
  Alcotest.(check (list (float 1e-9))) "ticks at 0,5,10" [ 0.0; 5.0; 10.0 ]
    (List.rev !ticks)

let every_rejects_non_positive_periods () =
  (* NaN must be refused with the rest: a NaN tick would re-arm at time
     NaN, which [run ~until] never stops on. *)
  List.iter
    (fun period ->
      let sim = Sim.create () in
      Alcotest.check_raises
        (Printf.sprintf "period %g" period)
        (Invalid_argument "Sim.every: period must be positive")
        (fun () -> Sim.every sim ~period (fun () -> ()) ~cancel:(fun () -> false)))
    [ Float.nan; 0.0; -1.0 ]

let step_one_at_a_time () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.schedule sim ~delay:1.0 (fun () -> incr count);
  Sim.schedule sim ~delay:2.0 (fun () -> incr count);
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check int) "one ran" 1 !count;
  Alcotest.(check bool) "step 2" true (Sim.step sim);
  Alcotest.(check bool) "queue empty" false (Sim.step sim);
  Alcotest.(check int) "both ran" 2 !count

let counters () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () -> ());
  Sim.schedule sim ~delay:2.0 (fun () -> ());
  Alcotest.(check int) "pending" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "processed" 2 (Sim.events_processed sim);
  Alcotest.(check int) "none pending" 0 (Sim.pending sim)

let pending_ignores_cancelled_periodics () =
  (* A periodic timer always has its next re-arm sitting in the queue.
     Once its cancel predicate flips, that queued tick is dead weight and
     [pending] must not report it. *)
  let sim = Sim.create () in
  let stop = ref false in
  let ticks = ref 0 in
  Sim.every sim ~period:10.0 (fun () -> incr ticks) ~cancel:(fun () -> !stop);
  Alcotest.(check int) "live re-arm counted" 1 (Sim.pending sim);
  Sim.schedule sim ~delay:15.0 (fun () -> stop := true);
  Sim.run ~until:16.0 sim;
  (* The tick scheduled for t=20 is still queued, but cancelled. *)
  Alcotest.(check int) "cancelled re-arm not counted" 0 (Sim.pending sim);
  Sim.run sim;
  (* Draining pops the dead entry without running its action. *)
  Alcotest.(check int) "dead tick never runs" 1 !ticks

let rng_determinism () =
  let run_once () =
    let sim = Sim.create ~seed:11 () in
    let xs = ref [] in
    Sim.schedule sim ~delay:1.0 (fun () ->
        for _ = 1 to 5 do
          xs := Cm_util.Prng.int (Sim.rng sim) 1000 :: !xs
        done);
    Sim.run sim;
    !xs
  in
  Alcotest.(check (list int)) "reproducible" (run_once ()) (run_once ())

let schedule_at_past_clamped () =
  let sim = Sim.create () in
  let at = ref (-1.0) in
  Sim.schedule sim ~delay:4.0 (fun () ->
      Sim.schedule_at sim 1.0 (fun () -> at := Sim.now sim));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "clamped to now" 4.0 !at

let () =
  Alcotest.run "cm_sim"
    [
      ( "kernel",
        [
          Alcotest.test_case "clock starts at zero" `Quick clock_starts_at_zero;
          Alcotest.test_case "schedule order" `Quick schedule_order;
          Alcotest.test_case "ties in schedule order" `Quick ties_run_in_schedule_order;
          Alcotest.test_case "clock advances" `Quick clock_advances;
          Alcotest.test_case "nested scheduling" `Quick nested_scheduling;
          Alcotest.test_case "negative delay clamped" `Quick negative_delay_clamped;
          Alcotest.test_case "run until" `Quick until_stops_and_advances;
          Alcotest.test_case "until advances drained clock" `Quick
            until_drained_queue_advances_clock;
          Alcotest.test_case "stop exception" `Quick stop_exception;
          Alcotest.test_case "every" `Quick every_fires_periodically;
          Alcotest.test_case "every with start" `Quick every_with_start;
          Alcotest.test_case "every rejects non-positive periods" `Quick
            every_rejects_non_positive_periods;
          Alcotest.test_case "step" `Quick step_one_at_a_time;
          Alcotest.test_case "counters" `Quick counters;
          Alcotest.test_case "pending ignores cancelled periodics" `Quick
            pending_ignores_cancelled_periodics;
          Alcotest.test_case "rng determinism" `Quick rng_determinism;
          Alcotest.test_case "schedule_at past clamped" `Quick schedule_at_past_clamped;
        ] );
    ]
