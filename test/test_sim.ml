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

(* ---- pending differential ---- *)

(* A reference model of the kernel: its own queue of (time, seq) entries
   in the kernel's order, popped and interpreted the way {!Sim} runs
   them.  [pending] here is the definition — queued always-live entries
   plus queued periodic re-arms whose cancel flag is down — computed by
   walking the whole queue.  Every action logs [pending] as it runs, the
   way a shell reads it per event. *)
module Model = struct
  (* What an always-live entry does when it runs: log its id, then
     maybe flip a timer's cancel flag, schedule a child, raise Stop. *)
  type job = { id : int; flip : int option; child : float option; stop : bool }

  type kind = Job of job | Tick of int  (* timer index *)

  type t = {
    mutable clock : float;
    mutable seq : int;
    mutable queue : (float * int * kind) list;  (* sorted by (time, seq) *)
    mutable log : string list;  (* newest first *)
    periods : (int, float) Hashtbl.t;
    stop_at_tick : (int, int) Hashtbl.t;  (* timer -> tick that raises Stop *)
    ticks : int array;
  }

  let create () =
    { clock = 0.0; seq = 0; queue = []; log = []; periods = Hashtbl.create 8;
      stop_at_tick = Hashtbl.create 8; ticks = Array.make 8 0 }

  let enqueue m at kind =
    let at = if at < m.clock then m.clock else at in
    m.seq <- m.seq + 1;
    let e = (at, m.seq, kind) in
    let rec ins = function
      | [] -> [ e ]
      | ((a, s, _) as x) :: rest ->
        if a < at || (a = at && s < m.seq) then x :: ins rest else e :: x :: rest
    in
    m.queue <- ins m.queue

  let pending m ~cancelled =
    List.length
      (List.filter
         (function _, _, Job _ -> true | _, _, Tick k -> not (cancelled k))
         m.queue)

  (* One pop; [flip k] flips timer [k]'s flag; raises [Sim.Stop] as the
     job does. *)
  let step m ~cancelled ~flip =
    match m.queue with
    | [] -> false
    | (at, _, kind) :: rest ->
      m.queue <- rest;
      m.clock <- at;
      (match kind with
       | Tick k ->
         if not (cancelled k) then begin
           m.log <-
             Printf.sprintf "tick%d@%g p=%d" k at (pending m ~cancelled) :: m.log;
           m.ticks.(k) <- m.ticks.(k) + 1;
           if Hashtbl.find_opt m.stop_at_tick k = Some m.ticks.(k) then
             raise Sim.Stop;
           enqueue m (m.clock +. Hashtbl.find m.periods k) (Tick k)
         end
       | Job j ->
         m.log <-
           Printf.sprintf "job%d@%g p=%d" j.id at (pending m ~cancelled) :: m.log;
         Option.iter flip j.flip;
         Option.iter
           (fun d ->
             enqueue m (m.clock +. Float.max d 0.0)
               (Job { id = j.id + 1000; flip = None; child = None; stop = false }))
           j.child;
         if j.stop then raise Sim.Stop);
      true

  let run m ?until ~cancelled ~flip () =
    let continue () =
      match m.queue with
      | [] -> false
      | (at, _, _) :: _ -> (
        match until with
        | Some h when at > h ->
          m.clock <- h;
          false
        | _ -> true)
    in
    try
      while continue () do
        ignore (step m ~cancelled ~flip)
      done;
      match until with
      | Some h when m.clock < h && m.queue = [] -> m.clock <- h
      | _ -> ()
    with Sim.Stop -> ()

  let advance m ~inclusive ~until ~cancelled ~flip =
    let continue () =
      match m.queue with
      | [] -> false
      | (at, _, _) :: _ -> if inclusive then at <= until else at < until
    in
    (try
       while continue () do
         ignore (step m ~cancelled ~flip)
       done
     with Sim.Stop -> ());
    if m.clock < until then m.clock <- until
end

(* One seeded random sequence of kernel calls, run on a [Sim.t] and on
   the model side by side; after every call the clocks, the logs of
   what ran, the timers' cancel flags and [pending] must agree.  Each
   side keeps its own flags, flipped by the jobs it runs; flips between
   calls go to both. *)
let pending_sequence seed =
  let rng = Cm_util.Prng.create ~seed in
  let pick xs = List.nth xs (Cm_util.Prng.int rng (List.length xs)) in
  let sim = Sim.create () in
  let m = Model.create () in
  let flags = Array.make 8 false and model_flags = Array.make 8 false in
  let timers = ref 0 in
  let cancelled k = model_flags.(k) in
  let flip_in a k = if k < !timers then a.(k) <- not a.(k) in
  let flip = flip_in flags and model_flip = flip_in model_flags in
  let log = ref [] in
  let next_id = ref 0 in
  let one_in n = Cm_util.Prng.int rng n = 0 in
  let job () =
    incr next_id;
    { Model.id = !next_id;
      flip = (if one_in 4 then Some (Cm_util.Prng.int rng 8) else None);
      child = (if one_in 3 then Some (pick [ -1.0; 0.0; 0.5; 2.0 ]) else None);
      stop = one_in 10 }
  in
  let rec sim_action (j : Model.job) () =
    log :=
      Printf.sprintf "job%d@%g p=%d" j.id (Sim.now sim) (Sim.pending sim) :: !log;
    Option.iter flip j.flip;
    Option.iter
      (fun d ->
        Sim.schedule sim ~delay:d
          (sim_action { id = j.id + 1000; flip = None; child = None; stop = false }))
      j.child;
    if j.stop then raise Sim.Stop
  in
  let delay () = pick [ -1.0; 0.0; 0.5; 1.0; 1.5; 3.0 ] in
  for op = 1 to 40 do
    let what =
      match Cm_util.Prng.int rng 9 with
      | 0 | 1 ->
        let j = job () and d = delay () in
        Sim.schedule sim ~delay:d (sim_action j);
        Model.enqueue m (m.clock +. Float.max d 0.0) (Job j);
        "schedule"
      | 2 ->
        let j = job () and at = Sim.now sim +. delay () in
        Sim.schedule_at sim at (sim_action j);
        Model.enqueue m at (Job j);
        "schedule_at"
      | 3 when !timers < Array.length flags ->
        let k = !timers in
        incr timers;
        let period = pick [ 0.5; 1.0; 2.5 ] in
        Hashtbl.replace m.periods k period;
        let start =
          if Cm_util.Prng.bool rng then None else Some (Sim.now sim +. delay ())
        in
        let stop_at =
          if one_in 3 then Some (1 + Cm_util.Prng.int rng 3) else None
        in
        Option.iter (Hashtbl.replace m.stop_at_tick k) stop_at;
        let ticks = ref 0 in
        Sim.every sim ?start ~period
          (fun () ->
            log :=
              Printf.sprintf "tick%d@%g p=%d" k (Sim.now sim) (Sim.pending sim)
              :: !log;
            incr ticks;
            if stop_at = Some !ticks then raise Sim.Stop)
          ~cancel:(fun () -> flags.(k));
        Model.enqueue m
          (match start with Some s -> s | None -> m.clock +. period)
          (Tick k);
        "every"
      | 3 | 4 ->
        if !timers > 0 then begin
          let k = Cm_util.Prng.int rng !timers in
          flip k;
          model_flip k
        end;
        "flip"
      | 5 ->
        (try ignore (Sim.step sim) with Sim.Stop -> ());
        (try ignore (Model.step m ~cancelled ~flip:model_flip) with Sim.Stop -> ());
        "step"
      | 6 | 7 ->
        let until = Sim.now sim +. pick [ 0.0; 0.5; 2.0; 4.0 ] in
        Sim.run sim ~until;
        Model.run m ~until ~cancelled ~flip:model_flip ();
        "run ~until"
      | _ ->
        let until = Sim.now sim +. pick [ 0.0; 0.5; 2.0; 4.0 ] in
        let inclusive = Cm_util.Prng.bool rng in
        Sim.advance sim ~inclusive ~until;
        Model.advance m ~inclusive ~until ~cancelled ~flip:model_flip;
        "advance"
    in
    let where = Printf.sprintf "seed %d op %d (%s)" seed op what in
    Alcotest.(check (float 0.0)) (where ^ ": clock") m.clock (Sim.now sim);
    Alcotest.(check (list string)) (where ^ ": what ran") m.log !log;
    Alcotest.(check (array bool)) (where ^ ": cancel flags") model_flags flags;
    Alcotest.(check int) (where ^ ": pending")
      (Model.pending m ~cancelled) (Sim.pending sim)
  done

let pending_differential () =
  for seed = 1 to 600 do
    pending_sequence seed
  done

(* The step loop's own cost: scheduling and running one preallocated
   closure, with 1 024 later entries queued.  Words are the entry record
   and its boxed time (7 words); a persistent heap would add O(log n)
   nodes per add and pop, and an option per pop. *)
let schedule_step_allocation () =
  let sim = Sim.create () in
  let noop () = () in
  for _ = 1 to 1024 do
    Sim.schedule sim ~delay:1e9 noop
  done;
  let pairs = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to pairs do
    Sim.schedule sim ~delay:1.0 noop;
    ignore (Sim.step sim)
  done;
  let per_pair = (Gc.minor_words () -. before) /. float_of_int pairs in
  if per_pair > 10.0 then
    Alcotest.failf "schedule + step allocates %.1f words (bound 10)" per_pair;
  Alcotest.(check int) "background entries still queued" 1024 (Sim.pending sim)

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
          Alcotest.test_case "schedule + step allocation" `Quick schedule_step_allocation;
        ] );
      ( "differential",
        [
          Alcotest.test_case "pending vs a queue-walking model, 600 sequences"
            `Quick pending_differential;
        ] );
    ]
