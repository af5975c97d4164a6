(* Unit tests for the guarantee checker (§3.3, §6): each form is
   exercised with hand-built traces, positively and negatively. *)

open Cm_rule
module Guarantee = Cm_core.Guarantee
module Monitor = Cm_core.Monitor

let x = Item.make "X"
let y = Item.make "Y"
let pair = { Guarantee.leader = x; follower = y }

(* Build a timeline from (time, item, value) writes, with X and Y both 0
   at time 0 unless [initial] overrides. *)
let timeline ?(initial = [ (x, Value.Int 0); (y, Value.Int 0) ]) writes =
  let tr = Trace.create () in
  List.iter
    (fun (t, item, v) -> ignore (Trace.record tr ~time:t ~site:"s" (Event.w item v)))
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) writes);
  Timeline.of_trace ~initial tr

let check ?ignore_after ?(horizon = 1000.0) tl g =
  Guarantee.check ?ignore_after ~horizon tl g

let assert_holds ?ignore_after ?horizon tl g =
  let r = check ?ignore_after ?horizon tl g in
  Alcotest.(check bool)
    (Guarantee.name g ^ ": " ^ String.concat "; " r.Guarantee.counterexamples)
    true r.Guarantee.holds

let assert_fails ?ignore_after ?horizon tl g =
  let r = check ?ignore_after ?horizon tl g in
  Alcotest.(check bool) (Guarantee.name g ^ " should fail") false r.Guarantee.holds

let iv v = Value.Int v

(* ---- (1) follows ---- *)

let follows_holds () =
  let tl =
    timeline [ (1.0, x, iv 5); (2.0, y, iv 5); (3.0, x, iv 7); (4.0, y, iv 7) ]
  in
  assert_holds tl (Guarantee.Follows pair)

let follows_fails_on_foreign_value () =
  let tl = timeline [ (1.0, x, iv 5); (2.0, y, iv 99) ] in
  assert_fails tl (Guarantee.Follows pair)

let follows_fails_on_early_value () =
  (* Y takes the value before X ever does. *)
  let tl = timeline [ (1.0, y, iv 5); (2.0, x, iv 5) ] in
  assert_fails tl (Guarantee.Follows pair)

let follows_same_instant_ok () =
  (* t2 <= t1: simultaneous adoption is allowed (initial states). *)
  let tl = timeline [ (1.0, x, iv 5); (1.0, y, iv 5) ] in
  assert_holds tl (Guarantee.Follows pair)

let follows_initial_state_counts () =
  (* Initial values count as held: Y starting equal to X is fine. *)
  let tl = timeline ~initial:[ (x, iv 3); (y, iv 3) ] [] in
  assert_holds tl (Guarantee.Follows pair)

(* ---- (2) leads ---- *)

let leads_holds () =
  let tl =
    timeline [ (1.0, x, iv 5); (2.0, y, iv 5); (3.0, x, iv 7); (4.0, y, iv 7) ]
  in
  assert_holds tl (Guarantee.Leads pair)

let leads_fails_on_missed_value () =
  let tl = timeline [ (1.0, x, iv 5); (2.0, x, iv 7); (3.0, y, iv 7) ] in
  assert_fails tl (Guarantee.Leads pair)

let leads_ignore_after_tail () =
  (* The missed value arrives after ignore_after: not an obligation. *)
  let tl = timeline [ (1.0, x, iv 5); (2.0, y, iv 5); (900.0, x, iv 9) ] in
  assert_holds ~ignore_after:800.0 tl (Guarantee.Leads pair);
  assert_fails tl (Guarantee.Leads pair)

let leads_satisfied_by_holding_through () =
  (* Y already holds the value and keeps holding it past t1. *)
  let tl = timeline ~initial:[ (x, iv 3); (y, iv 3) ] [ (5.0, x, iv 3) ] in
  (* X "re-takes" 3 at 5.0 (no-op collapsed), Y holds 3 throughout. *)
  assert_holds tl (Guarantee.Leads pair)

(* ---- (3) strictly follows ---- *)

let strictly_holds_with_gaps () =
  (* Y may skip values as long as order is preserved. *)
  let tl =
    timeline
      [ (1.0, x, iv 1); (2.0, x, iv 2); (3.0, x, iv 3); (4.0, y, iv 1); (5.0, y, iv 3) ]
  in
  assert_holds tl (Guarantee.Strictly_follows pair)

let strictly_fails_on_swap () =
  let tl =
    timeline
      [ (1.0, x, iv 1); (2.0, x, iv 2); (3.0, y, iv 2); (4.0, y, iv 1) ]
  in
  assert_fails tl (Guarantee.Strictly_follows pair)

let strictly_handles_repeats () =
  (* X: 1,2,1 — Y: 1,2,1 embeds; Y: 2,1,2 does not (no second 2). *)
  let base = [ (1.0, x, iv 1); (2.0, x, iv 2); (3.0, x, iv 1) ] in
  let tl =
    timeline (base @ [ (4.0, y, iv 1); (5.0, y, iv 2); (6.0, y, iv 1) ])
  in
  assert_holds tl (Guarantee.Strictly_follows pair);
  let tl =
    timeline (base @ [ (4.0, y, iv 2); (5.0, y, iv 1); (6.0, y, iv 2) ])
  in
  assert_fails tl (Guarantee.Strictly_follows pair)

(* ---- (4) metric follows ---- *)

let metric_holds_within_kappa () =
  let tl = timeline [ (10.0, x, iv 5); (12.0, y, iv 5) ] in
  assert_holds tl (Guarantee.Metric_follows (pair, 5.0))

let metric_fails_beyond_kappa () =
  (* X held 5 only during [10, 11); Y adopts it at 20 — staler than 5 s —
     and holds it until it catches up with 6 at 22. *)
  let tl =
    timeline [ (10.0, x, iv 5); (11.0, x, iv 6); (20.0, y, iv 5); (22.0, y, iv 6) ]
  in
  assert_fails tl (Guarantee.Metric_follows (pair, 5.0));
  (* but a κ covering all of [20, 22) accepts it *)
  assert_holds tl (Guarantee.Metric_follows (pair, 15.0))

let metric_still_held_counts () =
  (* X still holds the value at t1: staleness 0 regardless of when set. *)
  let tl = timeline ~initial:[ (x, iv 0) ] [ (10.0, x, iv 5); (500.0, y, iv 5) ] in
  assert_holds tl (Guarantee.Metric_follows (pair, 1.0))

(* (4) binds every instant Y holds a value, not only the instants it
   takes one: Y keeps 1 for 30 s after X moved on, and fails when the
   value X left at 10 is κ old. *)
let late_copy_fails_at_coverage_end () =
  let tl = timeline ~initial:[ (x, iv 1); (y, iv 1) ] [ (10.0, x, iv 2); (40.0, y, iv 2) ] in
  let g = Guarantee.Metric_follows (pair, 5.0) in
  let r = check ~horizon:50.0 tl g in
  Alcotest.(check bool) "fold fails" false r.Guarantee.holds;
  Alcotest.(check int) "fold points" 2 r.Guarantee.checked_points;
  Alcotest.(check (list string)) "fold attributes the violation to 15"
    [ "Y = 1 at 15.000 but X did not hold it within the last 5s" ]
    r.Guarantee.counterexamples;
  let m = Monitor.create () in
  let seen = ref [] in
  Monitor.on_violation m (fun v -> seen := v :: !seen);
  let h = Monitor.watch m g in
  Monitor.note_initial m [ (x, iv 1); (y, iv 1) ];
  List.iteri
    (fun id (time, desc) ->
      Monitor.feed m { Event.id; time; site = "s"; desc; kind = Event.Spontaneous })
    [ (10.0, Event.w x (iv 2)); (40.0, Event.w y (iv 2)) ];
  Monitor.finalize m ~horizon:50.0;
  let v = Monitor.verdict h in
  Alcotest.(check (triple bool int int)) "stream: fails, 2 points, 1 violation"
    (false, 2, 1)
    (v.Monitor.v_holds, v.Monitor.v_points, v.Monitor.v_violations);
  Alcotest.(check (list (float 1e-9))) "stream attributes it to 15" [ 15.0 ]
    (List.map (fun v -> v.Monitor.vi_at) !seen)

(* ---- always_leq ---- *)

let leq_items = (Item.make "A", Item.make "B")

let always_leq_holds () =
  let a, b = leq_items in
  let tl =
    timeline ~initial:[ (a, iv 0); (b, iv 10) ]
      [ (1.0, a, iv 5); (2.0, b, iv 20); (3.0, a, iv 15) ]
  in
  assert_holds tl (Guarantee.Always_leq { smaller = a; larger = b })

let always_leq_fails_transiently () =
  let a, b = leq_items in
  (* a briefly exceeds b between 3.0 and 4.0. *)
  let tl =
    timeline ~initial:[ (a, iv 0); (b, iv 10) ]
      [ (3.0, a, iv 15); (4.0, b, iv 20) ]
  in
  assert_fails tl (Guarantee.Always_leq { smaller = a; larger = b })

let always_leq_skips_missing () =
  let a, b = leq_items in
  let tl = timeline ~initial:[ (a, iv 0) ] [ (1.0, a, iv 100) ] in
  (* b never exists: vacuous. *)
  assert_holds tl (Guarantee.Always_leq { smaller = a; larger = b })

(* ---- exists_within ---- *)

let parent = Item.make "Parent"
let child = Item.make "Child"

let existence_timeline events =
  let tr = Trace.create () in
  List.iter
    (fun (t, item, present) ->
      ignore
        (Trace.record tr ~time:t ~site:"s"
           (if present then Event.ins item else Event.del item)))
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) events);
  Timeline.of_trace tr

let g_exists bound =
  Guarantee.Exists_within { antecedent = child; consequent = parent; bound }

let exists_holds_when_parent_arrives_in_time () =
  let tl =
    existence_timeline [ (10.0, child, true); (15.0, parent, true) ]
  in
  assert_holds ~horizon:100.0 tl (g_exists 20.0)

let exists_fails_when_parent_too_late () =
  let tl =
    existence_timeline [ (10.0, child, true); (50.0, parent, true) ]
  in
  assert_fails ~horizon:100.0 tl (g_exists 20.0)

let exists_fails_when_parent_never_comes () =
  let tl = existence_timeline [ (10.0, child, true) ] in
  assert_fails ~horizon:100.0 tl (g_exists 20.0)

let exists_pending_within_horizon_ok () =
  (* Child appears at 90, bound 20, horizon 100: undecidable, no failure. *)
  let tl = existence_timeline [ (90.0, child, true) ] in
  assert_holds ~horizon:100.0 tl (g_exists 20.0)

let exists_parent_removed_then_violated () =
  let tl =
    existence_timeline
      [ (10.0, parent, true); (20.0, child, true); (30.0, parent, false) ]
  in
  (* Parent disappears at 30 and never returns; child persists. *)
  assert_fails ~horizon:200.0 tl (g_exists 20.0);
  (* Short gaps are fine: parent returns at 45 < 30+20. *)
  let tl =
    existence_timeline
      [ (10.0, parent, true); (20.0, child, true); (30.0, parent, false);
        (45.0, parent, true) ]
  in
  assert_holds ~horizon:200.0 tl (g_exists 20.0)

let exists_vacuous_without_child () =
  let tl = existence_timeline [ (10.0, parent, true) ] in
  assert_holds ~horizon:100.0 tl (g_exists 20.0)

(* ---- monitor window ---- *)

let flag = Item.make "Flag"
let tb = Item.make "Tb"

let g_monitor kappa = Guarantee.Monitor_window { flag; tb; x; y; kappa }

let monitor_holds () =
  (* X = Y on [10, 30]; flag true with Tb = 10 during that span. *)
  let tl =
    timeline
      ~initial:[ (x, iv 0); (y, iv 1); (flag, Value.Bool false); (tb, Value.Float 0.0) ]
      [
        (10.0, y, iv 0);
        (10.5, tb, Value.Float 10.0);
        (11.0, flag, Value.Bool true);
        (30.0, x, iv 9);
        (31.0, flag, Value.Bool false);
      ]
  in
  assert_holds ~horizon:40.0 tl (g_monitor 2.0)

let monitor_fails_when_flag_lies () =
  (* Flag says equal since 5.0 but X <> Y until 10. *)
  let tl =
    timeline
      ~initial:[ (x, iv 0); (y, iv 1); (flag, Value.Bool true); (tb, Value.Float 5.0) ]
      [ (10.0, y, iv 0) ]
  in
  assert_fails ~horizon:40.0 tl (g_monitor 1.0)

let monitor_kappa_excuses_lag () =
  (* X changes at 30; flag drops only at 33; kappa = 5 covers the lag. *)
  let tl =
    timeline
      ~initial:[ (x, iv 0); (y, iv 0); (flag, Value.Bool true); (tb, Value.Float 0.0) ]
      [ (30.0, x, iv 9); (33.0, flag, Value.Bool false) ]
  in
  assert_holds ~horizon:40.0 tl (g_monitor 5.0);
  assert_fails ~horizon:40.0 tl (g_monitor 0.5)

(* ---- periodic equal ---- *)

let g_periodic =
  Guarantee.Periodic_equal
    { x; y; period = 100.0; valid_from = 50.0; valid_to = 80.0 }

let periodic_holds () =
  (* X and Y diverge only outside the [50, 80] window of each period. *)
  let tl =
    timeline
      [
        (10.0, x, iv 1); (45.0, y, iv 1);  (* equal by 50 *)
        (110.0, x, iv 2); (140.0, y, iv 2);  (* equal by 150 *)
      ]
  in
  assert_holds ~horizon:200.0 tl g_periodic

let periodic_fails_inside_window () =
  let tl = timeline [ (60.0, x, iv 1) ] in
  assert_fails ~horizon:100.0 tl g_periodic

let periodic_overnight_window () =
  (* valid_to beyond the period: [k*100+90, k*100+120]. *)
  let g =
    Guarantee.Periodic_equal { x; y; period = 100.0; valid_from = 90.0; valid_to = 120.0 }
  in
  let tl = timeline [ (105.0, x, iv 1) ] in
  (* divergence at 105 falls inside window 0 = [90, 120]. *)
  assert_fails ~horizon:300.0 tl g;
  let tl = timeline [ (130.0, x, iv 1); (185.0, y, iv 1) ] in
  (* divergence 130-185 falls between windows ([90,120] and [190,220]). *)
  assert_holds ~horizon:300.0 tl g

(* ---- misc API ---- *)

let metric_classification () =
  Alcotest.(check bool) "follows non-metric" false (Guarantee.is_metric (Guarantee.Follows pair));
  Alcotest.(check bool) "leads non-metric" false (Guarantee.is_metric (Guarantee.Leads pair));
  Alcotest.(check bool) "metric-follows metric" true
    (Guarantee.is_metric (Guarantee.Metric_follows (pair, 1.0)));
  Alcotest.(check bool) "monitor metric" true (Guarantee.is_metric (g_monitor 1.0));
  Alcotest.(check bool) "exists metric" true (Guarantee.is_metric (g_exists 1.0));
  Alcotest.(check bool) "periodic metric" true (Guarantee.is_metric g_periodic);
  Alcotest.(check bool) "always-leq non-metric" false
    (Guarantee.is_metric (Guarantee.Always_leq { smaller = x; larger = y }))

let for_copy_constraint_shape () =
  let gs = Guarantee.for_copy_constraint ~source:x ~target:y ~kappa:7.0 in
  Alcotest.(check int) "four guarantees" 4 (List.length gs);
  Alcotest.(check (list string)) "names"
    [ "(1) follows"; "(2) leads"; "(3) strictly-follows"; "(4) metric-follows" ]
    (List.map Guarantee.name gs)

let counterexamples_are_bounded () =
  (* Lots of violations: at most 5 counterexamples reported. *)
  let writes = List.init 50 (fun i -> (float_of_int (i + 1), y, iv (1000 + i))) in
  let tl = timeline writes in
  let r = check tl (Guarantee.Follows pair) in
  Alcotest.(check bool) "fails" false r.Guarantee.holds;
  Alcotest.(check bool) "at most 5 examples" true
    (List.length r.Guarantee.counterexamples <= 5);
  Alcotest.(check int) "all obligations counted" 51 r.Guarantee.checked_points

(* ---- property tests ---- *)

(* A faithful propagation process always satisfies (1)-(4). *)
let qcheck_propagation_satisfies_all =
  QCheck.Test.make ~name:"simulated propagation satisfies (1)-(4)" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) (pair (int_range 1 100) (int_range 1 50)))
    (fun updates ->
      (* updates: (gap, value); target adopts each value delta=0.5 later. *)
      let tr = Trace.create () in
      let time = ref 0.0 in
      List.iter
        (fun (gap, v) ->
          time := !time +. float_of_int gap;
          ignore (Trace.record tr ~time:!time ~site:"a" (Event.w x (iv v)));
          ignore (Trace.record tr ~time:(!time +. 0.5) ~site:"b" (Event.w y (iv v))))
        updates;
      let tl = Timeline.of_trace ~initial:[ (x, iv 0); (y, iv 0) ] tr in
      let horizon = !time +. 10.0 in
      List.for_all
        (fun g -> (Guarantee.check ~horizon tl g).Guarantee.holds)
        (Guarantee.for_copy_constraint ~source:x ~target:y ~kappa:1.0))

(* Follows is monotone in the follower's subsequence: dropping follower
   updates never breaks (1). *)
let qcheck_follows_subsequence =
  QCheck.Test.make ~name:"(1) survives dropping follower updates" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (int_range 1 50))
        (list_of_size Gen.(int_range 0 20) bool))
    (fun (values, keep_mask) ->
      let tr = Trace.create () in
      List.iteri
        (fun i v ->
          let t = float_of_int (i + 1) in
          ignore (Trace.record tr ~time:t ~site:"a" (Event.w x (iv v)));
          let keep = match List.nth_opt keep_mask i with Some b -> b | None -> true in
          if keep then
            ignore (Trace.record tr ~time:(t +. 0.25) ~site:"b" (Event.w y (iv v))))
        values;
      let tl = Timeline.of_trace ~initial:[ (x, iv 0); (y, iv 0) ] tr in
      (Guarantee.check ~horizon:1000.0 tl (Guarantee.Follows pair)).Guarantee.holds)

(* Metric follows is monotone in kappa. *)
let qcheck_metric_monotone =
  QCheck.Test.make ~name:"(4) monotone in kappa" ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 15) (pair (int_range 1 20) (int_range 1 30)))
        (pair (float_bound_exclusive 20.0) (float_bound_exclusive 20.0)))
    (fun (updates, (k1, k2)) ->
      let k_small = Float.min k1 k2 and k_big = Float.max k1 k2 in
      (* The 2 s adoption lag can interleave with the next source write,
         so gather all events and record them in time order. *)
      let time = ref 0.0 in
      let events =
        List.concat_map
          (fun (gap, v) ->
            time := !time +. float_of_int (max 1 gap);
            [ (!time, x, v); (!time +. 2.0, y, v) ])
          updates
      in
      let tr = Trace.create () in
      List.iter
        (fun (t, item, v) ->
          ignore (Trace.record tr ~time:t ~site:"s" (Event.w item (iv v))))
        (List.sort compare events);
      let tl = Timeline.of_trace ~initial:[ (x, iv 0); (y, iv 0) ] tr in
      let holds k =
        (Guarantee.check ~horizon:(!time +. 10.0) tl (Guarantee.Metric_follows (pair, k)))
          .Guarantee.holds
      in
      (not (holds k_small)) || holds k_big)

(* ---- (4) against a dense reference ---- *)

(* A random X/Y trace: writes over a three-value domain, deletions,
   re-insertions, same-value rewrites and same-instant clusters, at
   times on a half-second grid, so that a change plus κ often lands
   exactly on a later change. *)
type case = {
  kappa : float;
  initial : (Item.t * Value.t) list;
  events : (float * Event.desc) list;  (* time order *)
  horizon : float;
}

let gen_case =
  let open QCheck.Gen in
  let* kappa = oneofl [ 0.5; 1.0; 2.5; 4.0 ] in
  let* ix = opt (int_range 1 3) and* iy = opt (int_range 1 3) in
  let* steps =
    list_size (int_range 0 25)
      (triple
         (oneofl [ 0.0; 0.0; 0.5; 1.0; 1.5; 2.5; 4.0 ])
         bool
         (frequency
            [ (6, map (fun v -> `W v) (int_range 1 3)); (1, return `Del);
              (1, return `Ins); (2, return `Same) ]))
  in
  let+ tail = oneofl [ 0.0; 0.5; 2.5; 4.0; 10.0 ] in
  let initial =
    List.filter_map
      (fun (item, v) -> Option.map (fun v -> (item, iv v)) v)
      [ (x, ix); (y, iy) ]
  in
  let cur = Hashtbl.create 2 in
  List.iter (fun (item, v) -> Hashtbl.replace cur item v) initial;
  let time = ref 0.0 in
  let events =
    List.map
      (fun (gap, on_x, op) ->
        time := !time +. gap;
        let item = if on_x then x else y in
        let desc =
          match op with
          | `W v -> Event.w item (iv v)
          | `Del -> Event.del item
          | `Ins -> Event.ins item
          | `Same ->
            Event.w item (Option.value (Hashtbl.find_opt cur item) ~default:(iv 1))
        in
        (match op with
        | `W v -> Hashtbl.replace cur item (iv v)
        | `Same -> Hashtbl.replace cur item (Option.value (Hashtbl.find_opt cur item) ~default:(iv 1))
        | `Del -> Hashtbl.remove cur item
        | `Ins -> ());
        (!time, desc))
      steps
  in
  { kappa; initial; events; horizon = !time +. tail }

let print_case c =
  Printf.sprintf "kappa %g horizon %g initial [%s] events [%s]" c.kappa c.horizon
    (String.concat "; "
       (List.map (fun (i, v) -> Item.to_string i ^ "=" ^ Value.to_string v) c.initial))
    (String.concat "; "
       (List.map (fun (t, d) -> Printf.sprintf "%g %s" t (Event.desc_to_string d)) c.events))

let case_timeline c =
  let tr = Trace.create () in
  List.iter (fun (time, desc) -> ignore (Trace.record tr ~time ~site:"s" desc)) c.events;
  Timeline.of_trace ~initial:c.initial tr

(* §3.3.1's (4) read literally, at every critical instant up to the
   horizon: each change time, each change time + κ, and the midpoints
   between consecutive ones — the truth of "X held Y's value within
   (t1 − κ, t1]" can only flip at the first two kinds.  Returns the
   instants, whether each is stale, the takes, and per violated take
   (in take order) its value and first uncovered instant. *)
let reference c =
  let tl = case_timeline c in
  let changes = List.filter (fun t -> t <= c.horizon) (Timeline.change_times tl) in
  let marks =
    List.sort_uniq Float.compare
      ((0.0 :: c.horizon :: changes) @ List.map (fun t -> t +. c.kappa) changes)
    |> List.filter (fun t -> t <= c.horizon)
  in
  let rec with_midpoints = function
    | a :: (b :: _ as rest) -> a :: ((a +. b) /. 2.0) :: with_midpoints rest
    | l -> l
  in
  let instants = with_midpoints marks in
  let x_changes = List.map fst (Timeline.changes tl x) in
  let x_is t v = Option.equal Value.equal (Timeline.value_at tl x t) (Some v) in
  let stale t1 =
    match Timeline.value_at tl y t1 with
    | None -> false
    | Some v ->
      not
        (x_is (t1 -. c.kappa) v
        || List.exists (fun t2 -> t2 > t1 -. c.kappa && t2 <= t1 && x_is t2 v) x_changes)
  in
  let takes =
    Array.of_list (List.filter (fun (t, _) -> t <= c.horizon) (Timeline.values_taken tl y))
  in
  let first_uncovered = Array.make (Array.length takes) None in
  let verdicts = List.map (fun t1 -> (t1, stale t1)) instants in
  List.iter
    (fun (t1, is_stale) ->
      if is_stale then begin
        let k = ref 0 in
        Array.iteri (fun i (t, _) -> if t <= t1 then k := i) takes;
        if first_uncovered.(!k) = None then first_uncovered.(!k) <- Some t1
      end)
    verdicts;
  let violated =
    List.filter_map
      (fun (i, (_, v)) -> Option.map (fun t1 -> (v, t1)) first_uncovered.(i))
      (List.mapi (fun i take -> (i, take)) (Array.to_list takes))
  in
  (verdicts, Array.length takes, violated)

let metric c = Guarantee.Metric_follows (pair, c.kappa)

let fold_agrees c =
  let _, points, violated = reference c in
  let r = Guarantee.check ~horizon:c.horizon (case_timeline c) (metric c) in
  let expected =
    List.filteri (fun i _ -> i < 5) violated
    |> List.map (fun (v, t1) ->
           Printf.sprintf "Y = %s at %.3f but X did not hold it within the last %gs"
             (Value.to_string v) t1 c.kappa)
  in
  r.Guarantee.holds = (violated = [])
  && r.Guarantee.checked_points = points
  && r.Guarantee.counterexamples = expected

let stream_agrees c =
  let _, points, violated = reference c in
  let m = Monitor.create () in
  let seen = ref [] in
  Monitor.on_violation m (fun v -> seen := v.Monitor.vi_at :: !seen);
  let h = Monitor.watch m (metric c) in
  Monitor.note_initial m c.initial;
  List.iteri
    (fun id (time, desc) ->
      Monitor.feed m { Event.id; time; site = "s"; desc; kind = Event.Spontaneous })
    c.events;
  Monitor.finalize m ~horizon:c.horizon;
  let v = Monitor.verdict h in
  v.Monitor.v_holds = (violated = [])
  && v.Monitor.v_points = points
  && v.Monitor.v_violations = List.length violated
  && List.sort Float.compare !seen = List.sort Float.compare (List.map snd violated)

(* The live verdict, probed through the simulation clock at every
   critical instant that carries no event or initial value (an
   instant's own events are still an open batch when it is probed). *)
let staleness_agrees c =
  let verdicts, _, _ = reference c in
  let sim = Cm_sim.Sim.create () in
  let trace = Trace.create () in
  let m = Monitor.create ~sim () in
  Monitor.attach m trace;
  Monitor.watch_copy m ~source:"X" ~target:"Y" ~kappa:(Some c.kappa);
  Monitor.note_initial m c.initial;
  List.iter
    (fun (time, desc) ->
      Cm_sim.Sim.schedule_at sim time (fun () ->
          ignore (Trace.record trace ~time ~site:"s" desc)))
    c.events;
  let disagreements = ref 0 in
  List.iter
    (fun (t1, stale) ->
      let initial_at = if c.initial = [] then [] else [ 0.0 ] in
      if not (List.mem t1 initial_at || List.exists (fun (t, _) -> t = t1) c.events)
      then
        Cm_sim.Sim.schedule_at sim t1 (fun () ->
            if Monitor.force_refresh m ~source:"X" ~target:"Y" <> stale then
              incr disagreements))
    verdicts;
  Cm_sim.Sim.run sim ~until:c.horizon;
  !disagreements = 0

let arb_case = QCheck.make ~print:print_case gen_case

let qcheck_dense name agrees =
  QCheck.Test.make ~name:("(4) " ^ name ^ " = dense reference") ~count:500 arb_case agrees

let () =
  Alcotest.run "cm_guarantee"
    [
      ( "follows",
        [
          Alcotest.test_case "holds" `Quick follows_holds;
          Alcotest.test_case "foreign value" `Quick follows_fails_on_foreign_value;
          Alcotest.test_case "early value" `Quick follows_fails_on_early_value;
          Alcotest.test_case "same instant" `Quick follows_same_instant_ok;
          Alcotest.test_case "initial state" `Quick follows_initial_state_counts;
        ] );
      ( "leads",
        [
          Alcotest.test_case "holds" `Quick leads_holds;
          Alcotest.test_case "missed value" `Quick leads_fails_on_missed_value;
          Alcotest.test_case "ignore_after" `Quick leads_ignore_after_tail;
          Alcotest.test_case "holding through" `Quick leads_satisfied_by_holding_through;
        ] );
      ( "strictly",
        [
          Alcotest.test_case "gaps ok" `Quick strictly_holds_with_gaps;
          Alcotest.test_case "swap fails" `Quick strictly_fails_on_swap;
          Alcotest.test_case "repeats" `Quick strictly_handles_repeats;
        ] );
      ( "metric",
        [
          Alcotest.test_case "within kappa" `Quick metric_holds_within_kappa;
          Alcotest.test_case "beyond kappa" `Quick metric_fails_beyond_kappa;
          Alcotest.test_case "still held" `Quick metric_still_held_counts;
          Alcotest.test_case "late copy fails at t = 15" `Quick
            late_copy_fails_at_coverage_end;
        ] );
      ( "always-leq",
        [
          Alcotest.test_case "holds" `Quick always_leq_holds;
          Alcotest.test_case "transient violation" `Quick always_leq_fails_transiently;
          Alcotest.test_case "missing skipped" `Quick always_leq_skips_missing;
        ] );
      ( "exists-within",
        [
          Alcotest.test_case "in time" `Quick exists_holds_when_parent_arrives_in_time;
          Alcotest.test_case "too late" `Quick exists_fails_when_parent_too_late;
          Alcotest.test_case "never" `Quick exists_fails_when_parent_never_comes;
          Alcotest.test_case "pending" `Quick exists_pending_within_horizon_ok;
          Alcotest.test_case "parent removed" `Quick exists_parent_removed_then_violated;
          Alcotest.test_case "vacuous" `Quick exists_vacuous_without_child;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "holds" `Quick monitor_holds;
          Alcotest.test_case "lying flag" `Quick monitor_fails_when_flag_lies;
          Alcotest.test_case "kappa excuses lag" `Quick monitor_kappa_excuses_lag;
        ] );
      ( "periodic",
        [
          Alcotest.test_case "holds" `Quick periodic_holds;
          Alcotest.test_case "fails inside window" `Quick periodic_fails_inside_window;
          Alcotest.test_case "overnight window" `Quick periodic_overnight_window;
        ] );
      ( "api",
        [
          Alcotest.test_case "metric classification" `Quick metric_classification;
          Alcotest.test_case "for_copy_constraint" `Quick for_copy_constraint_shape;
          Alcotest.test_case "bounded counterexamples" `Quick counterexamples_are_bounded;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_propagation_satisfies_all;
          QCheck_alcotest.to_alcotest qcheck_follows_subsequence;
          QCheck_alcotest.to_alcotest qcheck_metric_monotone;
        ] );
      (* No suite name is wider than "exists-within": a wider one shifts
         the column Alcotest prints and shortens the truncated names of
         the longest tests above. *)
      ( "metric-ref",
        [
          QCheck_alcotest.to_alcotest (qcheck_dense "fold" fold_agrees);
          QCheck_alcotest.to_alcotest (qcheck_dense "stream" stream_agrees);
          QCheck_alcotest.to_alcotest (qcheck_dense "live staleness" staleness_agrees);
        ] );
    ]
