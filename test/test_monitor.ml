(* Streaming §3.3 monitors (Cm_core.Monitor).

   The heart of this file is the differential suite: hundreds of seeded
   random traces — same-instant micro-batches, INS/DEL interleavings,
   repeated values, parameterized items — fed event-by-event into the
   streaming monitors, then re-checked with the post-hoc Guarantee.check
   fold over the identical timeline.  Verdict, obligation count, and
   violation flag must agree trace-by-trace for every supported form.

   On top sit the self-healing units: live staleness verdicts (the §5
   Silent_drop failure caught within κ plus one poll period, where the
   fold only notices at the end of the run), staleness transitions,
   forced refreshes, and feed-discipline errors. *)

module Sys_ = Cm_core.System
module Monitor = Cm_core.Monitor
module Guarantee = Cm_core.Guarantee
module Tr_rel = Cm_core.Tr_relational
module Health = Cm_sources.Health
module Payroll = Cm_workload.Payroll
module Prng = Cm_util.Prng
open Cm_rule

(* ---- differential suite ------------------------------------------- *)

(* A small alphabet with shared last characters, so the feed path's
   base-filter bitmap sees both definitive misses and false-positive
   hits that must still fall through to the exact lookup. *)
let bases = [| "x"; "y"; "z"; "qx"; "qy" |]

let values = [| 1; 2; 3; 42 |]

(* One random trace: events in time order with deliberate same-instant
   clusters (micro-batches), weighted toward writes. *)
let random_events rng ~n =
  let time = ref 0.0 in
  List.init n (fun _ ->
      (* ~1/3 of events share the previous instant. *)
      if Prng.int rng 3 > 0 then
        time := !time +. (0.1 +. Prng.uniform_in rng ~lo:0.0 ~hi:2.0);
      let item = Item.make bases.(Prng.int rng (Array.length bases)) in
      let desc =
        match Prng.int rng 10 with
        | 0 -> Event.ins item
        | 1 -> Event.del item
        | _ -> Event.w item (Value.Int values.(Prng.int rng (Array.length values)))
      in
      (!time, desc))

let forms ~leader ~follower =
  let pair = { Guarantee.leader; follower } in
  [
    Guarantee.Follows pair;
    Guarantee.Leads pair;
    Guarantee.Strictly_follows pair;
    Guarantee.Metric_follows (pair, 0.5);
    Guarantee.Metric_follows (pair, 3.0);
    Guarantee.Metric_follows (pair, 50.0);
    Guarantee.Always_leq { smaller = leader; larger = follower };
  ]

(* Feed one trace through watchers for every form over every ordered
   base pair, finalize, and compare each verdict against the fold. *)
let differential_one ~seed ~n ~with_initial ~ignore_after () =
  let rng = Prng.create ~seed in
  let events = random_events rng ~n in
  let horizon =
    List.fold_left (fun acc (t, _) -> Float.max acc t) 0.0 events +. 1.0
  in
  let ignore_after =
    if ignore_after then Some (horizon /. 2.0) else None
  in
  let initial =
    if with_initial then
      [ (Item.make "x", Value.Int 1); (Item.make "y", Value.Int 2) ]
    else []
  in
  let m = Monitor.create () in
  let trace = Trace.create () in
  Monitor.attach m trace;
  let watched =
    List.concat_map
      (fun leader ->
        List.concat_map
          (fun follower ->
            if String.equal leader follower then []
            else
              List.map
                (fun g -> (g, Monitor.watch ?ignore_after m g))
                (forms ~leader:(Item.make leader)
                   ~follower:(Item.make follower)))
          [ "x"; "y"; "qx" ])
      [ "x"; "y"; "qx" ]
  in
  if initial <> [] then Monitor.note_initial m initial;
  List.iter
    (fun (time, desc) -> ignore (Trace.record trace ~time ~site:"s" desc))
    events;
  Monitor.finalize m ~horizon;
  let tl = Timeline.of_trace ~initial trace in
  List.iter
    (fun (g, handle) ->
      let v = Monitor.verdict handle in
      let rep = Guarantee.check ?ignore_after ~horizon tl g in
      let label =
        Printf.sprintf "seed %d %s" seed (Guarantee.to_string g)
      in
      Alcotest.(check bool) (label ^ ": holds") rep.Guarantee.holds
        v.Monitor.v_holds;
      Alcotest.(check int) (label ^ ": points") rep.Guarantee.checked_points
        v.Monitor.v_points;
      Alcotest.(check bool)
        (label ^ ": violations consistent")
        (not rep.Guarantee.holds)
        (v.Monitor.v_violations > 0))
    watched

let differential_sweep () =
  for seed = 1 to 150 do
    differential_one ~seed ~n:60 ~with_initial:(seed mod 2 = 0)
      ~ignore_after:(seed mod 3 = 0) ()
  done

(* Longer traces stress state pruning (κ windows, leads discharge). *)
let differential_long () =
  for seed = 500 to 520 do
    differential_one ~seed ~n:400 ~with_initial:(seed mod 2 = 0)
      ~ignore_after:false ()
  done

(* The empty trace: finalize alone must reproduce the fold's vacuous
   verdicts (always-leq still samples the 0.0 point when initial values
   exist). *)
let differential_empty () =
  differential_one ~seed:9999 ~n:0 ~with_initial:true ~ignore_after:false ()

(* ---- violation stream --------------------------------------------- *)

let violations_surface_immediately () =
  let m = Monitor.create () in
  let seen = ref [] in
  Monitor.on_violation m (fun v -> seen := v :: !seen);
  let x = Item.make "x" and y = Item.make "y" in
  ignore (Monitor.watch m (Guarantee.Follows { leader = x; follower = y }));
  let ev id time desc =
    { Event.id; time; site = "s"; desc; kind = Event.Spontaneous }
  in
  Monitor.feed m (ev 0 1.0 (Event.w x (Value.Int 1)));
  Monitor.feed m (ev 1 2.0 (Event.w y (Value.Int 7)));
  (* The batch at 2.0 is still open; the next event closes it, and the
     violation (y = 7 never held by x) surfaces attributed to the
     instant of its obligation, 2.0 — not to the event that happened to
     close the batch. *)
  Monitor.feed m (ev 2 3.0 (Event.w x (Value.Int 1)));
  (match !seen with
  | [ v ] ->
    Alcotest.(check (float 1e-9)) "attributed to its instant" 2.0 v.Monitor.vi_at
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs));
  Monitor.finalize m ~horizon:10.0;
  Alcotest.(check int) "no duplicate at finalize" 1 (List.length !seen)

let feed_discipline () =
  let m = Monitor.create () in
  let x = Item.make "x" in
  ignore
    (Monitor.watch m
       (Guarantee.Follows { leader = x; follower = Item.make "y" }));
  let ev id time desc =
    { Event.id; time; site = "s"; desc; kind = Event.Spontaneous }
  in
  Monitor.feed m (ev 0 5.0 (Event.w x (Value.Int 1)));
  (match Monitor.feed m (ev 1 4.0 (Event.w x (Value.Int 2))) with
  | () -> Alcotest.fail "out-of-order feed accepted"
  | exception Invalid_argument _ -> ());
  Monitor.finalize m ~horizon:10.0;
  match Monitor.feed m (ev 2 6.0 (Event.w x (Value.Int 3))) with
  | () -> Alcotest.fail "feed after finalize accepted"
  | exception Invalid_argument _ -> ()

let unsupported_forms_rejected () =
  let m = Monitor.create () in
  let g =
    Guarantee.Exists_within
      { antecedent = Item.make "x"; consequent = Item.make "y"; bound = 5.0 }
  in
  Alcotest.(check bool) "not supported" false (Monitor.supported g);
  match Monitor.watch m g with
  | _ -> Alcotest.fail "unsupported form accepted"
  | exception Invalid_argument _ -> ()

(* ---- live staleness ----------------------------------------------- *)

(* No simulation attached: time is the feed clock.  κ = 2: after the
   leader moves on, a copy still holding the old value turns stale as
   soon as the old value ages out of the (now − κ, now] window. *)
let staleness_verdict_no_sim () =
  let m = Monitor.create () in
  let transitions = ref [] in
  Monitor.on_staleness m (fun ~source:_ ~target:_ ~at ~stale ->
      transitions := (at, stale) :: !transitions);
  Monitor.watch_copy m ~source:"S" ~target:"C" ~kappa:(Some 2.0);
  Alcotest.(check bool) "unwatched pair is never stale" false
    (Monitor.copy_stale m ~source:"S" ~target:"Other");
  let s = Item.make "S" and c = Item.make "C" in
  let feed id time desc =
    Monitor.feed m { Event.id; time; site = "s"; desc; kind = Event.Spontaneous }
  in
  feed 0 1.0 (Event.w s (Value.Int 1));
  feed 1 1.0 (Event.w c (Value.Int 1));
  feed 2 5.0 (Event.w s (Value.Int 2));
  (* At 5.0 the copy's value 1 left the leader at 5.0 exactly: still
     inside the window.  By 8.0 (> 5 + κ) it has aged out — but with no
     simulation clock the passive verdict only reflects the last
     completed instant (the batch at 8.0 is still open), so quiet aging
     needs the probe's synchronous look. *)
  feed 3 8.0 (Event.w s (Value.Int 3));
  Alcotest.(check bool) "passive verdict lags the open instant" false
    (Monitor.copy_stale m ~source:"S" ~target:"C");
  Alcotest.(check bool) "force_refresh sees the aged-out value" true
    (Monitor.force_refresh m ~source:"S" ~target:"C");
  Alcotest.(check bool) "refreshed verdict is cached" true
    (Monitor.copy_stale m ~source:"S" ~target:"C");
  (* The copy catches up; the next completed instant turns it fresh. *)
  feed 4 9.0 (Event.w c (Value.Int 3));
  feed 5 10.0 (Event.w s (Value.Int 3));
  Alcotest.(check bool) "fresh after catch-up" false
    (Monitor.copy_stale m ~source:"S" ~target:"C");
  match List.rev !transitions with
  | (8.0, true) :: (9.0, false) :: [] -> ()
  | ts ->
    Alcotest.failf "expected stale@8 then fresh@9, got [%s]"
      (String.concat "; "
         (List.map (fun (at, s) -> Printf.sprintf "(%.1f,%b)" at s) ts))

(* A re-derived κ re-arms the copy's family once its instant is over,
   and one changed back within the instant — a cutover rolled back on
   the spot — re-arms nothing.  C keeps 1 after S moves to 2 at 5: stale
   from 5 + κ. *)
let kappa_rearm ~flip_back =
  let sim = Cm_sim.Sim.create () in
  let trace = Trace.create () in
  let m = Monitor.create ~sim () in
  Monitor.attach m trace;
  Monitor.watch_copy m ~source:"S" ~target:"C" ~kappa:(Some 2.0);
  let transitions = ref [] in
  Monitor.on_staleness m (fun ~source:_ ~target:_ ~at ~stale ->
      transitions := (at, stale) :: !transitions);
  let s = Item.make "S" and c = Item.make "C" in
  List.iter
    (fun (time, desc) ->
      Cm_sim.Sim.schedule_at sim time (fun () ->
          ignore (Trace.record trace ~time ~site:"s" desc)))
    [ (1.0, Event.w s (Value.Int 1)); (1.0, Event.w c (Value.Int 1));
      (5.0, Event.w s (Value.Int 2)) ];
  Cm_sim.Sim.schedule_at sim 10.0 (fun () ->
      if flip_back then begin
        Monitor.watch_copy m ~source:"S" ~target:"C" ~kappa:None;
        Monitor.watch_copy m ~source:"S" ~target:"C" ~kappa:(Some 2.0)
      end
      else Monitor.watch_copy m ~source:"S" ~target:"C" ~kappa:(Some 10.0));
  Cm_sim.Sim.run sim ~until:20.0;
  Monitor.finalize m ~horizon:20.0;
  let metric =
    List.filter_map
      (fun (g, v) ->
        match g with
        | Guarantee.Metric_follows (_, k) -> Some (k, v.Monitor.v_violations)
        | _ -> None)
      (Monitor.family_verdicts m ~source:"S" ~target:"C")
  in
  (List.rev !transitions, metric)

let kappa_rearm_follows_rederivation () =
  let transitions = Alcotest.(list (pair (float 1e-9) bool)) in
  let t, metric = kappa_rearm ~flip_back:true in
  Alcotest.(check transitions) "flip within the instant: stale at 7 only"
    [ (7.0, true) ] t;
  Alcotest.(check (list (pair (float 1e-9) int))) "still kappa 2, one violation"
    [ (2.0, 1) ] metric;
  let t, metric = kappa_rearm ~flip_back:false in
  Alcotest.(check transitions) "kappa 10 armed after 10: fresh at 11, stale at 15"
    [ (7.0, true); (11.0, false); (15.0, true) ] t;
  Alcotest.(check (list (pair (float 1e-9) int))) "rebuilt at kappa 10" [ (10.0, 1) ]
    metric

(* §5 Silent_drop regression over the real payroll pipeline: writes keep
   landing on the source database (and in the trace), the notifications
   die silently.  The live verdict must flag the copy within κ plus one
   monitor tick of the dropped write — the post-hoc fold over the same
   prefix sees nothing until the horizon. *)
let silent_drop_flagged_within_kappa () =
  let config = Sys_.Config.with_monitor true (Sys_.Config.seeded 4242) in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  let sim = Sys_.sim system in
  let monitor = Option.get (Sys_.monitor system) in
  let nsw = Cm_core.Interface.no_spontaneous_write Payroll.target_pattern in
  Sys_.declare_interfaces system [ nsw ];
  Sys_.declare_copies system [ ("Salary1", "Salary2") ];
  Monitor.note_initial monitor p.Payroll.initial;
  let kappa =
    match Sys_.copy_qualifies system ~source:"Salary1" ~target:"Salary2" with
    | Ok k -> k
    | Error e -> Alcotest.failf "copy does not qualify: %s" e
  in
  let emp = List.hd p.Payroll.employees in
  let stale_at = ref None in
  Monitor.on_staleness monitor (fun ~source:_ ~target:_ ~at ~stale ->
      if stale && !stale_at = None then stale_at := Some at);
  (* A healthy write propagates; then the channel starts dropping. *)
  Payroll.schedule_update p ~at:10.0 ~emp ~salary:1111;
  let health = Tr_rel.health p.Payroll.tr_a in
  Cm_sim.Sim.schedule_at sim 30.0 (fun () ->
      Health.set health Health.Silent_drop);
  Payroll.schedule_update p ~at:35.0 ~emp ~salary:2222;
  Sys_.run system ~until:100.0;
  Alcotest.(check bool) "copy is stale at the horizon" true
    (Monitor.copy_stale monitor ~source:"Salary1" ~target:"Salary2");
  match !stale_at with
  | None -> Alcotest.fail "silent drop never flagged"
  | Some at ->
    let bound = 35.0 +. kappa +. 1.0 (* + one default-tick poll period *) in
    Alcotest.(check bool)
      (Printf.sprintf "flagged at %.2f <= %.2f (write + kappa + tick)" at bound)
      true
      (at <= bound);
    Alcotest.(check bool) "not before the write aged out" true
      (at >= 35.0 +. kappa -. 1e-9)

(* ---- crash recovery (wipe + journal relearn) ---------------------- *)

let ev id time desc =
  { Event.id; time; site = "s"; desc; kind = Event.Spontaneous }

(* Instances are keyed by parameter values, not their "%g" rendering:
   X(1.0000001) and X(1.0000002) print alike but are two instances,
   watched as X(1) and X(2) are. *)
let instances_keyed_by_params () =
  let violations p1 p2 =
    let m = Monitor.create () in
    Monitor.watch_copy m ~source:"X" ~target:"Y" ~kappa:None;
    let w base p b = Event.w (Item.make base ~params:[ p ]) (Value.Int b) in
    List.iteri
      (fun id (time, desc) -> Monitor.feed m (ev id time desc))
      [ (1.0, w "X" p1 5); (2.0, w "X" p2 6); (3.0, w "Y" p2 7) ];
    Monitor.finalize m ~horizon:10.0;
    let verdicts = Monitor.family_verdicts m ~source:"X" ~target:"Y" in
    (List.length verdicts,
     List.fold_left (fun n (_, v) -> n + v.Monitor.v_violations) 0 verdicts)
  in
  let ints = violations (Value.Int 1) (Value.Int 2) in
  Alcotest.(check (pair int int)) "two instances over X(1), X(2)" (6, 4) ints;
  Alcotest.(check (pair int int)) "two instances over X(1.0000001), X(1.0000002)" ints
    (violations (Value.Float 1.0000001) (Value.Float 1.0000002))

let owns_y item = String.equal item.Item.base "y"

(* The ROADMAP gap, unit-level: a crash between a violation and its
   detection must still report the violation.  Two leader takes are
   pending when the follower's site crashes; the wipe destroys the
   obligations, the journal relearn restores them, and finalize fails
   them.  The [relearn:false] control shows the gap being closed: the
   bare wipe buries both violations. *)
let crash_buried_leads_violation_still_reported () =
  let x = Item.make "x" and y = Item.make "y" in
  let run ~relearn =
    let m = Monitor.create () in
    let seen = ref 0 in
    Monitor.on_violation m (fun _ -> incr seen);
    let h = Monitor.watch m (Guarantee.Leads { leader = x; follower = y }) in
    let history =
      [ ev 0 1.0 (Event.w x (Value.Int 5)); ev 1 2.0 (Event.w x (Value.Int 6)) ]
    in
    List.iter (Monitor.feed m) history;
    let wiped = Monitor.crash_wipe m ~owns:owns_y in
    Alcotest.(check int) "one watcher wiped" 1 wiped;
    if relearn then Monitor.relearn m history;
    Monitor.finalize m ~horizon:10.0;
    (Monitor.verdict h, !seen)
  in
  let v, n = run ~relearn:true in
  Alcotest.(check bool) "violations survive the crash" false v.Monitor.v_holds;
  Alcotest.(check int) "both buried obligations fail" 2 v.Monitor.v_violations;
  Alcotest.(check int) "both surfaced on the stream" 2 n;
  let v0, n0 = run ~relearn:false in
  Alcotest.(check bool) "without relearn the crash buries them" true
    v0.Monitor.v_holds;
  Alcotest.(check int) "nothing surfaced without relearn" 0 n0

(* The replay is a state rebuild, not a re-evaluation: history the
   watcher already scored live is not re-scored (no double count), and
   a post-recovery follower take of a value the leader held only before
   the crash is not a false violation (the seen-set is rebuilt). *)
let relearn_rebuilds_without_double_count () =
  let x = Item.make "x" and y = Item.make "y" in
  let m = Monitor.create () in
  let seen = ref 0 in
  Monitor.on_violation m (fun _ -> incr seen);
  let h = Monitor.watch m (Guarantee.Follows { leader = x; follower = y }) in
  let history =
    [
      ev 0 1.0 (Event.w x (Value.Int 5));
      ev 1 2.0 (Event.w y (Value.Int 5));
      ev 2 3.0 (Event.w x (Value.Int 8));
    ]
  in
  List.iter (Monitor.feed m) history;
  ignore (Monitor.crash_wipe m ~owns:owns_y);
  Monitor.relearn m history;
  (* Live again: y takes 8 (held now) and then 5 (held only pre-crash —
     a wiped seen-set would flag it). *)
  Monitor.feed m (ev 3 4.0 (Event.w y (Value.Int 8)));
  Monitor.feed m (ev 4 5.0 (Event.w y (Value.Int 5)));
  Monitor.finalize m ~horizon:10.0;
  let v = Monitor.verdict h in
  Alcotest.(check bool) "no false positive after relearn" true v.Monitor.v_holds;
  Alcotest.(check int) "no violations" 0 v.Monitor.v_violations;
  (* 1 live point pre-crash + 2 live points post-recovery; the replayed
     follower take is deliberately not re-scored. *)
  Alcotest.(check int) "replay scores no points" 3 v.Monitor.v_points;
  Alcotest.(check int) "stream stayed quiet" 0 !seen

(* A relearned obligation is a live obligation: the restored leads take
   discharges against post-recovery follower activity like it was never
   lost. *)
let relearned_obligation_discharges_live () =
  let x = Item.make "x" and y = Item.make "y" in
  let m = Monitor.create () in
  let h = Monitor.watch m (Guarantee.Leads { leader = x; follower = y }) in
  let history = [ ev 0 1.0 (Event.w x (Value.Int 5)) ] in
  List.iter (Monitor.feed m) history;
  ignore (Monitor.crash_wipe m ~owns:owns_y);
  Monitor.relearn m history;
  Monitor.feed m (ev 1 2.0 (Event.w y (Value.Int 5)));
  Monitor.finalize m ~horizon:10.0;
  let v = Monitor.verdict h in
  Alcotest.(check bool) "discharged after recovery" true v.Monitor.v_holds;
  Alcotest.(check int) "no violations" 0 v.Monitor.v_violations

(* End-to-end through the system: a durable payroll world where the
   target site crashes before an in-flight propagation arrives (no
   reliable layer, so the fire is genuinely lost).  The source's write
   is journaled; the crash wipes the monitor watchers homed at the
   target site; [Sys_.restart_site] relearns them from the merged
   journals.  The lost update is a real Leads violation, and it must
   still be reported even though the watcher that owed the detection
   was down when the evidence went by. *)
let system_crash_between_violation_and_detection () =
  let config =
    Sys_.Config.(
      seeded 606 |> with_monitor true
      |> with_durability Cm_core.Journal.Journal_with_checkpoint)
  in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  let monitor = Option.get (Sys_.monitor system) in
  Monitor.note_initial monitor p.Payroll.initial;
  let emp = List.hd p.Payroll.employees in
  let h =
    Monitor.watch monitor
      (Guarantee.Leads
         {
           leader = Payroll.source_item emp;
           follower = Payroll.target_item emp;
         })
  in
  let violations = ref [] in
  Monitor.on_violation monitor (fun v -> violations := v :: !violations);
  let sim = Sys_.sim system in
  Cm_sim.Sim.schedule_at sim 1.0 (fun () ->
      Sys_.crash_site system ~site:Payroll.site_b);
  Payroll.schedule_update p ~at:2.0 ~emp ~salary:4242;
  Cm_sim.Sim.schedule_at sim 50.0 (fun () ->
      Sys_.restart_site system ~site:Payroll.site_b);
  Sys_.run system ~until:200.0;
  Alcotest.(check bool) "the update really was lost" true
    (Value.to_float (Payroll.salary_at p `B emp) <> 4242.0);
  Monitor.finalize monitor ~horizon:200.0;
  let v = Monitor.verdict h in
  Alcotest.(check bool) "lost propagation detected" false v.Monitor.v_holds;
  Alcotest.(check bool) "violation names the buried value" true
    (List.exists
       (fun vi ->
         let s = vi.Monitor.vi_detail in
         let needle = "4242" in
         let n = String.length s and k = String.length needle in
         let rec scan i = i + k <= n && (String.sub s i k = needle || scan (i + 1)) in
         scan 0)
       !violations)

(* ---- relearn differential ----------------------------------------- *)

let render_violation v =
  Printf.sprintf "%.6f %s %s" v.Monitor.vi_at
    (Guarantee.to_string v.Monitor.vi_guarantee)
    v.Monitor.vi_detail

(* Two monitors over one simulated trace: a twin that never crashes, and
   one whose y-homed watchers crash and relearn from the trace at two
   distinct times — between instants, or (every other pair of seeds)
   right after an instant's events, while its batch is still open.  A
   relearn rebuilds exactly the state the twin holds, so from the
   restart on both report the same violations, in the same order.
   Returns whether they diverged. *)
let relearn_diverges ~seed =
  let rng = Prng.create ~seed in
  let events = random_events rng ~n:60 in
  let instants = Array.of_list (List.sort_uniq Float.compare (List.map fst events)) in
  let k = Array.length instants in
  let point i =
    if seed mod 4 < 2 then (instants.(i) +. instants.(i + 1)) /. 2.0
    else instants.(i + 1)
  in
  let crash_point = Prng.int rng (k - 2) in
  let crash_at = point crash_point in
  let restart_at = point (crash_point + 1 + Prng.int rng (k - 2 - crash_point)) in
  let horizon = instants.(k - 1) +. 1.0 in
  let ignore_after = if seed mod 3 = 0 then Some (horizon /. 2.0) else None in
  let initial =
    if seed mod 2 = 0 then [ (Item.make "x", Value.Int 1); (Item.make "y", Value.Int 2) ]
    else []
  in
  let sim = Cm_sim.Sim.create ~seed () in
  let trace = Trace.create () in
  let monitor () =
    let m = Monitor.create ~sim () in
    Monitor.attach m trace;
    let log = ref [] in
    Monitor.on_violation m (fun v -> log := v :: !log);
    List.iter
      (fun leader ->
        List.iter
          (fun follower ->
            if not (String.equal leader follower) then
              List.iter
                (fun g -> ignore (Monitor.watch ?ignore_after m g))
                (forms ~leader:(Item.make leader) ~follower:(Item.make follower)))
          [ "x"; "y"; "qx" ])
      [ "x"; "y"; "qx" ];
    Monitor.watch_copy m ~source:"x" ~target:"y" ~kappa:(Some 3.0);
    if initial <> [] then Monitor.note_initial m initial;
    (m, log)
  in
  let twin, twin_log = monitor () in
  let crashed, crashed_log = monitor () in
  List.iter
    (fun (time, desc) ->
      Cm_sim.Sim.schedule_at sim time (fun () ->
          ignore (Trace.record trace ~time ~site:"s" desc)))
    events;
  Cm_sim.Sim.schedule_at sim crash_at (fun () ->
      ignore (Monitor.crash_wipe crashed ~owns:owns_y));
  Cm_sim.Sim.schedule_at sim restart_at (fun () ->
      Monitor.relearn crashed (Trace.events trace));
  Cm_sim.Sim.run sim ~until:horizon;
  Monitor.finalize twin ~horizon;
  Monitor.finalize crashed ~horizon;
  let after log =
    List.rev !log
    |> List.filter (fun v -> v.Monitor.vi_at >= restart_at)
    |> List.map render_violation
  in
  after twin_log <> after crashed_log

let relearn_differential () =
  let diverging = List.filter (fun seed -> relearn_diverges ~seed) (List.init 400 succ) in
  Alcotest.(check (list int)) "seeds whose relearned monitor diverges" [] diverging

(* A historical INS resolves against the item's value at its own
   instant: x was deleted at 2, so the INS at 3 takes Null — which y may
   then follow. *)
let relearn_resolves_historical_ins () =
  let x = Item.make "x" and y = Item.make "y" in
  let m = Monitor.create () in
  let h = Monitor.watch m (Guarantee.Follows { leader = x; follower = y }) in
  let history =
    [
      ev 0 1.0 (Event.w x (Value.Int 1));
      ev 1 2.0 (Event.del x);
      ev 2 3.0 (Event.ins x);
      ev 3 4.0 (Event.w x (Value.Int 5));
      ev 4 4.5 (Event.w y (Value.Int 5));
      ev 5 5.0 (Event.w x (Value.Int 5));
    ]
  in
  List.iter (Monitor.feed m) history;
  ignore (Monitor.crash_wipe m ~owns:owns_y);
  Monitor.relearn m history;
  Monitor.feed m (ev 6 6.0 (Event.w y Value.Null));
  Monitor.finalize m ~horizon:10.0;
  Alcotest.(check bool) "y = null follows x's INS" true (Monitor.verdict h).Monitor.v_holds

(* The values given to [note_initial] are part of what a relearn
   replays. *)
let relearn_replays_initial_values () =
  let x = Item.make "x" and y = Item.make "y" in
  let m = Monitor.create () in
  let h = Monitor.watch m (Guarantee.Follows { leader = x; follower = y }) in
  Monitor.note_initial m [ (x, Value.Int 7) ];
  Monitor.feed m (ev 0 1.0 (Event.w x (Value.Int 8)));
  ignore (Monitor.crash_wipe m ~owns:owns_y);
  Monitor.relearn m [ ev 0 1.0 (Event.w x (Value.Int 8)) ];
  Monitor.feed m (ev 1 2.0 (Event.w y (Value.Int 7)));
  Monitor.finalize m ~horizon:10.0;
  Alcotest.(check bool) "y = 7 follows the initial x = 7" true
    (Monitor.verdict h).Monitor.v_holds

(* A durable two-site system: X lives at site a, Y at site b.  X takes
   [v], b crashes and restarts, then Y takes [v] too. *)
let leads_across_follower_restart v =
  let config =
    Sys_.Config.(
      seeded 5 |> with_monitor true |> with_durability Cm_core.Journal.Journal)
  in
  let x = Item.make "X" and y = Item.make "Y" in
  let system =
    Sys_.create ~config (fun item -> if String.equal item.Item.base "X" then "a" else "b")
  in
  let shell_a = Sys_.add_shell system ~site:"a" in
  let shell_b = Sys_.add_shell system ~site:"b" in
  let monitor = Option.get (Sys_.monitor system) in
  let h = Monitor.watch monitor (Guarantee.Leads { leader = x; follower = y }) in
  let sim = Sys_.sim system in
  Cm_sim.Sim.schedule_at sim 1.0 (fun () -> Cm_core.Shell.write_aux shell_a x v);
  Cm_sim.Sim.schedule_at sim 2.0 (fun () -> Sys_.crash_site system ~site:"b");
  Cm_sim.Sim.schedule_at sim 3.0 (fun () -> Sys_.restart_site system ~site:"b");
  Cm_sim.Sim.schedule_at sim 4.0 (fun () -> Cm_core.Shell.write_aux shell_b y v);
  Sys_.run system ~until:10.0;
  Monitor.finalize monitor ~horizon:10.0;
  Monitor.verdict h

let relearn_keeps_float_exact () =
  let v = leads_across_follower_restart (Value.Float 1234567.5) in
  Alcotest.(check bool) "Y reflected X's exact value" true v.Monitor.v_holds

let relearn_takes_huge_int () =
  let v = leads_across_follower_restart (Value.Int min_int) in
  Alcotest.(check bool) "Y reflected X's value" true v.Monitor.v_holds

(* The instant completed just before a crash was heard live: its leader
   take scores a point even though its batch had not flushed yet. *)
let crash_keeps_completed_instant () =
  let config =
    Sys_.Config.(
      seeded 606 |> with_monitor true
      |> with_durability Cm_core.Journal.Journal_with_checkpoint)
  in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  let monitor = Option.get (Sys_.monitor system) in
  Monitor.note_initial monitor p.Payroll.initial;
  let emp = List.hd p.Payroll.employees in
  let g =
    Guarantee.Leads
      { leader = Payroll.source_item emp; follower = Payroll.target_item emp }
  in
  let h = Monitor.watch monitor g in
  let sim = Sys_.sim system in
  Payroll.schedule_update p ~at:2.0 ~emp ~salary:4242;
  Cm_sim.Sim.schedule_at sim 2.5 (fun () -> Sys_.crash_site system ~site:Payroll.site_b);
  Cm_sim.Sim.schedule_at sim 50.0 (fun () ->
      Sys_.restart_site system ~site:Payroll.site_b);
  Sys_.run system ~until:200.0;
  Monitor.finalize monitor ~horizon:200.0;
  let fold =
    Guarantee.check ~horizon:200.0 (Sys_.timeline ~initial:p.Payroll.initial system) g
  in
  Alcotest.(check int) "streamed points = the fold's" fold.Guarantee.checked_points
    (Monitor.verdict h).Monitor.v_points

(* The monitor only observes: a monitored run's trace is byte-identical
   to an unmonitored one. *)
let observation_only () =
  let run monitored =
    let base = Sys_.Config.seeded 777 in
    let config = if monitored then Sys_.Config.with_monitor true base else base in
    let p = Payroll.create ~config ~employees:2 () in
    Payroll.install_propagation p;
    Payroll.random_updates p ~mean_interarrival:15.0 ~until:300.0;
    Sys_.run p.Payroll.system ~until:400.0;
    List.map Event.to_string (Trace.events (Sys_.trace p.Payroll.system))
  in
  Alcotest.(check (list string)) "same trace" (run false) (run true)

let () =
  Alcotest.run "cm_monitor"
    [
      ( "differential",
        [
          Alcotest.test_case "150 random traces, all forms" `Quick
            differential_sweep;
          Alcotest.test_case "long traces" `Quick differential_long;
          Alcotest.test_case "empty trace" `Quick differential_empty;
        ] );
      ( "violations",
        [
          Alcotest.test_case "surface at their instant" `Quick
            violations_surface_immediately;
          Alcotest.test_case "feed discipline" `Quick feed_discipline;
          Alcotest.test_case "unsupported forms" `Quick
            unsupported_forms_rejected;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "verdict + transitions" `Quick
            staleness_verdict_no_sim;
          Alcotest.test_case "silent drop within kappa + tick" `Quick
            silent_drop_flagged_within_kappa;
          Alcotest.test_case "observation only" `Quick observation_only;
          Alcotest.test_case "instances keyed by params" `Quick instances_keyed_by_params;
          Alcotest.test_case "kappa re-arm follows re-derivation" `Quick
            kappa_rearm_follows_rederivation;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "crash between violation and detection" `Quick
            crash_buried_leads_violation_still_reported;
          Alcotest.test_case "relearn is silent (no double count)" `Quick
            relearn_rebuilds_without_double_count;
          Alcotest.test_case "relearned obligation discharges" `Quick
            relearned_obligation_discharges_live;
          Alcotest.test_case "system-level lost propagation" `Quick
            system_crash_between_violation_and_detection;
          Alcotest.test_case "relearned = never crashed (400 traces)" `Quick
            relearn_differential;
          Alcotest.test_case "historical INS" `Quick relearn_resolves_historical_ins;
          Alcotest.test_case "initial values" `Quick relearn_replays_initial_values;
          Alcotest.test_case "lossy float" `Quick relearn_keeps_float_exact;
          Alcotest.test_case "huge int" `Quick relearn_takes_huge_int;
          Alcotest.test_case "lost point" `Quick crash_keeps_completed_instant;
        ] );
    ]
