(* Tests for the constraint-aware read router (Cm_route.Route): the
   qualification/fallback matrix (replica -> master -> forced poll), the
   inclusive kappa <= SLO boundary — including a sampled channel whose
   kappa carries the poll period in the same end-to-end seconds as the
   SLO — replicas dropping out and re-qualifying across rule-epoch
   churn, and byte-determinism of the cmtool route reports. *)

module Net = Cm_net.Net
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Msg = Cm_core.Msg
module Interface = Cm_core.Interface
module Strategy = Cm_core.Strategy
module Evolution = Cm_core.Evolution
module Route = Cm_route.Route
module Payroll = Cm_workload.Payroll
open Cm_rule

let ok_or_fail label = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" label m

let outcome =
  Alcotest.testable
    (fun ppf o -> Format.pp_print_string ppf (Route.outcome_to_string o))
    ( = )

let skip_reasons d =
  List.map (fun s -> (s.Route.sk_target, s.Route.sk_reason)) d.Route.d_skips

(* -- a two-replica star --------------------------------------------------

   Feed mastered at hub; CopyA at ra with kappa 5, CopyB at rb with
   kappa 20 (kappa = notify delta 2 + propagation delta + write delta 1).
   All links at the network default 0.05 s base, so a local replica
   costs 0 and any remote read costs 0.1. *)

let star_program =
  String.concat "\n"
    [
      "nf: Ws(Feed(n), b) ->[2] N(Feed(n), b)";
      "wa: WR(CopyA(n), b) ->[1] W(CopyA(n), b)";
      "qa: Ws(CopyA(n), b) -> FALSE";
      "pa: N(Feed(n), b) ->[2] WR(CopyA(n), b)";
      "wb: WR(CopyB(n), b) ->[1] W(CopyB(n), b)";
      "qb: Ws(CopyB(n), b) -> FALSE";
      "pb: N(Feed(n), b) ->[17] WR(CopyB(n), b)";
    ]

let star_locator (item : Item.t) =
  match item.Item.base with
  | "Feed" -> "hub"
  | "CopyA" -> "ra"
  | "CopyB" -> "rb"
  | b -> Alcotest.failf "unexpected base %s" b

(* [keep] filters the program's rules (by id) before the system declares
   and installs them — dropping the quiet statements makes kappa
   unprovable. *)
let star ?(seed = 7) ?(keep = fun _ -> true) () =
  let rules = Parser.parse_rules star_program in
  let rules = List.filter (fun r -> keep r.Rule.id) rules in
  let interfaces, strategy =
    List.partition (fun r -> Interface.classify r <> None) rules
  in
  let system = Sys_.create ~config:(Sys_.Config.seeded seed) star_locator in
  Sys_.declare_interfaces system interfaces;
  Sys_.install system
    { Strategy.strategy_name = "star"; description = "propagate Feed";
      rules = strategy; aux_init = [] };
  let route =
    Route.create system ~constraints:[ ("Feed", "CopyA"); ("Feed", "CopyB") ]
  in
  (system, route)

(* -- qualification and replica selection -- *)

let replica_local_and_cheapest () =
  let _, route = star () in
  (* Local copy wins at zero cost. *)
  let d = Route.read route ~client_site:"ra" "Feed" in
  Alcotest.check outcome "local replica" Route.Replica d.Route.d_outcome;
  Alcotest.(check string) "served CopyA" "CopyA" d.Route.d_served_base;
  Alcotest.(check (float 1e-9)) "kappa 5" 5.0 d.Route.d_served_kappa;
  Alcotest.(check (float 1e-9)) "zero latency" 0.0 d.Route.d_latency;
  (* Both qualify from rb: the local one is cheaper. *)
  let d = Route.read route ~client_site:"rb" "Feed" in
  Alcotest.(check string) "rb serves its own copy" "CopyB" d.Route.d_served_base;
  (* From a third site both cost the same round trip: the site-name
     tie-break picks ra deterministically. *)
  let d = Route.read route ~client_site:"cx" "Feed" in
  Alcotest.(check string) "tie broken by site" "CopyA" d.Route.d_served_base;
  Alcotest.(check (float 1e-9)) "one round trip" 0.1 d.Route.d_latency

let slo_filters_catalog () =
  let _, route = star () in
  (* SLO 10: CopyB (kappa 20) is over budget, CopyA still qualifies even
     from rb — a stale-enough local copy is not served. *)
  let d = Route.read ~within_kappa:10.0 route ~client_site:"rb" "Feed" in
  Alcotest.check outcome "remote replica" Route.Replica d.Route.d_outcome;
  Alcotest.(check string) "served CopyA" "CopyA" d.Route.d_served_base;
  Alcotest.(check (list (pair string string)))
    "CopyB skipped over-slo"
    [ ("CopyB", "over-slo") ]
    (skip_reasons d)

let slo_boundary_is_inclusive () =
  let _, route = star () in
  (* kappa = SLO qualifies: both are end-to-end seconds. *)
  let d = Route.read ~within_kappa:5.0 route ~client_site:"ra" "Feed" in
  Alcotest.check outcome "kappa = slo serves replica" Route.Replica
    d.Route.d_outcome;
  Alcotest.(check (float 1e-9)) "kappa 5" 5.0 d.Route.d_served_kappa;
  (* Just under the bound: nothing qualifies, fall back to the master. *)
  let d = Route.read ~within_kappa:4.999 route ~client_site:"ra" "Feed" in
  Alcotest.check outcome "below kappa falls back" Route.Master d.Route.d_outcome;
  Alcotest.(check string) "master serves Feed" "Feed" d.Route.d_served_base;
  Alcotest.(check string) "at hub" "hub" d.Route.d_served_site;
  Alcotest.(check (float 1e-9)) "authoritative kappa" 0.0 d.Route.d_served_kappa;
  Alcotest.(check (list (pair string string)))
    "both copies over-slo"
    [ ("CopyA", "over-slo"); ("CopyB", "over-slo") ]
    (skip_reasons d)

(* A sampled channel's kappa includes the poll period, in the same
   seconds the SLO is expressed in — so a copy refreshed every 120 s
   qualifies at SLO = kappa exactly and not one millisecond under. *)
let sampled_kappa_same_units () =
  let p =
    Payroll.create
      ~config:(Sys_.Config.seeded 1701)
      ~employees:1 ~mode:Payroll.Read_only ()
  in
  Payroll.install_polling ~period:120.0 p;
  let system = p.Payroll.system in
  let nsw = Interface.no_spontaneous_write Payroll.target_pattern in
  Sys_.declare_interfaces system [ nsw ];
  let route = Route.create system ~constraints:[ ("Salary1", "Salary2") ] in
  let entry =
    match Sys_.copy_view system ~source:"Salary1" ~target:"Salary2" with
    | Some e -> e
    | None -> Alcotest.fail "copy not declared"
  in
  let kappa =
    match entry.Sys_.Guarantee_view.gv_kappa with
    | Some k -> k
    | None -> Alcotest.fail "sampled kappa unprovable"
  in
  Alcotest.(check bool)
    (Printf.sprintf "kappa (%g) includes the 120 s period" kappa)
    true (kappa >= 120.0);
  let d =
    Route.read ~within_kappa:kappa route ~client_site:Payroll.site_b "Salary1"
  in
  Alcotest.check outcome "slo = kappa qualifies" Route.Replica d.Route.d_outcome;
  let d =
    Route.read
      ~within_kappa:(kappa -. 0.001)
      route ~client_site:Payroll.site_b "Salary1"
  in
  Alcotest.check outcome "slo just under kappa does not" Route.Master
    d.Route.d_outcome

(* A filtered channel bounds no staleness.  Conditional notify at a
   10 % threshold reports 2000 and drops the three small changes after
   it, so the replica keeps 2000 while the master left that value at
   t = 110: Derive proves no kappa and the read goes to the master.  A
   notify channel reports every change and the replica qualifies. *)
let filtered_channel_not_served () =
  let run mode =
    let p =
      Payroll.create ~config:(Sys_.Config.seeded 1000) ~employees:1 ~mode ()
    in
    Payroll.install_propagation p;
    let system = p.Payroll.system in
    Sys_.declare_interfaces system
      [ Interface.no_spontaneous_write Payroll.target_pattern ];
    let route = Route.create system ~constraints:[ ("Salary1", "Salary2") ] in
    let emp = List.hd p.Payroll.employees in
    List.iter
      (fun (at, salary) -> Payroll.schedule_update p ~at ~emp ~salary)
      [ (10.0, 2000); (110.0, 2050); (210.0, 2040); (310.0, 2030) ];
    Sys_.run system ~until:600.0;
    let qualifies =
      Sys_.copy_qualifies ~slo:30.0 system ~source:"Salary1" ~target:"Salary2"
    in
    let d =
      Route.read ~within_kappa:30.0 route ~client_site:Payroll.site_b "Salary1"
    in
    (Payroll.salary_at p `A emp, Payroll.salary_at p `B emp, qualifies, d)
  in
  let master, replica, qualifies, d = run (Payroll.Conditional 0.1) in
  Alcotest.(check string) "master moved on" "2030" (Value.to_string master);
  Alcotest.(check string) "replica kept 2000" "2000" (Value.to_string replica);
  Alcotest.(check bool) "no kappa qualifies" true (Result.is_error qualifies);
  Alcotest.check outcome "master read" Route.Master d.Route.d_outcome;
  Alcotest.(check string) "answered by the master" "Salary1" d.Route.d_served_base;
  let _, replica, qualifies, d = run Payroll.Notify in
  Alcotest.(check string) "notify replica current" "2030" (Value.to_string replica);
  Alcotest.(check bool) "kappa 11 qualifies" true (qualifies = Ok 11.0);
  Alcotest.check outcome "replica read" Route.Replica d.Route.d_outcome

(* -- fallback matrix -- *)

let unprovable_falls_back_to_master () =
  (* Without the no-spontaneous-write statements nothing is provable. *)
  let _, route = star ~keep:(fun id -> id <> "qa" && id <> "qb") () in
  let d = Route.read route ~client_site:"ra" "Feed" in
  Alcotest.check outcome "master" Route.Master d.Route.d_outcome;
  Alcotest.(check (list (pair string string)))
    "both unprovable"
    [ ("CopyA", "unprovable"); ("CopyB", "unprovable") ]
    (skip_reasons d)

let invalidated_copy_skipped () =
  let system, route = star () in
  let shell = Sys_.add_shell system ~site:"ra" in
  Shell.report_failure shell Msg.Metric;
  let d = Route.read route ~client_site:"ra" "Feed" in
  Alcotest.check outcome "other replica serves" Route.Replica d.Route.d_outcome;
  Alcotest.(check string) "served CopyB" "CopyB" d.Route.d_served_base;
  Alcotest.(check (list (pair string string)))
    "CopyA invalidated"
    [ ("CopyA", "invalidated") ]
    (skip_reasons d);
  let entry =
    match Sys_.copy_view system ~source:"Feed" ~target:"CopyA" with
    | Some e -> e
    | None -> Alcotest.fail "copy not declared"
  in
  Alcotest.(check bool) "view shows invalid" false
    entry.Sys_.Guarantee_view.gv_valid

let partitioned_master_forces_poll () =
  let system, route = star () in
  let net = Sys_.net system in
  Net.partition net ~from_site:"ra" ~to_site:"hub" ~until:1e9;
  (* SLO 1: no copy qualifies; the master is unreachable from ra; the
     poll is relayed via rb, the only replica site that still reaches
     the hub: penalty 1.0 + rt(ra,rb) 0.1 + rt(rb,hub) 0.1. *)
  let d = Route.read ~within_kappa:1.0 route ~client_site:"ra" "Feed" in
  Alcotest.check outcome "forced poll" Route.Forced_poll d.Route.d_outcome;
  Alcotest.(check string) "answered by the master" "Feed" d.Route.d_served_base;
  Alcotest.(check (float 1e-9)) "authoritative kappa" 0.0 d.Route.d_served_kappa;
  Alcotest.(check (float 1e-9)) "penalty + relay trips" 1.2 d.Route.d_latency;
  (* From rb the master is still reachable: plain master fallback. *)
  let d = Route.read ~within_kappa:1.0 route ~client_site:"rb" "Feed" in
  Alcotest.check outcome "master from rb" Route.Master d.Route.d_outcome

(* -- epoch churn: a replica loses its guarantee, then wins it back -- *)

(* Epoch 1 of the churn tests: an empty program — nothing propagates. *)
let noop =
  {
    Strategy.strategy_name = "noop";
    description = "no propagation";
    rules = [];
    aux_init = [];
  }

(* The payroll copy at seed 1702 with propagation installed.  [nsw]
   (default true) declares the target's no-spontaneous-write statement
   before the router declares the copy. *)
let payroll_route ?(nsw = true) () =
  let p = Payroll.create ~config:(Sys_.Config.seeded 1702) ~employees:1 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  if nsw then
    Sys_.declare_interfaces system
      [ Interface.no_spontaneous_write Payroll.target_pattern ];
  let route = Route.create system ~constraints:[ ("Salary1", "Salary2") ] in
  (system, fun () -> Route.read route ~client_site:Payroll.site_b "Salary1")

let epoch_churn_requalifies () =
  let system, read = payroll_route () in
  let d = read () in
  Alcotest.check outcome "epoch 0 serves the replica" Route.Replica
    d.Route.d_outcome;
  Alcotest.(check (float 1e-9)) "kappa 11" 11.0 d.Route.d_served_kappa;
  let evo = Evolution.create system in
  (* Epoch 1: the metric guarantee is lost, the router must stop serving
     the copy. *)
  ignore (ok_or_fail "propose noop" (Evolution.propose evo noop));
  ignore (ok_or_fail "cutover noop" (Evolution.cutover evo));
  ok_or_fail "retire 0" (Evolution.retire evo ~epoch:0);
  let d = read () in
  Alcotest.check outcome "lost guarantee falls back" Route.Master
    d.Route.d_outcome;
  Alcotest.(check (list (pair string string)))
    "skipped epoch-lost"
    [ ("Salary2", "epoch-lost") ]
    (skip_reasons d);
  (* Epoch 2: propagation reinstated — the copy re-qualifies. *)
  let v2 =
    Strategy.propagate ~prefix:"v2" ~delta:5.0 ~source:Payroll.source_pattern
      ~target:Payroll.target_pattern ()
  in
  ignore (ok_or_fail "propose v2" (Evolution.propose evo v2));
  ignore (ok_or_fail "cutover v2" (Evolution.cutover evo));
  ok_or_fail "retire 1" (Evolution.retire evo ~epoch:1);
  let d = read () in
  Alcotest.check outcome "re-qualified" Route.Replica d.Route.d_outcome;
  Alcotest.(check (float 1e-9)) "kappa restored" 11.0 d.Route.d_served_kappa

let qualifies =
  Alcotest.(result (float 1e-9) string)

(* A cutover re-derives every declared copy from the program it
   installs: a copy whose propagation the new program drops stops being
   served, whoever built the evolver. *)
let cutover_rederives_every_copy () =
  let system, read = payroll_route () in
  let evo = Evolution.create system in
  ignore (ok_or_fail "evolve noop" (Evolution.evolve ~quiesce:false evo noop));
  Alcotest.check qualifies "copy lost with its program" (Error "epoch-lost")
    (Sys_.copy_qualifies system ~source:"Salary1" ~target:"Salary2");
  let d = read () in
  Alcotest.check outcome "master read" Route.Master d.Route.d_outcome;
  Alcotest.(check (list (pair string string)))
    "skipped epoch-lost"
    [ ("Salary2", "epoch-lost") ]
    (skip_reasons d)

(* The re-derivation reads the interface statements the router's κ came
   from: an equivalent program keeps the copy at κ 11. *)
let cutover_keeps_the_interfaces () =
  let system, read = payroll_route () in
  let evo = Evolution.create system in
  let v2 =
    Strategy.propagate ~prefix:"v2" ~delta:5.0 ~source:Payroll.source_pattern
      ~target:Payroll.target_pattern ()
  in
  ignore (ok_or_fail "evolve v2" (Evolution.evolve ~quiesce:false evo v2));
  Alcotest.check qualifies "copy kept" (Ok 11.0)
    (Sys_.copy_qualifies system ~source:"Salary1" ~target:"Salary2");
  let d = read () in
  Alcotest.check outcome "replica read" Route.Replica d.Route.d_outcome;
  Alcotest.(check (float 1e-9)) "kappa 11" 11.0 d.Route.d_served_kappa

(* A copy declared before the statement its κ needs is served once that
   statement is declared. *)
let copy_follows_declarations () =
  let system, read = payroll_route ~nsw:false () in
  let d = read () in
  Alcotest.check outcome "unprovable: master read" Route.Master d.Route.d_outcome;
  Alcotest.(check (list (pair string string)))
    "skipped unprovable"
    [ ("Salary2", "unprovable") ]
    (skip_reasons d);
  Sys_.declare_interfaces system
    [ Interface.no_spontaneous_write Payroll.target_pattern ];
  let d = read () in
  Alcotest.check outcome "replica read" Route.Replica d.Route.d_outcome;
  Alcotest.(check (float 1e-9)) "kappa 11" 11.0 d.Route.d_served_kappa

(* -- quarantine: live staleness pulls a copy out of service ---------- *)

(* A §5 Silent_drop makes Salary2 stale; the monitor's transition
   quarantines it instantly.  Re-admission is half-open: reads before
   the dwell skip "quarantined", the first read after it probes (one
   forced refresh billed as a poll); a probe against a still-stale copy
   re-arms the quarantine, and only a fresh probe returns the copy to
   service. *)
let quarantine_probe_readmission () =
  let module Monitor = Cm_core.Monitor in
  let module Tr_rel = Cm_core.Tr_relational in
  let module Health = Cm_sources.Health in
  let config = Sys_.Config.with_monitor true (Sys_.Config.seeded 1703) in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  let sim = Sys_.sim system in
  let monitor = Option.get (Sys_.monitor system) in
  let nsw = Interface.no_spontaneous_write Payroll.target_pattern in
  Sys_.declare_interfaces system [ nsw ];
  let route = Route.create system ~constraints:[ ("Salary1", "Salary2") ] in
  Monitor.note_initial monitor p.Payroll.initial;
  let kappa =
    match Sys_.copy_qualifies system ~source:"Salary1" ~target:"Salary2" with
    | Ok k -> k
    | Error e -> Alcotest.failf "copy does not qualify: %s" e
  in
  Alcotest.(check (float 1e-9)) "kappa 11" 11.0 kappa;
  let emp = List.hd p.Payroll.employees in
  let decisions = ref [] in
  let read_at at label =
    Cm_sim.Sim.schedule_at sim at (fun () ->
        let d = Route.read route ~client_site:Payroll.site_b "Salary1" in
        decisions := (label, d) :: !decisions)
  in
  (* t=10: healthy write, propagates.  t=30: channel starts dropping
     silently.  t=35: a dropped write — staleness onset at 35 + κ = 46,
     quarantine entry on the tick that notices it, probe due ~5 s on. *)
  Payroll.schedule_update p ~at:10.0 ~emp ~salary:1111;
  let health = Tr_rel.health p.Payroll.tr_a in
  Cm_sim.Sim.schedule_at sim 30.0 (fun () ->
      Health.set health Health.Silent_drop);
  Payroll.schedule_update p ~at:35.0 ~emp ~salary:2222;
  Cm_sim.Sim.schedule_at sim 40.0 (fun () -> Health.set health Health.Healthy);
  read_at 20.0 "healthy";
  read_at 48.0 "dwell";  (* quarantined, probe not yet due *)
  read_at 54.0 "probe-stale";  (* probe fires; copy still stale; re-arm *)
  (* t=56: a fresh write propagates (arrives ~57.2), so the next probe
     after the re-armed dwell (54 + 5) finds the copy fresh. *)
  Payroll.schedule_update p ~at:56.0 ~emp ~salary:3333;
  read_at 62.0 "probe-fresh";
  read_at 65.0 "served-again";
  Sys_.run system ~until:80.0;
  let d label = List.assoc label !decisions in
  Alcotest.check outcome "healthy read serves the replica" Route.Replica
    (d "healthy").Route.d_outcome;
  Alcotest.check outcome "quarantined read falls back" Route.Master
    (d "dwell").Route.d_outcome;
  Alcotest.(check (list (pair string string)))
    "dwell skip reason"
    [ ("Salary2", "quarantined") ]
    (skip_reasons (d "dwell"));
  Alcotest.check outcome "stale probe falls back" Route.Master
    (d "probe-stale").Route.d_outcome;
  Alcotest.(check (list (pair string string)))
    "stale probe skip reason"
    [ ("Salary2", "stale") ]
    (skip_reasons (d "probe-stale"));
  Alcotest.check outcome "fresh probe serves the replica" Route.Replica
    (d "probe-fresh").Route.d_outcome;
  Alcotest.(check bool)
    (Printf.sprintf "probe pays the poll surcharge (%.2f)"
       (d "probe-fresh").Route.d_latency)
    true
    ((d "probe-fresh").Route.d_latency >= 1.0);
  Alcotest.check outcome "readmitted copy serves normally" Route.Replica
    (d "served-again").Route.d_outcome;
  Alcotest.(check bool) "no surcharge once readmitted" true
    ((d "served-again").Route.d_latency < 1.0);
  Alcotest.(check int) "one quarantine entry" 1 (Route.quarantines route);
  Alcotest.(check int) "two probes" 2 (Route.probes route);
  Alcotest.(check int) "one readmission" 1 (Route.readmissions route);
  Alcotest.(check (list (triple string string (float 1e-9))))
    "quarantine list empty at the end" [] (Route.quarantined route)

(* The monitor family checks the κ of the copy's current report: a copy
   declared before the no-spontaneous-write statement its κ needs is
   watched like one declared after it.  A silent drop at 30, a dropped
   write at 35 (stale from 35 + κ = 46), a read at 70: the master
   serves it and the copy is quarantined once, in either order. *)
let monitor_follows_declarations () =
  let module Monitor = Cm_core.Monitor in
  let module Health = Cm_sources.Health in
  let run ~copy_first =
    let config = Sys_.Config.with_monitor true (Sys_.Config.seeded 1703) in
    let p = Payroll.create ~config ~employees:1 () in
    Payroll.install_propagation p;
    let system = p.Payroll.system in
    let sim = Sys_.sim system in
    let monitor = Option.get (Sys_.monitor system) in
    let nsw () =
      Sys_.declare_interfaces system
        [ Interface.no_spontaneous_write Payroll.target_pattern ]
    in
    if not copy_first then nsw ();
    let route = Route.create system ~constraints:[ ("Salary1", "Salary2") ] in
    if copy_first then nsw ();
    Monitor.note_initial monitor p.Payroll.initial;
    let emp = List.hd p.Payroll.employees in
    let health = Cm_core.Tr_relational.health p.Payroll.tr_a in
    Payroll.schedule_update p ~at:10.0 ~emp ~salary:1111;
    Cm_sim.Sim.schedule_at sim 30.0 (fun () -> Health.set health Health.Silent_drop);
    Payroll.schedule_update p ~at:35.0 ~emp ~salary:2222;
    let decision = ref None in
    Cm_sim.Sim.schedule_at sim 70.0 (fun () ->
        decision := Some (Route.read route ~client_site:Payroll.site_b "Salary1"));
    Sys_.run system ~until:80.0;
    let d = Option.get !decision in
    ( Route.outcome_to_string d.Route.d_outcome,
      Monitor.copy_stale monitor ~source:"Salary1" ~target:"Salary2",
      Route.quarantines route )
  in
  let expected = ("master", true, 1) in
  Alcotest.(check (triple string bool int)) "statement first" expected
    (run ~copy_first:false);
  Alcotest.(check (triple string bool int)) "copy first" expected (run ~copy_first:true)

(* -- deterministic reports -- *)

let reports_are_deterministic () =
  let client_sites = [ "hub"; "ra"; "rb" ] in
  let render () =
    let _, route = star () in
    let decisions = Route.plan ~within_kappa:10.0 route ~client_sites in
    ( Route.report_to_text ~slo:10.0 route decisions,
      Route.report_to_json ~slo:10.0 route decisions )
  in
  let text1, json1 = render () in
  let text2, json2 = render () in
  Alcotest.(check string) "text byte-identical" text1 text2;
  Alcotest.(check string) "json byte-identical" json1 json2;
  (* And re-planning on the same router is stable too. *)
  let _, route = star () in
  let d1 = Route.plan ~within_kappa:10.0 route ~client_sites in
  let d2 = Route.plan ~within_kappa:10.0 route ~client_sites in
  Alcotest.(check string) "replan identical"
    (Route.report_to_json ~slo:10.0 route d1)
    (Route.report_to_json ~slo:10.0 route d2)

let counters_track_outcomes () =
  let system, route = star () in
  ignore (Route.read route ~client_site:"ra" "Feed");
  ignore (Route.read ~within_kappa:1.0 route ~client_site:"ra" "Feed");
  Net.partition (Sys_.net system) ~from_site:"ra" ~to_site:"hub" ~until:1e9;
  ignore (Route.read ~within_kappa:1.0 route ~client_site:"ra" "Feed");
  Alcotest.(check int) "reads" 3 (Route.reads route);
  Alcotest.(check int) "replica" 1 (Route.reads_by route Route.Replica);
  Alcotest.(check int) "master" 1 (Route.reads_by route Route.Master);
  Alcotest.(check int) "poll" 1 (Route.reads_by route Route.Forced_poll)

let () =
  Alcotest.run "cm_route"
    [
      ( "qualification",
        [
          Alcotest.test_case "local + cheapest replica" `Quick
            replica_local_and_cheapest;
          Alcotest.test_case "slo filters catalog" `Quick slo_filters_catalog;
          Alcotest.test_case "kappa = slo is inclusive" `Quick
            slo_boundary_is_inclusive;
          Alcotest.test_case "sampled kappa same units" `Quick
            sampled_kappa_same_units;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "unprovable -> master" `Quick
            unprovable_falls_back_to_master;
          Alcotest.test_case "filtered channel -> master" `Quick
            filtered_channel_not_served;
          Alcotest.test_case "invalidated copy skipped" `Quick
            invalidated_copy_skipped;
          Alcotest.test_case "partitioned master -> forced poll" `Quick
            partitioned_master_forces_poll;
          Alcotest.test_case "counters" `Quick counters_track_outcomes;
        ] );
      ( "epoch churn",
        [
          Alcotest.test_case "lost then re-qualified" `Quick
            epoch_churn_requalifies;
          Alcotest.test_case "cutover re-derives every copy" `Quick
            cutover_rederives_every_copy;
          Alcotest.test_case "cutover keeps the interfaces" `Quick
            cutover_keeps_the_interfaces;
          Alcotest.test_case "copy follows declarations" `Quick
            copy_follows_declarations;
        ] );
      ( "quarantine",
        [
          Alcotest.test_case "stale -> quarantine -> probe -> readmit" `Quick
            quarantine_probe_readmission;
          Alcotest.test_case "monitor follows declarations" `Quick
            monitor_follows_declarations;
        ] );
      ( "reports",
        [
          Alcotest.test_case "byte-deterministic" `Quick
            reports_are_deterministic;
        ] );
    ]
