(* Tests for runtime rule evolution (Cm_core.Evolution): the
   propose -> cutover (drain) -> retire state machine, epoch-aware Fire
   handling across Reliable retransmission, journal replay of epoch
   transitions through crashes, the pinned §4.2.3 guarantee-survival
   report, and the churn-chaos acceptance sweep. *)

module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Obs = Cm_core.Obs
module Shell = Cm_core.Shell
module Sys_ = Cm_core.System
module Journal = Cm_core.Journal
module Reliable = Cm_core.Reliable
module Strategy = Cm_core.Strategy
module Interface = Cm_core.Interface
module Evolution = Cm_core.Evolution
module Toolkit = Cm_core.Toolkit
module Cmrid = Cm_core.Cmrid
module Payroll = Cm_workload.Payroll
module Chaos = Cm_chaos.Chaos
open Cm_rule

let ok_or_fail label = function
  | Ok v -> v
  | Error m -> Alcotest.failf "%s: %s" label m

let expect_error label = function
  | Ok _ -> Alcotest.failf "%s: expected an error" label
  | Error _ -> ()

let v2_strategy () =
  Strategy.propagate ~prefix:"v2" ~delta:5.0 ~source:Payroll.source_pattern
    ~target:Payroll.target_pattern ()

let noop_strategy =
  {
    Strategy.strategy_name = "noop";
    description = "an epoch with no rules";
    rules = [];
    aux_init = [];
  }

let phase shell ~epoch =
  match Shell.epoch_phase shell ~epoch with
  | Some p -> Journal.epoch_phase_to_string p
  | None -> "absent"

(* -- the per-site state machine -- *)

let state_machine_walkthrough () =
  let obs = Obs.create () in
  let p =
    Payroll.create
      ~config:Sys_.Config.(seeded 5 |> with_obs obs)
      ~employees:2 ()
  in
  Payroll.install_propagation p;
  Sys_.declare_copies p.Payroll.system [ ("Salary1", "Salary2") ];
  let evo = Evolution.create p.Payroll.system in
  Alcotest.(check int) "base epoch" 0 (Evolution.current_epoch evo);
  expect_error "cutover without proposal" (Evolution.cutover evo);
  expect_error "retire the active epoch" (Evolution.retire evo ~epoch:0);
  let e = ok_or_fail "propose" (Evolution.propose evo (v2_strategy ())) in
  Alcotest.(check int) "first proposed epoch" 1 e;
  expect_error "second outstanding proposal"
    (Evolution.propose evo noop_strategy);
  Alcotest.(check string) "staged at the shells" "proposed"
    (phase p.Payroll.shell_a ~epoch:1);
  Alcotest.(check int) "dispatch unaffected while proposed" 0
    (Evolution.current_epoch evo);
  let tr = ok_or_fail "cutover" (Evolution.cutover evo) in
  Alcotest.(check int) "transition from" 0 tr.Evolution.tr_from;
  Alcotest.(check int) "transition to" 1 tr.Evolution.tr_to;
  Alcotest.(check int) "current epoch" 1 (Evolution.current_epoch evo);
  Alcotest.(check (list int)) "old epoch draining" [ 0 ]
    (Evolution.draining evo);
  Alcotest.(check string) "shell active epoch" "active"
    (phase p.Payroll.shell_b ~epoch:1);
  Alcotest.(check string) "shell draining epoch" "draining"
    (phase p.Payroll.shell_b ~epoch:0);
  Alcotest.(check int) "shells report the new epoch" 1
    (Shell.rule_epoch p.Payroll.shell_a);
  (* A proposal carrying colliding rule ids is refused before it reaches
     any shell. *)
  let dup =
    let s = v2_strategy () in
    { s with Strategy.rules = s.Strategy.rules @ s.Strategy.rules }
  in
  expect_error "duplicate rule ids" (Evolution.propose evo dup);
  expect_error "retire an unknown epoch" (Evolution.retire evo ~epoch:7);
  ok_or_fail "retire" (Evolution.retire evo ~epoch:0);
  Alcotest.(check (list int)) "drain over" [] (Evolution.draining evo);
  Alcotest.(check int) "retirements counted" 1 (Evolution.retirements evo);
  Alcotest.(check string) "shell retired epoch" "retired"
    (phase p.Payroll.shell_a ~epoch:0);
  expect_error "double retire" (Evolution.retire evo ~epoch:0);
  (* The cutover is surfaced through Obs. *)
  let rows = Obs.snapshot obs in
  let gauge name =
    List.find_map
      (fun r ->
        match r.Obs.sample with
        | Obs.Gauge_sample v when String.equal r.Obs.name name -> Some v
        | _ -> None)
      rows
  in
  Alcotest.(check (option (float 0.0))) "evolution_epoch gauge" (Some 1.0)
    (gauge "evolution_epoch")

(* -- cutover redirects new dispatch -- *)

let new_epoch_takes_dispatch () =
  let p = Payroll.create ~config:(Sys_.Config.seeded 6) ~employees:1 () in
  Payroll.install_propagation p;
  let evo = Evolution.create p.Payroll.system in
  let sim = Sys_.sim p.Payroll.system in
  Payroll.schedule_update p ~at:2.0 ~emp:"e1" ~salary:1111;
  Sim.schedule_at sim 10.0 (fun () ->
      ignore (ok_or_fail "evolve" (Evolution.evolve ~quiesce:false evo noop_strategy)));
  Payroll.schedule_update p ~at:20.0 ~emp:"e1" ~salary:2222;
  Sys_.run p.Payroll.system ~until:60.0;
  Alcotest.(check bool) "pre-cutover update propagated" true
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 1111));
  Alcotest.(check bool) "post-cutover update applied at the source" true
    (Value.equal (Payroll.salary_at p `A "e1") (Value.Int 2222));
  Alcotest.(check bool) "empty epoch stopped propagation" true
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 1111))

(* -- drain and stale rejection across Reliable retransmission -- *)

(* A Fire produced under epoch 0 is trapped behind a partition while the
   system cuts over to epoch 1; retransmission delivers it afterwards. *)
let drained_fire_setup ~retire_at =
  let reliable =
    { Reliable.default_config with retry_timeout = 1.0; max_retries = 30 }
  in
  let p =
    Payroll.create
      ~config:Sys_.Config.(seeded 7 |> with_reliable reliable)
      ~employees:1 ()
  in
  Payroll.install_propagation p;
  let evo = Evolution.create p.Payroll.system in
  let sim = Sys_.sim p.Payroll.system in
  Net.partition (Sys_.net p.Payroll.system) ~from_site:Payroll.site_a
    ~to_site:Payroll.site_b ~until:15.0;
  Payroll.schedule_update p ~at:1.0 ~emp:"e1" ~salary:4242;
  Sim.schedule_at sim 5.0 (fun () ->
      ignore
        (ok_or_fail "evolve" (Evolution.evolve ~quiesce:false evo noop_strategy)));
  (match retire_at with
  | Some t ->
    Sim.schedule_at sim t (fun () ->
        ok_or_fail "retire" (Evolution.retire evo ~epoch:0))
  | None -> ());
  Sys_.run p.Payroll.system ~until:60.0;
  (p, evo)

let draining_fire_executes_under_origin_epoch () =
  let p, evo = drained_fire_setup ~retire_at:None in
  Alcotest.(check bool) "retransmitted old-epoch fire executed" true
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 4242));
  Alcotest.(check int) "no stale rejection while draining" 0
    (Shell.stale_epoch_rejections p.Payroll.shell_b);
  Alcotest.(check (list int)) "epoch 0 still draining" [ 0 ]
    (Evolution.draining evo);
  Alcotest.(check bool) "the retransmission chain was real" true
    ((match Sys_.reliable p.Payroll.system with
     | Some r -> (Reliable.stats r).Reliable.retransmits
     | None -> 0)
    > 0)

let retired_epoch_rejects_and_counts () =
  let p, evo = drained_fire_setup ~retire_at:(Some 10.0) in
  Alcotest.(check bool) "stale fire NOT executed" false
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 4242));
  Alcotest.(check int) "rejection counted, not silently dropped" 1
    (Shell.stale_epoch_rejections p.Payroll.shell_b);
  Alcotest.(check int) "manager sums shell counters" 1
    (Evolution.stale_rejections evo);
  Alcotest.(check int) "transport drained (rejected, but acknowledged)" 0
    (match Sys_.reliable p.Payroll.system with
    | Some r -> Reliable.pending r
    | None -> -1);
  Alcotest.(check int) "no execution under the wrong rules" 0
    (Shell.fires_executed p.Payroll.shell_b)

(* -- crash recovery replays the epoch state machine -- *)

let crash_during_drain_recovers_epochs () =
  let p =
    Payroll.create
      ~config:
        Sys_.Config.(
          seeded 11
          |> with_reliable Reliable.default_config
          |> with_durability Journal.Journal_with_checkpoint)
      ~employees:1 ()
  in
  Payroll.install_propagation p;
  let evo = Evolution.create p.Payroll.system in
  let sim = Sys_.sim p.Payroll.system in
  Sim.schedule_at sim 10.0 (fun () ->
      ignore
        (ok_or_fail "evolve" (Evolution.evolve ~quiesce:false evo (v2_strategy ()))));
  Sim.schedule_at sim 12.0 (fun () ->
      Sys_.crash_site p.Payroll.system ~site:Payroll.site_b);
  Sim.schedule_at sim 30.0 (fun () ->
      Sys_.restart_site p.Payroll.system ~site:Payroll.site_b);
  Sys_.run p.Payroll.system ~until:40.0;
  (* The crash wiped the shell's volatile state mid-drain; replay must
     put it back into epoch 1 with epoch 0 still draining — not
     resurrect epoch 0 as the active program. *)
  Alcotest.(check int) "replayed into the new epoch" 1
    (Shell.rule_epoch p.Payroll.shell_b);
  Alcotest.(check string) "old epoch still draining after replay" "draining"
    (phase p.Payroll.shell_b ~epoch:0);
  Alcotest.(check string) "new epoch active after replay" "active"
    (phase p.Payroll.shell_b ~epoch:1);
  (* Retire, crash again (this time the journal has a checkpoint beyond
     the cutover), and make sure retirement is not forgotten either. *)
  ok_or_fail "retire" (Evolution.retire evo ~epoch:0);
  Sys_.crash_site p.Payroll.system ~site:Payroll.site_b;
  Sim.schedule_at sim 50.0 (fun () ->
      Sys_.restart_site p.Payroll.system ~site:Payroll.site_b);
  Sys_.run p.Payroll.system ~until:60.0;
  Alcotest.(check string) "retirement survives the second crash" "retired"
    (phase p.Payroll.shell_b ~epoch:0);
  Alcotest.(check int) "still in the new epoch" 1
    (Shell.rule_epoch p.Payroll.shell_b);
  (* And the recovered site actually runs the new program. *)
  Payroll.schedule_update p ~at:65.0 ~emp:"e1" ~salary:3131;
  Sys_.run p.Payroll.system ~until:120.0;
  Alcotest.(check bool) "epoch-1 program live after recovery" true
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 3131))

(* -- self-healing: required pairs roll a regressing cutover back -- *)

let healing_payroll ?(seed = 23) ?required () =
  let p =
    Payroll.create
      ~config:
        Sys_.Config.(
          seeded seed |> with_durability Journal.Journal_with_checkpoint)
      ~employees:1 ()
  in
  Payroll.install_propagation p;
  Sys_.declare_interfaces p.Payroll.system
    [ Interface.no_spontaneous_write Payroll.target_pattern ];
  Sys_.declare_copies p.Payroll.system [ ("Salary1", "Salary2") ];
  (p, Evolution.create ?required p.Payroll.system)

let required_regression_rolls_back () =
  let p, evo = healing_payroll ~required:[ ("Salary1", "Salary2") ] () in
  let system = p.Payroll.system in
  (* The bad rollout: an empty program loses every guarantee of the
     required pair, so the cutover must be undone on the spot. *)
  ignore (ok_or_fail "evolve noop" (Evolution.evolve ~quiesce:false evo noop_strategy));
  (match Evolution.rollbacks evo with
  | [ rb ] ->
    Alcotest.(check int) "rolled back epoch 1" 1 rb.Evolution.rb_from;
    Alcotest.(check int) "restored epoch 0's program" 0 rb.Evolution.rb_to;
    Alcotest.(check int) "via a fresh epoch" 2 rb.Evolution.rb_via;
    Alcotest.(check string) "names the rejected strategy" "noop"
      rb.Evolution.rb_strategy;
    Alcotest.(check bool) "records the lost guarantees" true
      (rb.Evolution.rb_lost <> [])
  | rbs -> Alcotest.failf "expected 1 rollback, got %d" (List.length rbs));
  Alcotest.(check int) "current epoch is the restoring one" 2
    (Evolution.current_epoch evo);
  (* Write-ahead: the rollback record reaches the journal before the
     restoring epoch's own proposal, at every durable site. *)
  List.iter
    (fun site ->
      let records =
        match Sys_.journal system ~site with
        | Some j -> Journal.records j
        | None -> Alcotest.failf "no journal at %s" site
      in
      let index kind =
        match
          List.find_index
            (fun r -> String.equal (Journal.record_kind r) kind)
            records
        with
        | Some i -> i
        | None -> Alcotest.failf "no %s record at %s" kind site
      in
      let rb_i = index "epoch_rollback" in
      let restore_i =
        match
          List.find_index
            (function
              | Journal.Epoch_proposed { epoch = 2; _ } -> true | _ -> false)
            records
        with
        | Some i -> i
        | None -> Alcotest.failf "no epoch-2 proposal at %s" site
      in
      Alcotest.(check bool)
        (Printf.sprintf "rollback journaled before the restore at %s" site)
        true (rb_i < restore_i))
    [ Payroll.site_a; Payroll.site_b ];
  (* The restored program still propagates and the copy still
     qualifies: self-healing leaves the system as it was. *)
  (match Sys_.copy_qualifies system ~source:"Salary1" ~target:"Salary2" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "copy lost its guarantee after rollback: %s" e);
  Payroll.schedule_update p ~at:10.0 ~emp:"e1" ~salary:4242;
  Sys_.run system ~until:60.0;
  Alcotest.(check bool) "restored program live" true
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 4242))

let unrequired_regression_stands () =
  let p, evo = healing_payroll () in
  ignore (ok_or_fail "evolve noop" (Evolution.evolve ~quiesce:false evo noop_strategy));
  Alcotest.(check int) "no rollback" 0 (List.length (Evolution.rollbacks evo));
  Alcotest.(check int) "bad epoch stands" 1 (Evolution.current_epoch evo);
  ignore p

let never_lost_does_not_trigger () =
  (* With no strategy installed nothing is provable in epoch 0 either:
     the noop cutover classifies the guarantees Never, not Lost — the
     prior epoch is no better a refuge, so no rollback. *)
  let p =
    Payroll.create ~config:(Sys_.Config.seeded 29) ~employees:1 ()
  in
  Sys_.declare_copies p.Payroll.system [ ("Salary1", "Salary2") ];
  let evo =
    Evolution.create ~required:[ ("Salary1", "Salary2") ] p.Payroll.system
  in
  ignore (ok_or_fail "evolve noop" (Evolution.evolve ~quiesce:false evo noop_strategy));
  Alcotest.(check int) "no rollback for Never" 0
    (List.length (Evolution.rollbacks evo));
  Alcotest.(check int) "cutover stands" 1 (Evolution.current_epoch evo)

let required_must_be_subset () =
  let p = Payroll.create ~config:(Sys_.Config.seeded 31) ~employees:1 () in
  Payroll.install_propagation p;
  Sys_.declare_copies p.Payroll.system [ ("Salary1", "Salary2") ];
  match
    Evolution.create ~required:[ ("Salary1", "Elsewhere") ] p.Payroll.system
  with
  | _ -> Alcotest.fail "required outside the declared copies accepted"
  | exception Invalid_argument _ -> ()

let rollback_survives_crash_replay () =
  let p, evo = healing_payroll ~required:[ ("Salary1", "Salary2") ] () in
  let system = p.Payroll.system in
  let sim = Sys_.sim system in
  Sim.schedule_at sim 10.0 (fun () ->
      ignore
        (ok_or_fail "evolve noop"
           (Evolution.evolve ~quiesce:false evo noop_strategy)));
  Sim.schedule_at sim 12.0 (fun () ->
      Sys_.crash_site system ~site:Payroll.site_b);
  Sim.schedule_at sim 30.0 (fun () ->
      Sys_.restart_site system ~site:Payroll.site_b);
  Sys_.run system ~until:40.0;
  (* Replay must land the crashed site in the restoring epoch (2), with
     the rolled-back epoch's program nowhere active. *)
  Alcotest.(check int) "replayed into the restoring epoch" 2
    (Shell.rule_epoch p.Payroll.shell_b);
  Payroll.schedule_update p ~at:45.0 ~emp:"e1" ~salary:5151;
  Sys_.run system ~until:100.0;
  Alcotest.(check bool) "restored program live after replay" true
    (Value.equal (Payroll.salary_at p `B "e1") (Value.Int 5151))

(* -- the pinned §4.2.3 survival report -- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* The same inputs `cmtool evolve examples/config/payroll.cmrid
   examples/config/poll.rules examples/config/interfaces.rules` uses.
   Of interfaces.rules only t_quiet survives the (kind, base) merge —
   s_notify / s_read / t_write restate capabilities the translators
   already declare. *)
let payroll_4_2_3_survivals () =
  let config =
    match Cmrid.parse_file "../examples/config/payroll.cmrid" with
    | Ok c -> c
    | Error _ -> Alcotest.fail "payroll.cmrid must parse"
  in
  let built = ok_or_fail "build" (Toolkit.build config) in
  let system = built.Toolkit.system in
  let proposed = Parser.parse_rules (read_file "../examples/config/poll.rules") in
  let declared =
    Parser.parse_rules (read_file "../examples/config/interfaces.rules")
  in
  let is_iface r = Interface.classify r <> None in
  let novel =
    List.filter
      (fun r -> Interface.classify r = Some Interface.No_spontaneous_write)
      declared
  in
  let prop_ifaces, strategy_after = List.partition is_iface proposed in
  Evolution.compare_programs
    ~interfaces_before:(Sys_.interface_rules system @ novel)
    ~interfaces_after:prop_ifaces
    ~strategy_before:(Sys_.strategy_rules system)
    ~strategy_after
    ~constraints:[ ("Salary1", "Salary2") ]

let survival_golden_text () =
  let expected =
    "guarantee survival: Salary2 copies Salary1\n\
    \  (1) follows          kept      proved -> proved\n\
    \  (2) leads            lost      proved -> unprovable: no complete \
     observation channel: filtered/sampled channels can miss values (\xc2\xa74.2.3)\n\
    \  (3) strictly-follows kept      proved -> proved\n\
    \  (4) metric-follows   kept      proved (kappa = 11) -> proved (kappa = 28)\n"
  in
  Alcotest.(check string) "pinned text report" expected
    (Evolution.survivals_to_text (payroll_4_2_3_survivals ()))

let survival_golden_json () =
  let expected =
    "{ \"constraints\": [\n\
    \  { \"source\": \"Salary1\", \"target\": \"Salary2\",\n\
    \    \"guarantees\": [\n\
    \      { \"name\": \"(1) follows\", \"status\": \"kept\", \"before\": \
     \"proved\", \"after\": \"proved\" },\n\
    \      { \"name\": \"(2) leads\", \"status\": \"lost\", \"before\": \
     \"proved\", \"after\": \"unprovable\", \"after_reason\": \"no complete \
     observation channel: filtered/sampled channels can miss values \
     (\xc2\xa74.2.3)\" },\n\
    \      { \"name\": \"(3) strictly-follows\", \"status\": \"kept\", \
     \"before\": \"proved\", \"after\": \"proved\" },\n\
    \      { \"name\": \"(4) metric-follows\", \"status\": \"kept\", \
     \"before\": \"proved\", \"before_kappa\": 11, \"after\": \"proved\", \
     \"after_kappa\": 28 }\n\
    \    ] }\n\
     ] }\n"
  in
  Alcotest.(check string) "pinned JSON report" expected
    (Evolution.survivals_to_json (payroll_4_2_3_survivals ()))

(* -- acceptance: rule churn x crash/loss/partition -- *)

let fifty_seed_churn_chaos () =
  let claimed = ref 0 in
  for seed = 1 to 50 do
    let spec =
      {
        Chaos.default_spec with
        seed;
        events = 150;
        mode =
          Chaos.Payroll_faults
            { plan = { crashes = 3; crash_min_len = 10.0; crash_max_len = 60.0 }; churn = 3 };
      }
    in
    let report = Chaos.run spec in
    if not (Chaos.passed report) then
      Alcotest.failf "churn chaos seed %d FAIL:\n%s" seed
        (Chaos.report_to_string report);
    let r =
      match report.Chaos.result with
      | Chaos.Recovered { Chaos.evolution = Some ev; _ } -> ev
      | _ -> Alcotest.fail "not a payroll recovery report"
    in
    Alcotest.(check (list string))
      (Printf.sprintf "seed %d: both-epoch guarantee violations" seed)
      [] r.Chaos.both_epoch_violations;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: three cutovers" seed)
      3 r.Chaos.cutovers;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: every cutover retired" seed)
      r.Chaos.cutovers r.Chaos.epoch_retirements;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: retirement waited out the drain" seed)
      0 r.Chaos.stale_epoch_rejections;
    if r.Chaos.both_epoch_guarantees <> [] then incr claimed
  done;
  (* Guard against a vacuous invariant: the prover must actually claim a
     cross-epoch guarantee on most schedules. *)
  Alcotest.(check bool)
    (Printf.sprintf "both-epoch set non-vacuous (%d/50 schedules)" !claimed)
    true
    (!claimed >= 25)

let () =
  Alcotest.run "cm_evolution"
    [
      ( "state machine",
        [
          Alcotest.test_case "propose/cutover/retire walkthrough" `Quick
            state_machine_walkthrough;
          Alcotest.test_case "cutover redirects dispatch" `Quick
            new_epoch_takes_dispatch;
        ] );
      ( "drain",
        [
          Alcotest.test_case "retransmitted fire executes under origin epoch"
            `Quick draining_fire_executes_under_origin_epoch;
          Alcotest.test_case "retired epoch rejects and counts" `Quick
            retired_epoch_rejects_and_counts;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash during drain replays epochs" `Quick
            crash_during_drain_recovers_epochs;
        ] );
      ( "rollback",
        [
          Alcotest.test_case "required regression rolls back" `Quick
            required_regression_rolls_back;
          Alcotest.test_case "unrequired regression stands" `Quick
            unrequired_regression_stands;
          Alcotest.test_case "Never does not trigger rollback" `Quick
            never_lost_does_not_trigger;
          Alcotest.test_case "required must be within constraints" `Quick
            required_must_be_subset;
          Alcotest.test_case "rollback survives crash replay" `Quick
            rollback_survives_crash_replay;
        ] );
      ( "survival",
        [
          Alcotest.test_case "pinned \xc2\xa74.2.3 text report" `Quick
            survival_golden_text;
          Alcotest.test_case "pinned \xc2\xa74.2.3 JSON report" `Quick
            survival_golden_json;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "50-seed churn x fault schedules" `Slow
            fifty_seed_churn_chaos;
        ] );
    ]
