(* Golden-trace regression tests for the rule/event discrimination index.

   The indexed dispatch path in Shell.occurred must be observationally
   identical to the naive linear scan it replaced: same rules selected,
   same firing order, same generated events, same everything.  These
   tests pin that down end-to-end by running three representative
   workloads (the E1 propagation run, the E4 demarcation run, and the
   E13 lossy-network run) at fixed seeds and comparing the MD5 digest of
   their full Trace_io dump against digests recorded at the commit just
   before the index was introduced.

   The workloads build their federations from CM-RID descriptions
   through the toolkit, so two more digests pin that path: E13 run on
   the shipped examples/config/payroll.cmrid, and a banking day.

   If a change to rule dispatch, translator lookup, or shell bookkeeping
   reorders so much as one event, the digest moves and the test names
   the workload that diverged.  To re-record after an *intentional*
   semantic change: GOLDEN_PRINT=1 dune exec test/test_golden_traces.exe *)

open Cm_rule
module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Sys_ = Cm_core.System
module Reliable = Cm_core.Reliable
module Payroll = Cm_workload.Payroll
module Bank = Cm_workload.Bank
module Banking_day = Cm_workload.Banking_day
module Cmrid = Cm_core.Cmrid
module Toolkit = Cm_core.Toolkit

let digest_of_trace trace =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (Trace_io.event_to_line e);
      Buffer.add_char buf '\n')
    (Trace.events trace);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* E1: notify+write propagation, 20 employees, Poisson updates. *)
let e1_trace () =
  let p = Payroll.create ~config:(Sys_.Config.seeded 101) ~employees:20 () in
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:10.0 ~until:3000.0;
  Sys_.run p.Payroll.system ~until:3600.0;
  Sys_.trace p.Payroll.system

(* E4: demarcation protocol, 200 random X updates, conservative policy. *)
let e4_trace () =
  let b =
    Bank.create ~config:(Sys_.Config.seeded 42)
      ~policy:Cm_core.Demarcation.Conservative ()
  in
  let sim = Sys_.sim b.Bank.system in
  let rng = Cm_util.Prng.split (Sim.rng sim) in
  let ops = 200 in
  for i = 1 to ops do
    Sim.schedule_at sim (float_of_int i *. 10.0) (fun () ->
        let v = Cm_util.Prng.int rng 100 in
        match Bank.try_set_x b v with
        | Bank.Applied -> ()
        | Bank.Requested ->
          Sim.schedule sim ~delay:5.0 (fun () -> ignore (Bank.try_set_x b v)))
  done;
  Sys_.run b.Bank.system ~until:(float_of_int ops *. 10.0 +. 100.0);
  Sys_.trace b.Bank.system

(* E13: propagation over a lossy network behind the reliable layer. *)
let e13_config =
  Sys_.Config.(
    seeded 1300
    |> with_faults { Net.drop_prob = 0.2; dup_prob = 0.1 }
    |> with_reliable Reliable.default_config)

let drive_e13 p =
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:20.0 ~until:500.0;
  Sys_.run p.Payroll.system ~until:700.0;
  Sys_.trace p.Payroll.system

let e13_trace () = drive_e13 (Payroll.create ~config:e13_config ~employees:3 ())

(* ---- the shipped payroll.cmrid is the payroll workload -------------

   examples/config/payroll.cmrid, the file `cmtool check/derive/suggest/
   route/evolve` analyse, describes the payroll federation at three
   employees.  Built by the toolkit without its rule line and driven as
   E13 is, it must reproduce E13's digest; its interface statements and
   its [prop] rule must be the workload's. *)

let shipped_payroll () =
  (* From the test directory (dune runtest) or the repository root
     (dune exec test/test_golden_traces.exe). *)
  let in_tests = "../examples/config/payroll.cmrid" in
  let path = if Sys.file_exists in_tests then in_tests else "examples/config/payroll.cmrid" in
  match Cmrid.parse_file path with
  | Ok cmrid -> cmrid
  | Error errors -> Alcotest.fail (Cmrid.errors_to_string errors)

let build_shipped ?config cmrid =
  match Toolkit.build ?config cmrid with
  | Ok built -> built
  | Error m -> Alcotest.fail m

let e13_from_config_trace () =
  let built = build_shipped ~config:e13_config { (shipped_payroll ()) with rules = [] } in
  let at site =
    ( List.assoc site built.Toolkit.shells,
      List.assoc site built.relational,
      List.assoc site built.databases )
  in
  let shell_a, tr_a, db_a = at Payroll.site_a and shell_b, tr_b, db_b = at Payroll.site_b in
  drive_e13
    { Payroll.system = built.system; shell_a; shell_b; tr_a; tr_b; db_a; db_b;
      employees = [ "e1"; "e2"; "e3" ]; initial = [] }

let rules_text rules = List.map Rule.to_string rules

let shipped_interfaces_are_payrolls () =
  let built = build_shipped (shipped_payroll ()) in
  let p = Payroll.create ~employees:3 () in
  Alcotest.(check (list string)) "interface statements"
    (rules_text (Sys_.interface_rules p.Payroll.system))
    (rules_text (Sys_.interface_rules built.Toolkit.system))

let shipped_rule_is_install_propagation () =
  let built = build_shipped (shipped_payroll ()) in
  let p = Payroll.create ~employees:3 () in
  Payroll.install_propagation p;
  Alcotest.(check (list string)) "prop rule"
    (rules_text (Sys_.strategy_rules p.Payroll.system))
    (rules_text (Sys_.strategy_rules built.Toolkit.system))

(* Banking day (E12's world): three days of business-hours updates and
   end-of-day sweeps. *)
let banking_day_trace () =
  let b = Banking_day.create ~config:(Sys_.Config.seeded 800) ~accounts:4 () in
  Banking_day.run_days b ~days:3 ~updates_per_day:15;
  Sys_.trace b.Banking_day.system

(* ---- sharded runs of the same workloads ----------------------------

   A Fabric with [~shards:1] is documented to BE
   the sequential path — plain delegation, stream draws, dense ids.
   These variants rebuild E1/E4/E13 on a one-shard fabric (the workload
   constructors accept the fabric-owned system via [?system]) and must
   reproduce the very same pre-index digests byte for byte. *)

module Fabric = Cm_shard.Shard.Fabric

let e1_sharded_trace () =
  let fab =
    Fabric.create ~config:(Sys_.Config.seeded 101) ~shards:1 ~assign:(fun _ -> 0)
      Payroll.locator
  in
  let p = Payroll.create ~system:(Fabric.system fab 0) ~employees:20 () in
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:10.0 ~until:3000.0;
  Fabric.run fab ~until:3600.0;
  Sys_.trace (Fabric.system fab 0)

let e4_sharded_trace () =
  let fab =
    Fabric.create ~config:(Sys_.Config.seeded 42) ~shards:1 ~assign:(fun _ -> 0)
      Bank.locator
  in
  let b =
    Bank.create ~system:(Fabric.system fab 0)
      ~policy:Cm_core.Demarcation.Conservative ()
  in
  let sim = Sys_.sim b.Bank.system in
  let rng = Cm_util.Prng.split (Sim.rng sim) in
  let ops = 200 in
  for i = 1 to ops do
    Sim.schedule_at sim (float_of_int i *. 10.0) (fun () ->
        let v = Cm_util.Prng.int rng 100 in
        match Bank.try_set_x b v with
        | Bank.Applied -> ()
        | Bank.Requested ->
          Sim.schedule sim ~delay:5.0 (fun () -> ignore (Bank.try_set_x b v)))
  done;
  Fabric.run fab ~until:(float_of_int ops *. 10.0 +. 100.0);
  Sys_.trace (Fabric.system fab 0)

let e13_sharded_trace () =
  let config =
    Sys_.Config.(
      seeded 1300
      |> with_faults { Net.drop_prob = 0.2; dup_prob = 0.1 }
      |> with_reliable Reliable.default_config)
  in
  let fab = Fabric.create ~config ~shards:1 ~assign:(fun _ -> 0) Payroll.locator in
  let p = Payroll.create ~system:(Fabric.system fab 0) ~employees:3 () in
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:20.0 ~until:500.0;
  Fabric.run fab ~until:700.0;
  Sys_.trace (Fabric.system fab 0)

(* ---- a multi-shard canonical-digest golden -------------------------

   Fixed four-site chain world, jitter-free with distinct per-link
   latencies, run at shards 1 and 2.  The canonical (id-free, sorted)
   digest must match across the two layouts and match the recorded
   constant — this pins the cross-shard merge itself, not just the
   degenerate delegation path. *)

let chain_site i = Printf.sprintf "s%d" i

let chain_locator item =
  let b = item.Item.base in
  if String.length b > 1 && b.[0] = 'X' then
    match int_of_string_opt (String.sub b 1 (String.length b - 1)) with
    | Some i -> chain_site i
    | None -> chain_site 0
  else chain_site 0

let chain_rules =
  Parser.parse_rules
    "u0: U(X0, v) ->[5] C(X1, v)\n\
     c1: C(X1, v) ->[5] W(X1, v)\n\
     u1: U(X1, v) ->[5] C(X2, v)\n\
     c2: C(X2, v) ->[5] W(X2, v)\n\
     d2: C(X2, v) ->[5] D(X3, v)\n\
     e3: D(X3, v) ->[5] W(X3, v)\n\
     u3: U(X3, v) ->[5] C(X0, v)\n\
     c0: C(X0, v) ->[5] W(X0, v)\n"

let chain_updates = [ (0, 1001, 0.5); (1, 1002, 1.1); (3, 1003, 1.7); (0, 1004, 2.3); (2, 1005, 2.9) ]

let chain_digest ~shards () =
  let fab =
    Fabric.create ~config:(Sys_.Config.seeded 7700) ~shards
      ~assign:(fun s -> if shards > 1 && (s = "s1" || s = "s3") then 1 else 0)
      chain_locator
  in
  for i = 0 to 3 do
    ignore (Fabric.add_shell fab ~site:(chain_site i))
  done;
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> j then
        Fabric.set_latency fab ~from_site:(chain_site i) ~to_site:(chain_site j)
          { Net.base = 0.3 +. (0.01 *. float_of_int ((i * 4) + j)); jitter = 0.0 }
    done
  done;
  Fabric.install fab
    {
      Cm_core.Strategy.strategy_name = "chain";
      description = "golden chain world";
      rules = chain_rules;
      aux_init = [];
    };
  List.iter
    (fun (i, v, t) ->
      let s = chain_site i in
      let emit =
        Cm_core.Shell.emitter_for (Fabric.shell_for fab ~site:s) ~site:s
      in
      Fabric.at fab ~site:s t (fun () ->
          ignore
            (emit
               {
                 Event.name = "U";
                 args =
                   [
                     Event.Ai (Item.make (Printf.sprintf "X%d" i));
                     Event.Av (Value.Int v);
                   ];
               }
               ~kind:Event.Spontaneous)))
    chain_updates;
  Fabric.run fab ~until:20.0;
  Fabric.trace_digest fab

let chain_expected = "7ea1a3130a5fb6eae879ad070b48d7c9"

let check_chain_golden shards () =
  Alcotest.(check string)
    (Printf.sprintf "canonical chain digest at %d shard(s)" shards)
    chain_expected
    (chain_digest ~shards ())

let goldens =
  [
    ("e1-propagation", e1_trace);
    ("e4-demarcation", e4_trace);
    ("e13-lossy-reliable", e13_trace);
    ("e1-propagation-sharded", e1_sharded_trace);
    ("e4-demarcation-sharded", e4_sharded_trace);
    ("e13-lossy-reliable-sharded", e13_sharded_trace);
    ("e13-from-payroll-cmrid", e13_from_config_trace);
    ("banking-day", banking_day_trace);
  ]

(* Digests recorded on the pre-index dispatch path (commit b3e2a08).
   The -sharded variants run the same workloads through a one-shard
   fabric, and e13-from-payroll-cmrid runs E13 on the shipped
   configuration; both must hit the very same bytes.  banking-day was
   recorded at commit 44d8d5c, where Banking_day still wired its sources
   by hand. *)
let expected = function
  | "e1-propagation" | "e1-propagation-sharded" ->
    "2f775ff9655ece706b10c6c48fbc1dcb"
  | "e4-demarcation" | "e4-demarcation-sharded" ->
    "42ab225224d9340d38cb80ef6c0b0fbd"
  | "e13-lossy-reliable" | "e13-lossy-reliable-sharded" | "e13-from-payroll-cmrid" ->
    "d4e49c4049e9940d6eb614e74a6f9538"
  | "banking-day" -> "a6d5d3800c9bdc804a37ac98f4359d1a"
  | name -> Alcotest.fail ("no golden digest recorded for " ^ name)

let check_golden name trace () =
  Alcotest.(check string)
    (name ^ " trace digest unchanged since pre-index recording")
    (expected name)
    (digest_of_trace (trace ()))

let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    List.iter
      (fun (name, trace) ->
        Printf.printf "%s %s\n%!" name (digest_of_trace (trace ())))
      goldens;
    Printf.printf "chain-canonical-1 %s\n%!" (chain_digest ~shards:1 ());
    Printf.printf "chain-canonical-2 %s\n%!" (chain_digest ~shards:2 ());
    exit 0
  end;
  Alcotest.run "golden_traces"
    [
      ( "byte-identical traces",
        List.map
          (fun (name, trace) -> Alcotest.test_case name `Quick (check_golden name trace))
          goldens );
      ( "shipped payroll.cmrid",
        [
          Alcotest.test_case "interface statements" `Quick shipped_interfaces_are_payrolls;
          Alcotest.test_case "prop rule" `Quick shipped_rule_is_install_propagation;
        ] );
      ( "canonical digest across shard layouts",
        [
          Alcotest.test_case "chain-1-shard" `Quick (check_chain_golden 1);
          Alcotest.test_case "chain-2-shards" `Quick (check_chain_golden 2);
        ] );
    ]
