(* The full toolkit workflow of §4.1, end to end, from one config file:

   1. the CM-RID configuration describes the sources and their items;
   2. at initialization the CM-Shells query the CM-Translators, which
      respond with their interface specifications;
   3. the CM suggests strategies applicable to these interfaces, along
      with the associated guarantees;
   4. the administrator picks one; the toolkit distributes its rules;
   5. at run time the system maintains the constraint, and the trace
      checkers confirm the offered guarantees — here also statically,
      via the derivation engine.

   Run with: dune exec examples/toolkit_workflow.exe *)

open Cm_rule
module Sys_ = Cm_core.System
module Suggest = Cm_core.Suggest
module Interface = Cm_core.Interface
module Guarantee = Cm_core.Guarantee
module Toolkit = Cm_core.Toolkit
module Table = Cm_util.Table

let config_text =
  {|# Two relational personnel databases; A pushes trigger notifications.
source sf relational
  init CREATE TABLE employees (empid TEXT PRIMARY KEY, salary INT NOT NULL)
  init INSERT INTO employees VALUES ('e1', 1000)
  init INSERT INTO employees VALUES ('e2', 1100)
  item Salary1(n)
    read SELECT salary FROM employees WHERE empid = $n
    write UPDATE employees SET salary = $b WHERE empid = $n
    notify employees.salary key empid
  latency notify 1.0
  delta notify 5.0

source ny relational
  init CREATE TABLE employees (empid TEXT PRIMARY KEY, salary INT NOT NULL)
  init INSERT INTO employees VALUES ('e1', 1000)
  init INSERT INTO employees VALUES ('e2', 1100)
  item Salary2(n)
    read SELECT salary FROM employees WHERE empid = $n
    write UPDATE employees SET salary = $b WHERE empid = $n
    notify employees.salary key empid observe
    no_spontaneous
  latency write 0.2
  delta write 1.0
|}
(* Remove the no_spontaneous declaration above and the derivation engine
   conservatively refuses guarantees (1)/(3)/(4): without it, nothing
   rules out foreign values appearing in Salary2. *)

let () =
  (* 1-2: build the system; translators report their interfaces. *)
  let config =
    match Cm_core.Cmrid.parse config_text with
    | Ok c -> c
    | Error es -> failwith (Cm_core.Cmrid.errors_to_string es)
  in
  let built =
    match Toolkit.build ~config:(Cm_core.System.Config.seeded 1996) config with Ok b -> b | Error m -> failwith m
  in
  let system = built.Toolkit.system in
  print_endline "Interfaces discovered during initialization (§4.1):\n";
  List.iter
    (fun (base, kinds) -> Printf.printf "  %-10s %s\n" base (String.concat ", " kinds))
    (Toolkit.interface_summary built);

  (* 3: the CM suggests strategies, each with the guarantees the
     derivation engine proves for it over the reported interfaces. *)
  let constraint_def =
    Cm_core.Constraint_def.Copy
      {
        source = Interface.family "Salary1" [ "n" ];
        target = Interface.family "Salary2" [ "n" ];
      }
  in
  let candidates =
    Suggest.for_constraint ~interfaces:(Sys_.interface_rules system) constraint_def
  in
  Printf.printf "\nConstraint: %s\nSuggested strategies:\n\n"
    (Cm_core.Constraint_def.to_string constraint_def);
  List.iteri
    (fun i c -> Printf.printf "[%d] %s\n\n" (i + 1) (Suggest.describe c))
    candidates;

  (* 4: the administrator selects the first suggestion. *)
  let chosen = List.hd candidates in
  Printf.printf "Administrator selects: %s\n\n" chosen.Suggest.candidate_name;
  Sys_.install system chosen.Suggest.strategy;

  (* The derivation engine confirms the offered guarantees statically. *)
  print_endline "Static derivation from the specifications ([CGMW94] proof rules):\n";
  let report =
    Cm_core.Derive.copy_guarantees
      ~interfaces:(Sys_.interface_rules system)
      ~strategy:(Sys_.strategy_rules system)
      ~source:(Interface.family "Salary1" [ "n" ])
      ~target:(Interface.family "Salary2" [ "n" ])
  in
  print_endline (Cm_core.Derive.report_to_string report);

  (* 5: run spontaneous updates through the configured system. *)
  let tr_sf = List.assoc "sf" built.Toolkit.relational in
  List.iteri
    (fun i (emp, salary) ->
      Cm_sim.Sim.schedule_at (Sys_.sim system)
        (10.0 +. (20.0 *. float_of_int i))
        (fun () ->
          ignore
            (Cm_core.Tr_relational.exec_app tr_sf
               "UPDATE employees SET salary = $b WHERE empid = $n"
               ~params:[ ("b", Value.Int salary); ("n", Value.Str emp) ])))
    [ ("e1", 1500); ("e2", 1650); ("e1", 1725) ];
  Sys_.run system ~until:200.0;

  (* ...and the dynamic checkers agree with the static derivation. *)
  let initial =
    List.concat_map
      (fun (emp, v) ->
        [
          (Item.make "Salary1" ~params:[ Value.Str emp ], Value.Int v);
          (Item.make "Salary2" ~params:[ Value.Str emp ], Value.Int v);
        ])
      [ ("e1", 1000); ("e2", 1100) ]
  in
  let tl = Sys_.timeline ~initial system in
  let table =
    Table.create ~title:"dynamic check on the recorded trace"
      ~columns:[ "guarantee"; "statically proved"; "holds on trace" ]
  in
  let statically = function
    | Cm_core.Derive.Proved _ -> "yes"
    | Cm_core.Derive.Unprovable _ -> "no"
  in
  List.iter
    (fun (g, verdict) ->
      let r = Guarantee.check ~horizon:200.0 ~ignore_after:150.0 tl g in
      Table.add_row table
        [ Guarantee.name g; statically verdict; Table.cell_bool r.Guarantee.holds ])
    (let source = Item.make "Salary1" ~params:[ Value.Str "e1" ] in
     let target = Item.make "Salary2" ~params:[ Value.Str "e1" ] in
     let pair = { Guarantee.leader = source; follower = target } in
     let kappa =
       match report.Cm_core.Derive.metric_follows with
       | Cm_core.Derive.Proved { kappa = Some k; _ } -> k
       | _ -> 10.0
     in
     [
       (Guarantee.Follows pair, report.Cm_core.Derive.follows);
       (Guarantee.Leads pair, report.Cm_core.Derive.leads);
       (Guarantee.Strictly_follows pair, report.Cm_core.Derive.strictly_follows);
       (Guarantee.Metric_follows (pair, kappa), report.Cm_core.Derive.metric_follows);
     ]);
  Table.print table;
  Printf.printf "Appendix-A validity violations: %d\n"
    (List.length (Sys_.check_validity system))
