(* Quickstart: the paper's §4.2 payroll example, end to end.

   A company stores personnel data in a San Francisco branch database (A)
   and at the New York headquarters (B).  The constraint is
   salary1(n) = salary2(n) for every employee n.  A offers a notify
   interface (a trigger on its relational database), B offers a write
   interface; the CM runs the §4.2.2 strategy

       N(salary1(n), b) ->[5] WR(salary2(n), b)

   and, per §4.2.3, guarantees (1)-(4) hold.  Then the administrator at A
   withdraws the notify interface; with only a read interface left, the
   CM must poll: guarantee (2) is lost, and (4) holds only with κ
   widened by the polling period, since B keeps an old salary until the
   next poll.

   Run with: dune exec examples/quickstart.exe *)

open Cm_rule
module Sys_ = Cm_core.System
module Guarantee = Cm_core.Guarantee
module Payroll = Cm_workload.Payroll
module Table = Cm_util.Table

let show_guarantees ?kappa ~title p ~horizon ~ignore_after =
  let tl = Sys_.timeline ~initial:p.Payroll.initial p.Payroll.system in
  let table = Table.create ~title ~columns:[ "guarantee"; "statement"; "holds" ] in
  List.iter
    (fun g ->
      let r = Guarantee.check ~horizon ~ignore_after tl g in
      Table.add_row table
        [ Guarantee.name g; Guarantee.to_string g; Table.cell_bool r.Guarantee.holds ])
    (Payroll.guarantees ?kappa p ~emp:"e1");
  Table.print table

let () =
  print_endline "=== Scenario 1: notify interface at A (paper §4.2) ===\n";
  let p = Payroll.create ~config:(Cm_core.System.Config.seeded 2024) ~employees:5 () in
  Payroll.install_propagation p;
  print_endline "Strategy rules installed:";
  List.iter
    (fun r -> print_endline ("  " ^ Rule.to_string r))
    (Sys_.strategy_rules p.Payroll.system);
  print_newline ();

  (* Local applications update salaries at A over ~20 simulated minutes. *)
  Payroll.random_updates p ~mean_interarrival:60.0 ~until:1200.0;
  Sys_.run p.Payroll.system ~until:1500.0;

  let table =
    Table.create ~title:"salaries after the run" ~columns:[ "employee"; "A"; "B"; "equal" ]
  in
  List.iter
    (fun emp ->
      let a = Payroll.salary_at p `A emp and b = Payroll.salary_at p `B emp in
      Table.add_row table
        [ emp; Value.to_string a; Value.to_string b; Table.cell_bool (Value.equal a b) ])
    p.Payroll.employees;
  Table.print table;

  show_guarantees ~title:"guarantees for salary1(e1) = salary2(e1)" p ~horizon:1500.0
    ~ignore_after:1200.0;

  (* The trace really is a valid execution in the Appendix-A sense. *)
  let violations = Sys_.check_validity p.Payroll.system in
  Printf.printf "Appendix-A validity violations: %d\n\n" (List.length violations);

  print_endline "=== Scenario 2: A withdraws notify; polling every 60 s (§4.2.3) ===\n";
  let p2 = Payroll.create ~config:(Cm_core.System.Config.seeded 2025) ~employees:5 ~mode:Payroll.Read_only () in
  Payroll.install_polling ~period:60.0 p2;
  (* A burst of updates inside one polling interval. *)
  Payroll.schedule_update p2 ~at:70.0 ~emp:"e1" ~salary:7000;
  Payroll.schedule_update p2 ~at:80.0 ~emp:"e1" ~salary:7100;
  Payroll.schedule_update p2 ~at:90.0 ~emp:"e1" ~salary:7200;
  Payroll.random_updates p2 ~mean_interarrival:100.0 ~until:1200.0;
  Sys_.run p2.Payroll.system ~until:1500.0;
  show_guarantees ~title:"guarantees under polling (kappa 10)" p2 ~horizon:1500.0
    ~ignore_after:1200.0;
  show_guarantees ~kappa:70.0 ~title:"guarantees under polling (kappa 60 + 10)" p2
    ~horizon:1500.0 ~ignore_after:1200.0;
  print_endline
    "Guarantee (2) fails under polling: updates e1 -> 7000 and 7100 fell inside\n\
     one polling interval and were never reflected at B — exactly the paper's\n\
     §4.2.3 observation.  Guarantee (4) binds every instant B holds a salary,\n\
     so it needs kappa to cover the 60 s polling period as well; (1) and (3)\n\
     are unaffected."
