(* Tests for the toolkit layers: interface catalog, suggestion engine,
   CM-RID parsing, and configuration-driven assembly. *)

open Cm_rule
module Interface = Cm_core.Interface
module Suggest = Cm_core.Suggest
module Cmrid = Cm_core.Cmrid
module Toolkit = Cm_core.Toolkit
module Sys_ = Cm_core.System
module Guarantee = Cm_core.Guarantee
module C = Cm_core.Constraint_def

(* ---- interface catalog ---- *)

let interface_shapes () =
  let x = Interface.plain "X" in
  let checks =
    [
      (Interface.write ~delta:5.0 x, "r1: WR(X, b) ->[5] W(X, b)", Interface.Write);
      (Interface.no_spontaneous_write x, "r2: Ws(X, *, b) ->[0] FALSE",
       Interface.No_spontaneous_write);
      (Interface.notify ~delta:2.0 x, "r3: Ws(X, *, b) ->[2] N(X, b)", Interface.Notify);
      (Interface.read ~delta:1.0 x, "r4: RR(X) && (X == b) ->[1] R(X, b)", Interface.Read);
      (Interface.delete ~delta:1.0 x, "r5: DR(X) ->[1] DEL(X)", Interface.Delete);
    ]
  in
  List.iter
    (fun (rule, expected, kind) ->
      (* Normalize the generated id by reparsing with a fixed label. *)
      let shown = Rule.to_string { rule with Rule.id = String.sub expected 0 2 } in
      Alcotest.(check string) expected expected shown;
      Alcotest.(check (option string)) "classified"
        (Some (Interface.kind_to_string kind))
        (Option.map Interface.kind_to_string (Interface.classify rule)))
    checks

let interface_periodic_and_conditional () =
  let x = Interface.plain "X" in
  let p = Interface.periodic_notify ~period:300.0 ~delta:1.0 x in
  Alcotest.(check (option string)) "periodic" (Some "periodic-notify")
    (Option.map Interface.kind_to_string (Interface.classify p));
  let c =
    Interface.conditional_notify ~delta:2.0
      ~condition:(Interface.relative_change_condition ~threshold:0.1)
      x
  in
  Alcotest.(check (option string)) "conditional" (Some "conditional-notify")
    (Option.map Interface.kind_to_string (Interface.classify c));
  Alcotest.(check bool) "lhs is 3-arg Ws" true
    (List.length c.Rule.lhs.Template.args = 3)

let interface_family () =
  let f = Interface.family "Phone" [ "n" ] in
  let r = Interface.notify ~delta:2.0 f in
  let desc = Event.n (Item.make "Phone" ~params:[ Value.Str "ann" ]) (Value.Int 5) in
  let steps = Rule.rhs_steps r in
  Alcotest.(check bool) "family template matches instance" true
    (Template.matches (List.hd steps).Rule.template desc
       ~seed:
         (Expr.Env.add "n"
            (Expr.Bval (Value.Str "ann"))
            (Expr.Env.add "b" (Expr.Bval (Value.Int 5)) Expr.empty_env))
    <> None)

(* ---- suggestion engine ---- *)

(* Interface statements offering [kinds] per base, at 5 s notification
   and read bounds, a 1 s write bound and a 60 s notification period. *)
let statements spec =
  List.concat_map
    (fun (base, kinds) ->
      let item = Interface.family base [ "n" ] in
      List.map
        (function
          | Interface.Write -> Interface.write ~delta:1.0 item
          | Interface.No_spontaneous_write -> Interface.no_spontaneous_write item
          | Interface.Notify -> Interface.notify ~delta:5.0 item
          | Interface.Conditional_notify ->
            Interface.conditional_notify ~delta:5.0
              ~condition:(Interface.relative_change_condition ~threshold:0.1)
              item
          | Interface.Periodic_notify ->
            Interface.periodic_notify ~period:60.0 ~delta:5.0 item
          | Interface.Read -> Interface.read ~delta:5.0 item
          | Interface.Delete -> Interface.delete ~delta:1.0 item)
        kinds)
    spec

let copy_constraint =
  C.Copy
    {
      source = Interface.family "Salary1" [ "n" ];
      target = Interface.family "Salary2" [ "n" ];
    }

let suggest_notify_write () =
  let interfaces =
    statements
      [
        ("Salary1", [ Interface.Notify; Interface.Read ]);
        ("Salary2", [ Interface.Write; Interface.No_spontaneous_write; Interface.Read ]);
      ]
  in
  let candidates = Suggest.for_constraint ~interfaces copy_constraint in
  let names = List.map (fun c -> c.Suggest.candidate_name) candidates in
  Alcotest.(check bool) "propagate offered" true (List.mem "propagate" names);
  Alcotest.(check bool) "cached variant offered" true
    (List.mem "propagate-cached" names);
  let prop = List.find (fun c -> c.Suggest.candidate_name = "propagate") candidates in
  Alcotest.(check int) "all four guarantees" 4 (List.length prop.Suggest.guarantees)

(* Without the target's no-spontaneous-write statement nothing rules out
   foreign values in Salary2: only (2) is proved, so only (2) is offered. *)
let suggest_notify_write_unquiet_target () =
  let interfaces =
    statements
      [
        ("Salary1", [ Interface.Notify; Interface.Read ]);
        ("Salary2", [ Interface.Write; Interface.Read ]);
      ]
  in
  let candidates = Suggest.for_constraint ~interfaces copy_constraint in
  let prop = List.find (fun c -> c.Suggest.candidate_name = "propagate") candidates in
  Alcotest.(check (list string)) "leads only" [ "(2) leads" ]
    (List.map Guarantee.name prop.Suggest.guarantees)

let suggest_read_only_source () =
  let interfaces =
    statements [ ("Salary1", [ Interface.Read ]); ("Salary2", [ Interface.Write ]) ]
  in
  let candidates = Suggest.for_constraint ~interfaces copy_constraint in
  (match candidates with
   | [ c ] ->
     Alcotest.(check string) "poll" "poll" c.Suggest.candidate_name;
     Alcotest.(check bool) "no leads guarantee" true
       (not
          (List.exists
             (function Guarantee.Leads _ -> true | _ -> false)
             c.Suggest.guarantees));
     (* A family gets only the forwarding half: nothing is proved, and
        the candidate says why. *)
     Alcotest.(check bool) "blocking reason kept" true
       (Option.bind c.Suggest.report Cm_core.Derive.blocking_reason <> None)
   | _ -> Alcotest.fail "expected exactly the polling candidate")

let suggest_monitor_when_unwritable () =
  let interfaces =
    statements [ ("Salary1", [ Interface.Notify ]); ("Salary2", [ Interface.Notify ]) ]
  in
  let candidates = Suggest.for_constraint ~interfaces copy_constraint in
  (match candidates with
   | [ c ] ->
     Alcotest.(check string) "monitor" "monitor" c.Suggest.candidate_name;
     Alcotest.(check bool) "monitor guarantee" true
       (List.exists
          (function Guarantee.Monitor_window _ -> true | _ -> false)
          c.Suggest.guarantees)
   | _ -> Alcotest.fail "expected exactly the monitor candidate")

let suggest_nothing_possible () =
  Alcotest.(check int) "no candidates" 0
    (List.length (Suggest.for_constraint ~interfaces:[] copy_constraint))

let suggest_leq_demarcation () =
  let interfaces =
    statements
      [
        ("X", [ Interface.Read; Interface.Write ]);
        ("Y", [ Interface.Read; Interface.Write ]);
      ]
  in
  let candidates =
    Suggest.for_constraint ~interfaces
      (C.Leq { smaller = Item.make "X"; larger = Item.make "Y" })
  in
  Alcotest.(check int) "two policies" 2 (List.length candidates);
  List.iter
    (fun c ->
      Alcotest.(check bool) "always-leq guarantee" true
        (List.exists
           (function Guarantee.Always_leq _ -> true | _ -> false)
           c.Suggest.guarantees))
    candidates

let suggest_describe () =
  let interfaces =
    statements [ ("Salary1", [ Interface.Notify ]); ("Salary2", [ Interface.Write ]) ]
  in
  match Suggest.for_constraint ~interfaces copy_constraint with
  | c :: _ ->
    let text = Suggest.describe c in
    Alcotest.(check bool) "mentions rules" true
      (String.length text > 50 && String.index_opt text '\n' <> None)
  | [] -> Alcotest.fail "no candidate"

(* ---- CM-RID parsing ---- *)

let sample_config =
  {|# payroll configuration
source sf relational
  init CREATE TABLE employees (empid TEXT PRIMARY KEY, salary INT NOT NULL)
  init INSERT INTO employees VALUES ('e1', 100)
  item Salary1(n)
    read SELECT salary FROM employees WHERE empid = $n
    write UPDATE employees SET salary = $b WHERE empid = $n
    notify employees.salary key empid
  latency notify 1.0
  delta notify 5.0

source ny relational
  init CREATE TABLE employees (empid TEXT PRIMARY KEY, salary INT NOT NULL)
  init INSERT INTO employees VALUES ('e1', 100)
  item Salary2(n)
    read SELECT salary FROM employees WHERE empid = $n
    write UPDATE employees SET salary = $b WHERE empid = $n
    notify employees.salary key empid observe

source files kvfile
  item Phone(n)
    key phone.$n
    writable

location Flag app
|}

let cmrid_parse () =
  match Cmrid.parse sample_config with
  | Error es -> Alcotest.fail (Cmrid.errors_to_string es)
  | Ok config ->
    Alcotest.(check int) "three sources" 3 (List.length config.Cmrid.sources);
    Alcotest.(check (list string)) "sites" [ "app"; "files"; "ny"; "sf" ]
      (Cmrid.sites config);
    let sf = List.hd config.Cmrid.sources in
    Alcotest.(check int) "init stmts" 2 (List.length sf.Cmrid.s_init);
    let item = List.hd sf.Cmrid.s_items in
    Alcotest.(check (option string)) "read sql"
      (Some "SELECT salary FROM employees WHERE empid = $n")
      item.Cmrid.i_read;
    (match item.Cmrid.i_notify with
     | Some n ->
       Alcotest.(check string) "table" "employees" n.Cmrid.n_table;
       Alcotest.(check bool) "send" true n.Cmrid.n_send
     | None -> Alcotest.fail "notify missing");
    let loc = Cmrid.locator config in
    Alcotest.(check string) "Salary1 at sf" "sf" (loc (Item.make "Salary1"));
    Alcotest.(check string) "Flag at app" "app" (loc (Item.make "Flag"));
    Alcotest.(check string) "unknown fallback" "unknown" (loc (Item.make "Zzz"))

let cmrid_errors () =
  let fails text =
    match Cmrid.parse text with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "bad kind" true (fails "source x oracle");
  Alcotest.(check bool) "item outside source" true (fails "item X");
  Alcotest.(check bool) "bad threshold" true
    (fails "source a relational\n item X\n notify t.c key k threshold zz");
  Alcotest.(check bool) "stray directive" true (fails "frobnicate")

let toolkit_build_and_run () =
  match Cmrid.parse sample_config with
  | Error es -> Alcotest.fail (Cmrid.errors_to_string es)
  | Ok config -> (
    match Toolkit.build ~config:(Cm_core.System.Config.seeded 21) config with
    | Error m -> Alcotest.fail m
    | Ok built ->
      (* Interface discovery reflects the configuration. *)
      let summary = Toolkit.interface_summary built in
      (match List.assoc_opt "Salary1" summary with
       | Some kinds ->
         Alcotest.(check bool) "sf has notify" true (List.mem "notify" kinds);
         Alcotest.(check bool) "sf has write" true (List.mem "write" kinds)
       | None -> Alcotest.fail "Salary1 missing from summary");
      (* Install the propagation strategy suggested for these interfaces
         and run an update through the whole configured system. *)
      Sys_.install built.Toolkit.system
        (Cm_core.Strategy.propagate ~delta:5.0
           ~source:(Interface.family "Salary1" [ "n" ])
           ~target:(Interface.family "Salary2" [ "n" ])
           ());
      let tr_sf = List.assoc "sf" built.Toolkit.relational in
      Cm_sim.Sim.schedule_at (Sys_.sim built.Toolkit.system) 5.0 (fun () ->
          match
            Cm_core.Tr_relational.exec_app tr_sf
              "UPDATE employees SET salary = 999 WHERE empid = 'e1'"
          with
          | Ok _ -> ()
          | Error e -> failwith (Cm_relational.Database.error_to_string e));
      Sys_.run built.Toolkit.system ~until:60.0;
      let db_ny = List.assoc "ny" built.Toolkit.databases in
      (match
         Cm_relational.Database.exec db_ny
           "SELECT salary FROM employees WHERE empid = 'e1'"
       with
       | Ok (Cm_relational.Database.Rows { rows = [ [ v ] ]; _ }) ->
         Alcotest.(check bool) "propagated through configured system" true
           (Value.equal v (Value.Int 999))
       | _ -> Alcotest.fail "ny lookup failed"))

let toolkit_config_rules_installed () =
  (* A strategy declared in the CM-RID file is installed and running. *)
  let config_text =
    sample_config ^ "\nrule prop: N(Salary1(n), b) ->[5] WR(Salary2(n), b)\n"
  in
  match Cmrid.parse config_text with
  | Error es -> Alcotest.fail (Cmrid.errors_to_string es)
  | Ok config -> (
    match Toolkit.build ~config:(Cm_core.System.Config.seeded 22) config with
    | Error m -> Alcotest.fail m
    | Ok built ->
      Alcotest.(check int) "strategy installed" 1
        (List.length (Sys_.strategy_rules built.Toolkit.system));
      let tr_sf = List.assoc "sf" built.Toolkit.relational in
      Cm_sim.Sim.schedule_at (Sys_.sim built.Toolkit.system) 5.0 (fun () ->
          ignore
            (Cm_core.Tr_relational.exec_app tr_sf
               "UPDATE employees SET salary = 777 WHERE empid = 'e1'"));
      Sys_.run built.Toolkit.system ~until:60.0;
      let db_ny = List.assoc "ny" built.Toolkit.databases in
      match
        Cm_relational.Database.exec db_ny
          "SELECT salary FROM employees WHERE empid = 'e1'"
      with
      | Ok (Cm_relational.Database.Rows { rows = [ [ v ] ]; _ }) ->
        Alcotest.(check bool) "propagated via configured strategy" true
          (Value.equal v (Value.Int 777))
      | _ -> Alcotest.fail "lookup failed")

let toolkit_config_bad_rules_rejected () =
  let config_text = "source a relational\n  item X\nrule @@@ nonsense\n" in
  match Cmrid.parse config_text with
  | Error _ -> ()  (* rejected at parse time is fine too *)
  | Ok config -> (
    match Toolkit.build config with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "bad strategy rules must be rejected")

let toolkit_build_rejects_duplicates () =
  let config =
    {|source a relational
  item X
source b relational
  item X
|}
  in
  match Cmrid.parse config with
  | Error es -> Alcotest.fail (Cmrid.errors_to_string es)
  | Ok config -> (
    match Toolkit.build config with
    | Error m ->
      Alcotest.(check bool) "mentions duplicate" true
        (String.length m > 0)
    | Ok _ -> Alcotest.fail "duplicate bases must be rejected")

(* The statements [cmtool check] derives from a configuration are exactly
   the ones the built translators report: same ids, bodies and δ. *)
let derived_equals_built name text =
  match Cmrid.parse text with
  | Error es -> Alcotest.fail (Cmrid.errors_to_string es)
  | Ok config -> (
    let key (r : Rule.t) = (r.Rule.id, Rule.to_string r, r.Rule.delta) in
    let sorted rules = List.sort compare (List.map key rules) in
    let derived =
      List.concat_map
        (fun (s : Cmrid.source_decl) ->
          List.concat_map (Toolkit.item_interfaces s) s.Cmrid.s_items)
        config.Cmrid.sources
    in
    match Toolkit.build config with
    | Error m -> Alcotest.fail m
    | Ok built ->
      let installed = Sys_.interface_rules built.Toolkit.system in
      Alcotest.(check bool) (name ^ ": some statements") true (installed <> []);
      Alcotest.(check (list (triple string string (float 0.0)))) name
        (sorted installed) (sorted derived))

let derivation_matches_build () =
  derived_equals_built "payroll.cmrid"
    (In_channel.with_open_text "../examples/config/payroll.cmrid" In_channel.input_all);
  derived_equals_built "sample_config" sample_config;
  derived_equals_built "overrides"
    {|source a relational
  init CREATE TABLE t (k TEXT PRIMARY KEY, v INT NOT NULL)
  item V(n)
    read SELECT v FROM t WHERE k = $n
    write UPDATE t SET v = $b WHERE k = $n
    delete DELETE FROM t WHERE k = $n
    notify t.v key k threshold 0.1
    no_spontaneous
  latency read 0.4
  latency notify 2.0
  delta write 3.0
source b kvfile
  item F(n)
    key f.$n
    writable
  latency read 0.3
  delta read 4.0
|}

let () =
  Alcotest.run "cm_toolkit"
    [
      ( "interface",
        [
          Alcotest.test_case "shapes" `Quick interface_shapes;
          Alcotest.test_case "periodic + conditional" `Quick
            interface_periodic_and_conditional;
          Alcotest.test_case "family" `Quick interface_family;
        ] );
      ( "suggest",
        [
          Alcotest.test_case "notify + write" `Quick suggest_notify_write;
          Alcotest.test_case "notify + write, target not quiet" `Quick
            suggest_notify_write_unquiet_target;
          Alcotest.test_case "read-only source" `Quick suggest_read_only_source;
          Alcotest.test_case "monitor fallback" `Quick suggest_monitor_when_unwritable;
          Alcotest.test_case "nothing possible" `Quick suggest_nothing_possible;
          Alcotest.test_case "leq -> demarcation" `Quick suggest_leq_demarcation;
          Alcotest.test_case "describe" `Quick suggest_describe;
        ] );
      ( "cmrid",
        [
          Alcotest.test_case "parse" `Quick cmrid_parse;
          Alcotest.test_case "errors" `Quick cmrid_errors;
        ] );
      ( "toolkit",
        [
          Alcotest.test_case "build and run" `Quick toolkit_build_and_run;
          Alcotest.test_case "rejects duplicates" `Quick toolkit_build_rejects_duplicates;
          Alcotest.test_case "config rules installed" `Quick toolkit_config_rules_installed;
          Alcotest.test_case "bad config rules rejected" `Quick
            toolkit_config_bad_rules_rejected;
          Alcotest.test_case "derived interfaces = built" `Quick derivation_matches_build;
        ] );
    ]
