(* Tests for the dependency/chase subsystem (lib/chase): surface parsing,
   weak acyclicity, the restricted chase (determinism, minimality, EGD
   merges), compilation to CM rules, and the differential proving that
   chase-derived repairs coincide with the hand-written §4.2 propagation
   strategy on the payroll workload. *)

module Chase = Cm_chase.Chase
module Db = Cm_relational.Database
module Sys_ = Cm_core.System
module Strategy = Cm_core.Strategy
open Cm_rule
open Cm_workload

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let parse_ok ?label text =
  match Chase.parse ?label text with
  | Ok d -> d
  | Error m -> Alcotest.failf "parse %S failed: %s" text m

let parse_all texts = List.map (fun t -> parse_ok t) texts

let cval v = Chase.Cval v
let str s = cval (Value.Str s)
let int n = cval (Value.Int n)
let fact base args = { Chase.f_base = base; f_args = args }

let fact_strings inst = List.map Chase.fact_to_string (Chase.Instance.facts inst)

let chase_ok deps inst =
  match Chase.chase deps inst with
  | Ok o -> o
  | Error m -> Alcotest.failf "chase failed: %s" m

(* --- parsing ----------------------------------------------------------- *)

let test_parse_roundtrip () =
  let d = parse_ok "copy: A(n, s) -> B(n, s)" in
  Alcotest.(check string) "canonical text" "copy: A(n, s) -> B(n, s)"
    (Chase.to_string d);
  Alcotest.(check string) "kind" "tgd" (Chase.kind_name d);
  Alcotest.(check (list string)) "body bases" [ "A" ] (Chase.body_bases d);
  Alcotest.(check (list string)) "written bases" [ "B" ]
    (Chase.written_bases d)

let test_parse_default_label () =
  let d = parse_ok ~label:"d7" "A(n, s) -> B(n, s)" in
  Alcotest.(check string) "fallback label" "d7" d.Chase.d_label

let test_parse_egd () =
  let d = parse_ok "fd: A(n, s) && A(n, s2) -> s == s2" in
  Alcotest.(check string) "kind" "egd" (Chase.kind_name d);
  Alcotest.(check string) "canonical text" "fd: A(n, s) && A(n, s2) -> s == s2"
    (Chase.to_string d);
  Alcotest.(check (list string)) "written bases: atoms carrying equated vars"
    [ "A" ] (Chase.written_bases d)

let test_parse_existential () =
  let d = parse_ok "m: A(n, s) -> B(n, z)" in
  match d.Chase.d_form with
  | Chase.Tgd t ->
    Alcotest.(check (list string)) "existential vars" [ "z" ]
      (Chase.existential_vars t)
  | Chase.Egd _ -> Alcotest.fail "expected a TGD"

let test_parse_errors () =
  let expect_error text needle =
    match Chase.parse text with
    | Ok _ -> Alcotest.failf "expected %S to fail" text
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "%S error mentions %S (got %S)" text needle m)
        true (contains m needle)
  in
  expect_error "A(n, s) B(n, s)" "->";
  expect_error "x: A(n, s) ->" "empty head";
  expect_error "x: -> A(n, s)" "empty body";
  expect_error "x: A(n, s) -> s == t" "t"

(* --- weak acyclicity and interaction cycles ---------------------------- *)

let test_weakly_acyclic_boundary () =
  (* An ordinary cycle (A ↔ B) plus a ⁎ edge that leaves the cycle for E:
     weakly acyclic — the special edge stays outside every SCC. *)
  let deps =
    parse_all
      [
        "r1: A(x, v) -> B(x, v)";
        "r2: B(x, v) -> A(x, v)";
        "r3: A(x, v) -> F(x, w)";
      ]
  in
  Alcotest.(check bool) "weakly acyclic" true (Chase.weakly_acyclic deps);
  Alcotest.(check int) "no special cycles" 0
    (List.length (Chase.special_cycles deps));
  Alcotest.(check bool) "graph still has a special edge" true
    (List.exists (fun e -> e.Chase.e_special) (Chase.dependency_graph deps))

let test_star_cycle_detected () =
  let deps = parse_all [ "wa1: A(x, y) -> B(x, z)"; "wa2: B(x, y) -> A(y, w)" ] in
  Alcotest.(check bool) "not weakly acyclic" false (Chase.weakly_acyclic deps);
  match Chase.special_cycles deps with
  | [ c ] ->
    Alcotest.(check (list string)) "positions on the cycle" [ "A.0"; "B.1" ]
      (List.map Chase.position_to_string c.Chase.c_positions);
    Alcotest.(check (list string)) "culprit labels" [ "wa1"; "wa2" ]
      c.Chase.c_labels
  | cs -> Alcotest.failf "expected one cycle, got %d" (List.length cs)

let test_interaction_cycle () =
  let tgd = parse_ok "ie1: C(x, y) -> D(x, z)" in
  let egd = parse_ok "ie2: D(x, y) && C(x, w) -> y == w" in
  (match Chase.interaction_cycles [ tgd; egd ] with
  | [ group ] ->
    Alcotest.(check (list string)) "group members" [ "ie1"; "ie2" ]
      (List.map (fun d -> d.Chase.d_label) group)
  | gs -> Alcotest.failf "expected one group, got %d" (List.length gs));
  Alcotest.(check int) "no group without the EGD" 0
    (List.length (Chase.interaction_cycles [ tgd ]))

(* --- the chase --------------------------------------------------------- *)

let copy_program = parse_all [ "copy: A(n, s) -> B(n, s)" ]

let stale_instance () =
  let inst = Chase.Instance.create () in
  List.iter
    (fun f -> ignore (Chase.Instance.add inst f))
    [
      fact "A" [ str "e1"; int 1000 ];
      fact "A" [ str "e2"; int 1100 ];
      fact "B" [ str "e1"; int 1000 ];
    ];
  inst

let test_chase_repairs_missing_copy () =
  let inst = stale_instance () in
  let o = chase_ok copy_program inst in
  Alcotest.(check (list string)) "exactly the missing tuple is inserted"
    [ "insert B(\"e2\", 1100)  (by copy)" ]
    (List.map Chase.repair_to_string o.Chase.repairs);
  Alcotest.(check int) "two rounds: one firing, one quiescent" 2
    o.Chase.rounds;
  Alcotest.(check bool) "the fact landed" true
    (Chase.Instance.mem inst (fact "B" [ str "e2"; int 1100 ]))

let test_chase_deterministic () =
  let run () =
    let inst = stale_instance () in
    let o = chase_ok copy_program inst in
    (List.map Chase.repair_to_string o.Chase.repairs, fact_strings inst)
  in
  let a = run () and b = run () in
  Alcotest.(check (pair (list string) (list string)))
    "identical repairs and final instance across runs" a b

let test_chase_minimal_fixpoint () =
  let inst = stale_instance () in
  ignore (chase_ok copy_program inst);
  let again = chase_ok copy_program inst in
  Alcotest.(check int) "second chase repairs nothing" 0
    (List.length again.Chase.repairs);
  Alcotest.(check int) "and is quiescent immediately" 1 again.Chase.rounds

let test_chase_existential_null () =
  let deps = parse_all [ "has: A(n, s) -> C(n, z)" ] in
  let inst = Chase.Instance.create () in
  ignore (Chase.Instance.add inst (fact "A" [ str "e1"; int 1000 ]));
  let o = chase_ok deps inst in
  Alcotest.(check (list string)) "insert carries a labelled null"
    [ "insert C(\"e1\", \xe2\x8a\xa51)  (by has)" ]
    (List.map Chase.repair_to_string o.Chase.repairs)

let test_egd_merges_tgd_null () =
  let deps =
    parse_all [ "t: B(x, y) -> C(x, z)"; "e: C(x, y) && B(x, w) -> y == w" ]
  in
  let inst = Chase.Instance.create () in
  ignore (Chase.Instance.add inst (fact "B" [ str "k"; int 5 ]));
  let o = chase_ok deps inst in
  Alcotest.(check (list string)) "insert with a null, then the EGD merge"
    [ "insert C(\"k\", \xe2\x8a\xa51)  (by t)"; "merge \xe2\x8a\xa51 := 5  (by e)" ]
    (List.map Chase.repair_to_string o.Chase.repairs);
  Alcotest.(check bool) "the merged constant fact is present" true
    (Chase.Instance.mem inst (fact "C" [ str "k"; int 5 ]));
  Alcotest.(check bool) "no labelled null survives" false
    (List.exists
       (fun f ->
         List.exists
           (function Chase.Lnull _ -> true | Chase.Cval _ -> false)
           f.Chase.f_args)
       (Chase.Instance.facts inst))

let test_egd_constant_clash_fails () =
  let deps = parse_all [ "fd: A(n, s) && A(n, s2) -> s == s2" ] in
  let inst = Chase.Instance.create () in
  ignore (Chase.Instance.add inst (fact "A" [ str "e1"; int 1 ]));
  ignore (Chase.Instance.add inst (fact "A" [ str "e1"; int 2 ]));
  match Chase.chase deps inst with
  | Ok _ -> Alcotest.fail "expected the chase to fail on a constant clash"
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the EGD (got %S)" m)
      true (contains m "fd")

let test_chase_max_rounds () =
  (* The wa1/wa2 ⁎-cycle really does cascade: the chase must hit the
     round limit rather than loop forever. *)
  let deps = parse_all [ "wa1: A(x, y) -> B(x, z)"; "wa2: B(x, y) -> A(y, w)" ] in
  let inst = Chase.Instance.create () in
  ignore (Chase.Instance.add inst (fact "A" [ str "a"; int 1 ]));
  match Chase.chase ~max_rounds:5 deps inst with
  | Ok _ -> Alcotest.fail "expected the round limit to trip"
  | Error m ->
    Alcotest.(check bool)
      (Printf.sprintf "error mentions rounds (got %S)" m)
      true (contains m "round")

let test_load_database () =
  let db = Db.create () in
  let must = function Ok r -> r | Error e -> failwith (Db.error_to_string e) in
  ignore
    (must
       (Db.exec db "CREATE TABLE employees (empid TEXT PRIMARY KEY, salary INT NOT NULL)"));
  List.iter
    (fun (n, s) ->
      ignore
        (must
           (Db.exec db "INSERT INTO employees VALUES ($n, $s)"
              ~params:[ ("n", Value.Str n); ("s", Value.Int s) ])))
    [ ("e1", 1000); ("e2", 1100) ];
  let inst = Chase.Instance.create () in
  (match
     Chase.Instance.load_database inst
       ~base_of_table:(function "employees" -> Some "Salary1" | _ -> None)
       db
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "load_database failed: %s" m);
  Alcotest.(check (list string)) "value-last facts, rows in order"
    [ "Salary1(\"e1\", 1000)"; "Salary1(\"e2\", 1100)" ]
    (fact_strings inst)

(* --- compiling to CM rules --------------------------------------------- *)

let to_rules_ok deps =
  match Chase.to_rules deps with
  | Ok rs -> rs
  | Error m -> Alcotest.failf "to_rules failed: %s" m

let test_to_rules_copy () =
  let rules = to_rules_ok (parse_all [ "prop: Salary1(n, s) -> Salary2(n, s)" ]) in
  Alcotest.(check (list string)) "compiles to the §4.2 propagation rule"
    [ "prop: N(Salary1(n), s) ->[5] WR(Salary2(n), s)" ]
    (List.map Rule.to_string rules)

let test_to_rules_join_condition () =
  let rules =
    to_rules_ok (parse_all [ "j: A(n, s) && B(n, t) -> C(n, s)" ])
  in
  let s = Rule.to_string (List.hd rules) in
  Alcotest.(check bool)
    (Printf.sprintf "join atom becomes an LHS condition (got %S)" s)
    true
    (contains s "B(n) == t" && contains s "WR(C(n), s)")

let test_to_rules_existential_value () =
  let rules = to_rules_ok (parse_all [ "m: A(n, s) -> D(n, z)" ]) in
  let s = Rule.to_string (List.hd rules) in
  Alcotest.(check bool)
    (Printf.sprintf "create-if-absent guard on the write (got %S)" s)
    true
    (contains s "!(E(D(n)))" && contains s "null")

let test_to_rules_refusals () =
  let expect_error deps needle =
    match Chase.to_rules (parse_all deps) with
    | Ok _ -> Alcotest.failf "expected to_rules to refuse %s" (List.hd deps)
    | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "refusal mentions %S (got %S)" needle m)
        true (contains m needle)
  in
  expect_error [ "fd: A(n, s) && A(n, s2) -> s == s2" ] "EGD";
  expect_error
    [ "wa1: A(x, y) -> B(x, z)"; "wa2: B(x, y) -> A(y, w)" ]
    "weakly acyclic";
  expect_error [ "p: A(n, s) -> B(z, s)" ] "existential variable z";
  expect_error [ "u: A(n, s) && B(m, t) -> C(n, s)" ] "join parameter m"

(* --- differential: chase repairs ≡ hand-written repairs ---------------- *)

let test_differential_instance_level () =
  (* The chase over a stale payroll instance inserts exactly the tuples
     the hand-written prop rule (N(Salary1(n), b) → WR(Salary2(n), b))
     would write: one Salary2 fact per employee whose copy is missing. *)
  let program = parse_all [ "copy_dep: Salary1(n, s) -> Salary2(n, s)" ] in
  let inst = Chase.Instance.create () in
  let salaries = [ ("e1", 1000); ("e2", 1100); ("e3", 1200) ] in
  List.iter
    (fun (n, s) -> ignore (Chase.Instance.add inst (fact "Salary1" [ str n; int s ])))
    salaries;
  (* only e1's copy is fresh *)
  ignore (Chase.Instance.add inst (fact "Salary2" [ str "e1"; int 1000 ]));
  let o = chase_ok program inst in
  let hand_written =
    (* what the RHS WR(Salary2(n), b) writes for each un-copied trigger *)
    [ "insert Salary2(\"e2\", 1100)  (by copy_dep)";
      "insert Salary2(\"e3\", 1200)  (by copy_dep)" ]
  in
  Alcotest.(check (list string)) "chase repairs = hand-written writes"
    hand_written
    (List.map Chase.repair_to_string o.Chase.repairs)

let test_differential_end_to_end () =
  (* Run the payroll workload twice from the same seed and update
     schedule: once under the hand-written propagation strategy, once
     under the rule compiled from the copy dependency.  Final salaries
     and the full event trace must agree byte for byte. *)
  let updates = [ (10.0, "e1", 2000); (30.0, "e2", 2500); (55.0, "e1", 2600) ] in
  let run install =
    let p = Payroll.create ~config:(Sys_.Config.seeded 9) ~employees:3 () in
    install p;
    List.iter
      (fun (at, emp, salary) -> Payroll.schedule_update p ~at ~emp ~salary)
      updates;
    Sys_.run p.Payroll.system ~until:200.0;
    let salaries =
      List.concat_map
        (fun emp ->
          [
            Value.to_string (Payroll.salary_at p `A emp);
            Value.to_string (Payroll.salary_at p `B emp);
          ])
        p.Payroll.employees
    in
    (salaries, Trace.to_string (Sys_.trace p.Payroll.system))
  in
  let hand = run (fun p -> Payroll.install_propagation p) in
  let compiled =
    run (fun p ->
        let rules =
          to_rules_ok (parse_all [ "prop: Salary1(n, s) -> Salary2(n, s)" ])
        in
        Sys_.install p.Payroll.system
          {
            Strategy.strategy_name = "chase-compiled";
            description = "rules compiled from the copy dependency";
            rules;
            aux_init = [];
          })
  in
  Alcotest.(check (list string)) "final salaries agree" (fst hand) (fst compiled);
  Alcotest.(check string) "traces byte-identical" (snd hand) (snd compiled);
  Alcotest.(check bool) "the runs actually propagated" true
    (List.mem "2600" (fst hand))

let test_differential_compile_at_scale () =
  (* The copy program at 32 sites x 256 families: 8192 dependencies
     X{s}_{k}(v) -> Y{s}_{k}(v) parse, are weakly acyclic, and compile to
     rule text byte-identical to the hand-written N -> WR propagation
     rules.  Identical text means identical dispatch, so no run is
     needed to compare the two programs' traces or throughput. *)
  let sites = 32 and families = 256 in
  let grid f = List.concat (List.init sites (fun s -> List.init families (f s))) in
  let hand =
    grid (fun s k ->
        Rule.make
          ~id:(Printf.sprintf "r%d_%d" s k)
          ~delta:5.0
          ~lhs:(Template.make "N" [ Expr.Item (Printf.sprintf "X%d_%d" s k, []); Expr.Var "v" ])
          (Rule.Steps
             [
               {
                 Rule.guard = Expr.Const (Value.Bool true);
                 template =
                   Template.make "WR"
                     [ Expr.Item (Printf.sprintf "Y%d_%d" s k, []); Expr.Var "v" ];
               };
             ]))
  in
  let deps =
    grid (fun s k -> parse_ok (Printf.sprintf "r%d_%d: X%d_%d(v) -> Y%d_%d(v)" s k s k s k))
  in
  Alcotest.(check int) "dependency count" (sites * families) (List.length deps);
  Alcotest.(check bool) "weakly acyclic" true (Chase.weakly_acyclic deps);
  Alcotest.(check (list string)) "compiled text = hand-written text"
    (List.map Rule.to_string hand)
    (List.map Rule.to_string (to_rules_ok deps))

let () =
  Alcotest.run "chase"
    [
      ( "parsing",
        [
          Alcotest.test_case "tgd roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "default label" `Quick test_parse_default_label;
          Alcotest.test_case "egd" `Quick test_parse_egd;
          Alcotest.test_case "existential vars" `Quick test_parse_existential;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "weak acyclicity",
        [
          Alcotest.test_case "boundary: off-cycle star edge passes" `Quick
            test_weakly_acyclic_boundary;
          Alcotest.test_case "star cycle detected" `Quick
            test_star_cycle_detected;
          Alcotest.test_case "egd/tgd interaction cycle" `Quick
            test_interaction_cycle;
        ] );
      ( "chase",
        [
          Alcotest.test_case "repairs the missing copy" `Quick
            test_chase_repairs_missing_copy;
          Alcotest.test_case "deterministic" `Quick test_chase_deterministic;
          Alcotest.test_case "minimal fixpoint" `Quick
            test_chase_minimal_fixpoint;
          Alcotest.test_case "existential null" `Quick
            test_chase_existential_null;
          Alcotest.test_case "egd merges a tgd null" `Quick
            test_egd_merges_tgd_null;
          Alcotest.test_case "constant clash fails" `Quick
            test_egd_constant_clash_fails;
          Alcotest.test_case "round limit trips on a cascade" `Quick
            test_chase_max_rounds;
          Alcotest.test_case "load from a database" `Quick test_load_database;
        ] );
      ( "to_rules",
        [
          Alcotest.test_case "copy dependency" `Quick test_to_rules_copy;
          Alcotest.test_case "join condition" `Quick
            test_to_rules_join_condition;
          Alcotest.test_case "existential value" `Quick
            test_to_rules_existential_value;
          Alcotest.test_case "refusals" `Quick test_to_rules_refusals;
        ] );
      ( "differential",
        [
          Alcotest.test_case "instance level" `Quick
            test_differential_instance_level;
          Alcotest.test_case "end to end on payroll" `Quick
            test_differential_end_to_end;
          Alcotest.test_case "compile at 32x256" `Quick
            test_differential_compile_at_scale;
        ] );
    ]
