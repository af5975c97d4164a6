(* Tests for the static checker (cmtool check).  The broken fixture at
   examples/config/broken.cmrid carries one specimen per check code; the
   golden assertions here pin code, severity, file and line for each, so
   the fixture and the checker cannot drift apart silently. *)

module Analysis = Cm_analysis.Analysis
module Sys_ = Cm_core.System
module Payroll = Cm_workload.Payroll
module Bank = Cm_workload.Bank
module Cmrid = Cm_core.Cmrid

let payroll = "../examples/config/payroll.cmrid"
let interfaces_rules = "../examples/config/interfaces.rules"
let strategy_rules = "../examples/config/strategy.rules"
let broken = "../examples/config/broken.cmrid"
let broken_rules = "../examples/config/broken.rules"
let broken_deps = "../examples/config/broken_deps.cmrid"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_payroll ?(with_rules = true) () =
  let rule_files =
    if with_rules then
      [
        (interfaces_rules, read_file interfaces_rules);
        (strategy_rules, read_file strategy_rules);
      ]
    else []
  in
  Analysis.check_config ~rule_files ~file:payroll (read_file payroll)

let check_broken () =
  Analysis.check_config
    ~rule_files:[ (broken_rules, read_file broken_rules) ]
    ~file:broken (read_file broken)

let distinct_codes findings =
  List.sort_uniq compare (List.map (fun f -> f.Analysis.code) findings)

(* [expect] pins one golden diagnostic: code, severity, basename of the
   reporting file, line, and (when given) the site column. *)
let expect findings ?site ~sev ~file ~line code =
  let matches f =
    f.Analysis.code = code
    && f.Analysis.severity = sev
    && Filename.basename f.Analysis.file = file
    && f.Analysis.line = Some line
    && match site with None -> true | Some s -> f.Analysis.site = Some s
  in
  let label =
    Printf.sprintf "%s at %s:%d" code file line
  in
  Alcotest.(check bool) label true (List.exists matches findings)

(* --- clean runs ------------------------------------------------------- *)

let test_payroll_clean () =
  let findings = check_payroll () in
  Alcotest.(check string) "no findings" "no findings" (Analysis.to_text findings);
  Alcotest.(check int) "exit 0 under --deny-warnings" 0
    (Analysis.exit_code ~deny_warnings:true findings)

let test_payroll_clean_without_rule_files () =
  (* The config alone must also pass: the synthesized interfaces suffice
     to prove [leads], so GRT001 stays quiet. *)
  let findings = check_payroll ~with_rules:false () in
  let errors, _, _ = Analysis.summary findings in
  Alcotest.(check int) "errors" 0 errors;
  Alcotest.(check int) "exit 0" 0 (Analysis.exit_code findings)

(* The built-in workloads' rules are fixed, so their static check is
   decided here once rather than before every run. *)
let test_shipped_workloads_clean () =
  let config = Sys_.Config.seeded 0 in
  let payroll =
    let p = Payroll.create ~config ~employees:1 () in
    Payroll.install_propagation p;
    p.Payroll.system
  in
  let bank = (Bank.create ~config ~policy:Cm_core.Demarcation.Conservative ()).Bank.system in
  List.iter
    (fun (name, system) ->
      let findings =
        Analysis.check_rules ~interfaces:(Sys_.interface_rules system)
          ~strategy:(Sys_.strategy_rules system) ~locator:(Sys_.locator system) ()
      in
      let errors, _, _ = Analysis.summary findings in
      Alcotest.(check int) (name ^ " workload has no errors") 0 errors)
    [ ("payroll", payroll); ("bank", bank) ]

(* --- the broken fixture ----------------------------------------------- *)

let test_broken_summary () =
  let findings = check_broken () in
  let errors, warnings, infos = Analysis.summary findings in
  Alcotest.(check int) "errors" 12 errors;
  Alcotest.(check int) "warnings" 8 warnings;
  Alcotest.(check int) "infos" 2 infos;
  Alcotest.(check int) "exit code" 1 (Analysis.exit_code findings);
  Alcotest.(check bool) "at least 8 distinct codes" true
    (List.length (distinct_codes findings) >= 8)

let test_broken_golden () =
  let fs = check_broken () in
  let cm = "broken.cmrid" in
  (* configuration / parse errors *)
  expect fs ~sev:Analysis.Error ~file:cm ~line:27 "CFG001";
  expect fs ~sev:Analysis.Error ~file:cm ~line:29 "CFG002";
  (* resolution (§4.1 rule distribution) *)
  expect fs ~sev:Analysis.Error ~file:cm ~line:31 "R001";
  expect fs ~sev:Analysis.Error ~file:cm ~line:30 ~site:"sf" "R002";
  expect fs ~sev:Analysis.Error ~file:cm ~line:32 "R003";
  expect fs ~sev:Analysis.Error ~file:cm ~line:33 "R004";
  expect fs ~sev:Analysis.Warning ~file:cm ~line:26 ~site:"zz" "R005";
  (* capabilities vs the §3.1.1 interface statements *)
  expect fs ~sev:Analysis.Error ~file:cm ~line:34 ~site:"sf" "CAP001";
  expect fs ~sev:Analysis.Error ~file:cm ~line:36 ~site:"ny" "CAP002";
  expect fs ~sev:Analysis.Error ~file:cm ~line:35 ~site:"sf" "CAP003";
  expect fs ~sev:Analysis.Warning ~file:cm ~line:37 ~site:"sf" "CAP004";
  expect fs ~sev:Analysis.Warning ~file:cm ~line:39 ~site:"ny" "CAP004";
  (* conflicts and firing cycles (Appendix A) *)
  expect fs ~sev:Analysis.Warning ~file:cm ~line:30 "CON001";
  expect fs ~sev:Analysis.Error ~file:cm ~line:42 "CON002";
  expect fs ~sev:Analysis.Warning ~file:cm ~line:40 "CON003";
  expect fs ~sev:Analysis.Info ~file:cm ~line:44 "CON004";
  (* guarantee feasibility (§3.3.1, Derive prover) *)
  expect fs ~sev:Analysis.Warning ~file:cm ~line:50 ~site:"ny" "GRT001";
  expect fs ~sev:Analysis.Error ~file:cm ~line:51 "R001";
  (* hygiene *)
  expect fs ~sev:Analysis.Warning ~file:cm ~line:46 ~site:"sf" "HYG001";
  expect fs ~sev:Analysis.Warning ~file:cm ~line:47 "HYG002";
  expect fs ~sev:Analysis.Info ~file:cm ~line:17 ~site:"sf" "HYG003";
  (* the companion rule file reports under its own name and line *)
  expect fs ~sev:Analysis.Error ~file:"broken.rules" ~line:6 "CFG002"

let test_broken_messages () =
  let fs = check_broken () in
  let message code =
    match List.find_opt (fun f -> f.Analysis.code = code) fs with
    | Some f -> f.Analysis.message
    | None -> Alcotest.failf "no %s finding" code
  in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let assert_contains code needle =
    Alcotest.(check bool)
      (Printf.sprintf "%s mentions %S" code needle)
      true
      (contains (message code) needle)
  in
  assert_contains "R001" "Nope";
  assert_contains "CAP001" "WR(B)";
  assert_contains "CON002" "ping, pong";
  assert_contains "GRT001" "copy(G1)";
  assert_contains "HYG002" "same1, same2"

(* --- the broken_deps fixture (DEP pass family) ------------------------ *)

let check_broken_deps () =
  Analysis.check_config ~file:broken_deps (read_file broken_deps)

let test_broken_deps_summary () =
  let fs = check_broken_deps () in
  let errors, warnings, infos = Analysis.summary fs in
  Alcotest.(check int) "errors" 4 errors;
  Alcotest.(check int) "warnings" 2 warnings;
  Alcotest.(check int) "infos" 0 infos;
  Alcotest.(check int) "exit code" 1 (Analysis.exit_code fs);
  Alcotest.(check (list string)) "exactly the DEP family fires"
    [ "DEP001"; "DEP002"; "DEP003"; "DEP004"; "DEP005" ]
    (distinct_codes fs)

let test_broken_deps_golden () =
  let fs = check_broken_deps () in
  let cm = "broken_deps.cmrid" in
  (* weak acyclicity: wa1/wa2 close a position cycle through a ⁎ edge *)
  expect fs ~sev:Analysis.Error ~file:cm ~line:24 "DEP001";
  (* EGD/TGD interaction: ie2 can merge the null ie1 creates *)
  expect fs ~sev:Analysis.Warning ~file:cm ~line:29 "DEP002";
  (* repair writes a base without a §3.1.1 write interface *)
  expect fs ~sev:Analysis.Error ~file:cm ~line:34 ~site:"lab" "DEP003";
  (* no body base declared anywhere: never an active trigger *)
  expect fs ~sev:Analysis.Warning ~file:cm ~line:38 "DEP004";
  (* malformed surface text, and an arity break of value-last *)
  expect fs ~sev:Analysis.Error ~file:cm ~line:41 "DEP005";
  expect fs ~sev:Analysis.Error ~file:cm ~line:45 ~site:"lab" "DEP005"

let test_broken_deps_json_deterministic () =
  let run () = Analysis.to_json ~checked:broken_deps (check_broken_deps ()) in
  Alcotest.(check string) "byte-identical across runs" (run ()) (run ())

(* Boundary: an ordinary position cycle plus an existential edge that
   stays OFF every cycle is still weakly acyclic — DEP001 must not fire
   on mere existence of ⁎ edges or of cycles. *)
let deps_config deps =
  let header =
    [
      "source s1 relational";
      "  item A(n)";
      "    read SELECT v FROM t WHERE k = $n";
      "    write UPDATE t SET v = $b WHERE k = $n";
      "  item B(n)";
      "    read SELECT v FROM t WHERE k = $n";
      "    write UPDATE t SET v = $b WHERE k = $n";
      "  item F(n)";
      "    read SELECT v FROM t WHERE k = $n";
      "    write UPDATE t SET v = $b WHERE k = $n";
    ]
  in
  let body = List.map (fun d -> "dependency " ^ d) deps in
  ( String.concat "\n" (header @ body) ^ "\n",
    (* line of the first dependency *)
    List.length header + 1 )

let test_dep_weakly_acyclic_boundary () =
  let text, _ =
    deps_config
      [
        "r1: A(x, v) -> B(x, v)";
        "r2: B(x, v) -> A(x, v)";
        "r3: A(x, v) -> F(x, w)";
      ]
  in
  let fs = Analysis.check_config ~file:"inline.cmrid" text in
  let errors, warnings, _ = Analysis.summary fs in
  Alcotest.(check int) "no errors: the ⁎ edge escapes every cycle" 0 errors;
  Alcotest.(check int) "no warnings either" 0 warnings

let test_dep_star_cycle_rejected () =
  let text, first =
    deps_config [ "wa1: A(x, y) -> B(x, z)"; "wa2: B(x, y) -> A(y, w)" ]
  in
  let fs = Analysis.check_config ~file:"inline.cmrid" text in
  expect fs ~sev:Analysis.Error ~file:"inline.cmrid" ~line:first "DEP001";
  Alcotest.(check int) "exits 1" 1 (Analysis.exit_code fs)

(* --- renderers and exit codes ----------------------------------------- *)

let test_json_deterministic () =
  let run () = Analysis.to_json ~checked:broken (check_broken ()) in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical across runs" a b;
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "carries the summary" true (contains a {|"errors":12|});
  Alcotest.(check bool) "null line for file-level findings is representable" true
    (contains (Analysis.to_json ~checked:"x" []) {|"findings":[]|})

let test_warning_exit_codes () =
  let findings = Analysis.check_config ~file:"inline.cmrid" "location Flag zz\n" in
  let errors, warnings, _ = Analysis.summary findings in
  Alcotest.(check int) "no errors" 0 errors;
  Alcotest.(check int) "one warning" 1 warnings;
  Alcotest.(check int) "warnings alone exit 0" 0 (Analysis.exit_code findings);
  Alcotest.(check int) "--deny-warnings promotes to 1" 1
    (Analysis.exit_code ~deny_warnings:true findings)

let test_check_rules_standalone () =
  (* Rules checked without any interface statements: every capability the
     strategy relies on is missing. *)
  let r = Cm_rule.Parser.parse_rule "bad: N(X(n), b) ->[5] WR(Y(n), b)" in
  let findings =
    Analysis.check_rules ~interfaces:[] ~strategy:[ r ]
      ~locator:(fun _ -> "s") ()
  in
  let codes = distinct_codes findings in
  Alcotest.(check bool) "CAP001 fires" true (List.mem "CAP001" codes);
  Alcotest.(check bool) "CAP002 fires" true (List.mem "CAP002" codes)

(* A kvfile translator offers read, write and delete only: a notify line
   under a kvfile item declares no notification interface, so a rule
   waiting for its N events can never fire. *)
let test_kvfile_notify_is_no_interface () =
  let text =
    String.concat "\n"
      [ "source sf kvfile"; "  item Doc(n)"; "    key doc.$n"; "    notify docs.v key k";
        ""; "source ny kvfile"; "  item Copy(n)"; "    key copy.$n"; "    writable"; "";
        "rule prop: N(Doc(n), b) ->[5] WR(Copy(n), b)"; "" ]
  in
  let findings = Analysis.check_config ~file:"kv.cmrid" text in
  Alcotest.(check (list string)) "only CAP002" [ "CAP002" ] (distinct_codes findings);
  expect findings ~site:"sf" ~sev:Analysis.Error ~file:"kv.cmrid" ~line:11 "CAP002"

(* --- the parser front half (satellite: error accumulation) ------------ *)

let test_parse_accumulates_errors () =
  match Cmrid.parse "bogus one\nsource sf relational\nalso bad\n" with
  | Ok _ -> Alcotest.fail "expected errors"
  | Error errs ->
    Alcotest.(check int) "both bad directives reported" 2 (List.length errs);
    Alcotest.(check (list int)) "with their line numbers" [ 1; 3 ]
      (List.map (fun e -> e.Cmrid.e_line) errs)

let test_duplicate_constraint_rejected () =
  let text =
    "constraint copy A B\nconstraint copy A B required\nconstraint copy A C\n"
  in
  (match Cmrid.parse text with
  | Ok _ -> Alcotest.fail "duplicate constraint copy must be rejected"
  | Error errs ->
    let contains hay needle =
      let lh = String.length hay and ln = String.length needle in
      let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check int) "exactly one error" 1 (List.length errs);
    let e = List.hd errs in
    Alcotest.(check int) "reported on the duplicate's line" 2 e.Cmrid.e_line;
    Alcotest.(check bool) "names the first declaration" true
      (contains e.Cmrid.e_msg "first declared on line 1"));
  (* parse_partial keeps the first of the pair and the distinct pair *)
  let t, _ = Cmrid.parse_partial text in
  Alcotest.(check int) "partial result holds two constraints" 2
    (List.length t.Cmrid.constraints)

let () =
  Alcotest.run "analysis"
    [
      ( "clean",
        [
          Alcotest.test_case "payroll + rule files" `Quick test_payroll_clean;
          Alcotest.test_case "payroll config alone" `Quick
            test_payroll_clean_without_rule_files;
          Alcotest.test_case "shipped workloads" `Quick
            test_shipped_workloads_clean;
        ] );
      ( "broken fixture",
        [
          Alcotest.test_case "summary counts" `Quick test_broken_summary;
          Alcotest.test_case "golden diagnostics" `Quick test_broken_golden;
          Alcotest.test_case "messages name culprits" `Quick
            test_broken_messages;
        ] );
      ( "broken deps fixture",
        [
          Alcotest.test_case "summary counts" `Quick test_broken_deps_summary;
          Alcotest.test_case "golden diagnostics" `Quick
            test_broken_deps_golden;
          Alcotest.test_case "json determinism" `Quick
            test_broken_deps_json_deterministic;
          Alcotest.test_case "weakly-acyclic boundary passes" `Quick
            test_dep_weakly_acyclic_boundary;
          Alcotest.test_case "star cycle rejected" `Quick
            test_dep_star_cycle_rejected;
        ] );
      ( "renderers",
        [
          Alcotest.test_case "json determinism" `Quick test_json_deterministic;
          Alcotest.test_case "warning exit codes" `Quick
            test_warning_exit_codes;
        ] );
      ( "rules mode",
        [
          Alcotest.test_case "kvfile notify line is no interface" `Quick
            test_kvfile_notify_is_no_interface;
          Alcotest.test_case "standalone capability check" `Quick
            test_check_rules_standalone;
        ] );
      ( "parsing",
        [
          Alcotest.test_case "errors accumulate" `Quick
            test_parse_accumulates_errors;
          Alcotest.test_case "duplicate constraint copy rejected" `Quick
            test_duplicate_constraint_rejected;
        ] );
    ]
