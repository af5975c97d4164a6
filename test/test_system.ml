(* Unit tests for System: guarantee status registry, strategy
   installation (aux data placement, timer registration), and failure /
   reset semantics across sites (§5). *)

open Cm_rule
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Strategy = Cm_core.Strategy
module Guarantee = Cm_core.Guarantee
module Msg = Cm_core.Msg

let value = Alcotest.testable Value.pp Value.equal

let locator item =
  match item.Item.base with "Xa" | "AuxA" -> "a" | _ -> "b"

let pair =
  { Guarantee.leader = Item.make "Xa"; follower = Item.make "Xb" }

let three_site_system () =
  let system = Sys_.create ~config:(Cm_core.System.Config.seeded 3) locator in
  let sa = Sys_.add_shell system ~site:"a" in
  let sb = Sys_.add_shell system ~site:"b" in
  (system, sa, sb)

(* ---- guarantee registry ---- *)

let metric_failure_hits_only_metric () =
  let system, sa, _sb = three_site_system () in
  let g1 = Sys_.declare_guarantee system ~sites:[ "a"; "b" ] (Guarantee.Follows pair) in
  let g4 =
    Sys_.declare_guarantee system ~sites:[ "a"; "b" ]
      (Guarantee.Metric_follows (pair, 5.0))
  in
  Shell.report_failure sa Msg.Metric;
  Sys_.run system ~until:1.0;
  Alcotest.(check bool) "(1) still valid" true (Sys_.guarantee_valid g1);
  Alcotest.(check bool) "(4) invalidated" false (Sys_.guarantee_valid g4);
  Alcotest.(check int) "one invalidation recorded" 1 (List.length (Sys_.invalidations g4))

let logical_failure_hits_all () =
  let system, sa, _sb = three_site_system () in
  let g1 = Sys_.declare_guarantee system ~sites:[ "a"; "b" ] (Guarantee.Follows pair) in
  Shell.report_failure sa Msg.Logical;
  Sys_.run system ~until:1.0;
  Alcotest.(check bool) "invalidated" false (Sys_.guarantee_valid g1)

let unrelated_site_failure_ignored () =
  let system, _sa, sb = three_site_system () in
  let g =
    Sys_.declare_guarantee system ~sites:[ "a" ]
      (Guarantee.Metric_follows (pair, 5.0))
  in
  (* Failure at b: the guarantee only involves a. *)
  Shell.report_failure sb Msg.Logical;
  Sys_.run system ~until:1.0;
  Alcotest.(check bool) "unaffected" true (Sys_.guarantee_valid g)

let duplicate_failures_recorded_once () =
  let system, sa, _sb = three_site_system () in
  let g =
    Sys_.declare_guarantee system ~sites:[ "a" ] (Guarantee.Metric_follows (pair, 5.0))
  in
  Shell.report_failure sa Msg.Metric;
  Shell.report_failure sa Msg.Metric;
  Sys_.run system ~until:1.0;
  Alcotest.(check int) "deduplicated" 1 (List.length (Sys_.invalidations g))

let reset_clears_only_origin () =
  let system, sa, sb = three_site_system () in
  let g =
    Sys_.declare_guarantee system ~sites:[ "a"; "b" ] (Guarantee.Follows pair)
  in
  Shell.report_failure sa Msg.Logical;
  Shell.report_failure sb Msg.Logical;
  Sys_.run system ~until:1.0;
  Alcotest.(check int) "two invalidations" 2 (List.length (Sys_.invalidations g));
  Shell.broadcast_reset sa;
  Sys_.run system ~until:2.0;
  Alcotest.(check bool) "still invalid (b pending)" false (Sys_.guarantee_valid g);
  Shell.broadcast_reset sb;
  Sys_.run system ~until:3.0;
  Alcotest.(check bool) "fully restored" true (Sys_.guarantee_valid g)

let guarantee_of_roundtrip () =
  let system, _sa, _sb = three_site_system () in
  let g = Sys_.declare_guarantee system ~sites:[ "a" ] (Guarantee.Follows pair) in
  Alcotest.(check string) "same guarantee" "(1) follows"
    (Guarantee.name (Sys_.guarantee_of g))

(* ---- install semantics ---- *)

let aux_init_lands_at_locator_site () =
  let system, sa, sb = three_site_system () in
  Sys_.install system
    {
      Strategy.strategy_name = "aux";
      description = "aux placement";
      rules = Parser.parse_rules "r1: Ping(Xa, v) ->[5] Pong(Xa, v)";
      aux_init =
        [ (Item.make "AuxA", Value.Int 1); (Item.make "AuxB", Value.Int 2) ];
    };
  Alcotest.(check (option value)) "AuxA at a" (Some (Value.Int 1))
    (Shell.read_aux sa (Item.make "AuxA"));
  Alcotest.(check (option value)) "AuxB at b" (Some (Value.Int 2))
    (Shell.read_aux sb (Item.make "AuxB"));
  Alcotest.(check (option value)) "AuxB not at a" None
    (Shell.read_aux sa (Item.make "AuxB"))

let polling_rule_registers_timer () =
  let system, _sa, _sb = three_site_system () in
  Sys_.install system
    {
      Strategy.strategy_name = "poll";
      description = "tick";
      rules = Parser.parse_rules "t: P(10) ->[1] Ping(Xa, 0)";
      aux_init = [];
    };
  Sys_.run system ~until:35.0;
  Alcotest.(check int) "ticks recorded at a" 3
    (List.length
       (List.filter
          (fun (e : Event.t) -> e.site = "a")
          (Trace.named (Sys_.trace system) "P")))

let install_rejects_unplaceable_aux () =
  let system, _sa, _sb = three_site_system () in
  let bad_locator_item = Item.make "Nowhere" in
  let strategy =
    {
      Strategy.strategy_name = "bad";
      description = "aux at unknown site";
      rules = Parser.parse_rules "r: Ping(Xa, v) ->[5] Pong(Xa, v)";
      aux_init = [ (bad_locator_item, Value.Int 1) ];
    }
  in
  (* locator sends unknown bases to "b" in this fixture, so use a locator
     miss by building a separate system whose locator yields an unhandled
     site. *)
  ignore strategy;
  let system2 = Sys_.create ~config:(Cm_core.System.Config.seeded 4) (fun _ -> "ghost-site") in
  let _ = system in
  Alcotest.(check bool) "raises" true
    (try
       Sys_.install system2 strategy;
       false
     with Invalid_argument _ -> true)

let all_rules_combines () =
  let system, sa, _sb = three_site_system () in
  ignore sa;
  Sys_.install system
    {
      Strategy.strategy_name = "s";
      description = "one rule";
      rules = Parser.parse_rules "r: Ping(Xa, v) ->[5] Pong(Xa, v)";
      aux_init = [];
    };
  Alcotest.(check int) "strategy rules" 1 (List.length (Sys_.strategy_rules system));
  (* No translators in this fixture: all_rules = strategy rules. *)
  Alcotest.(check int) "all rules" 1 (List.length (Sys_.all_rules system))

let shell_lookup_by_site () =
  let system, sa, sb = three_site_system () in
  Alcotest.(check string) "a" (Shell.site sa) (Shell.site (Sys_.shell system ~site:"a"));
  Alcotest.(check string) "b" (Shell.site sb) (Shell.site (Sys_.shell system ~site:"b"));
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Sys_.shell system ~site:"zzz");
       false
     with Not_found -> true)

let duplicate_shell_rejected () =
  let system, _sa, _sb = three_site_system () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sys_.add_shell system ~site:"a");
       false
     with Invalid_argument _ -> true)

(* ---- Guarantee_view: §5 invalidation -> reset round trip ---- *)

module GV = Sys_.Guarantee_view
module Payroll = Cm_workload.Payroll

let guarantee_view_roundtrip () =
  let p = Payroll.create ~config:(Sys_.Config.seeded 7) ~employees:1 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  Sys_.declare_interfaces system
    [ Cm_core.Interface.no_spontaneous_write Payroll.target_pattern ];
  Sys_.declare_copies system [ ("Salary1", "Salary2") ];
  let entry () =
    match Sys_.copy_view system ~source:"Salary1" ~target:"Salary2" with
    | Some e -> e
    | None -> Alcotest.fail "declared copy missing from the view"
  in
  let qualifies () =
    Sys_.copy_qualifies system ~source:"Salary1" ~target:"Salary2"
  in
  let e0 = entry () in
  Alcotest.(check bool) "valid at declaration" true e0.GV.gv_valid;
  let kappa0 =
    match qualifies () with
    | Ok k -> k
    | Error e -> Alcotest.failf "expected qualification, got %s" e
  in
  Alcotest.(check bool) "kappa positive" true (kappa0 > 0.0);
  (* A §5 metric failure at the copy site invalidates the metric
     guarantee and takes the copy out of qualification... *)
  Shell.report_failure p.Payroll.shell_b Msg.Metric;
  Sys_.run system ~until:1.0;
  let e1 = entry () in
  Alcotest.(check bool) "invalidated after failure" false e1.GV.gv_valid;
  Alcotest.(check bool) "invalidation recorded" true
    (e1.GV.gv_invalidations <> []);
  (match qualifies () with
  | Error "invalidated" -> ()
  | Ok _ -> Alcotest.fail "invalidated copy still qualifies"
  | Error e -> Alcotest.failf "wrong skip reason: %s" e);
  (* ...and the origin's reset notice restores exactly the prior state:
     same validity, same kappa, empty invalidation log. *)
  Shell.broadcast_reset p.Payroll.shell_b;
  Sys_.run system ~until:2.0;
  let e2 = entry () in
  Alcotest.(check bool) "re-validated after reset" true e2.GV.gv_valid;
  Alcotest.(check int) "invalidation log cleared" 0
    (List.length e2.GV.gv_invalidations);
  match qualifies () with
  | Ok k -> Alcotest.(check (float 0.0)) "same kappa as before" kappa0 k
  | Error e -> Alcotest.failf "copy did not re-qualify: %s" e

let () =
  Alcotest.run "cm_system"
    [
      ( "guarantee registry",
        [
          Alcotest.test_case "metric only hits metric" `Quick
            metric_failure_hits_only_metric;
          Alcotest.test_case "logical hits all" `Quick logical_failure_hits_all;
          Alcotest.test_case "unrelated site ignored" `Quick
            unrelated_site_failure_ignored;
          Alcotest.test_case "dedup" `Quick duplicate_failures_recorded_once;
          Alcotest.test_case "reset per origin" `Quick reset_clears_only_origin;
          Alcotest.test_case "guarantee_of" `Quick guarantee_of_roundtrip;
        ] );
      ( "install",
        [
          Alcotest.test_case "aux placement" `Quick aux_init_lands_at_locator_site;
          Alcotest.test_case "timer registration" `Quick polling_rule_registers_timer;
          Alcotest.test_case "unplaceable aux" `Quick install_rejects_unplaceable_aux;
          Alcotest.test_case "all_rules" `Quick all_rules_combines;
        ] );
      ( "shells",
        [
          Alcotest.test_case "lookup by site" `Quick shell_lookup_by_site;
          Alcotest.test_case "duplicate rejected" `Quick duplicate_shell_rejected;
        ] );
      ( "guarantee view",
        [
          Alcotest.test_case "invalidation/reset round trip" `Quick
            guarantee_view_roundtrip;
        ] );
    ]
