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

(* A duplicate rule id rejects the whole install before anything
   changes: the program keeps its rules, no shell runs a rejected one,
   and the rejected strategy's auxiliary data is not written. *)
let rejected_install_changes_nothing () =
  let system, sa, sb = three_site_system () in
  let strategy name rules aux_init =
    { Strategy.strategy_name = name; description = name;
      rules = Parser.parse_rules rules; aux_init }
  in
  Sys_.install system (strategy "p" "p: W(Xa, v) ->[1] W(Pb, v)" []);
  let rejected =
    strategy "dup"
      {|r: W(Xa, v) ->[1] W(Ya, v)
        r: W(Xb, v) ->[1] W(Yb, v)|}
      [ (Item.make "AuxA", Value.Int 1) ]
  in
  Alcotest.(check bool) "raises" true
    (try
       Sys_.install system rejected;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check (list string)) "program unchanged" [ "p" ]
    (List.map (fun r -> r.Rule.id) (Sys_.strategy_rules system));
  Shell.write_aux sa (Item.make "Xa") (Value.Int 7);
  Shell.write_aux sb (Item.make "Xb") (Value.Int 8);
  Sys_.run system ~until:10.0;
  Alcotest.(check (pair int int)) "fires sent at a, b: only p" (1, 0)
    (Shell.fires_sent sa, Shell.fires_sent sb);
  Alcotest.(check (list (option value))) "Pb, Ya, Yb, AuxA"
    [ Some (Value.Int 7); None; None; None ]
    [ Shell.read_aux sb (Item.make "Pb"); Shell.read_aux sb (Item.make "Ya");
      Shell.read_aux sb (Item.make "Yb"); Shell.read_aux sa (Item.make "AuxA") ]

(* An install refused for a placement changes nothing either: the aux
   item's site has no shell, so neither the program nor any shell gets
   the rule. *)
let unplaceable_install_changes_nothing () =
  let locator item =
    match item.Item.base with "Xa" -> "a" | "Ghost" -> "ghost" | _ -> "b"
  in
  let system = Sys_.create ~config:(Cm_core.System.Config.seeded 3) locator in
  let sa = Sys_.add_shell system ~site:"a" in
  let _sb = Sys_.add_shell system ~site:"b" in
  let strategy =
    { Strategy.strategy_name = "q"; description = "aux at a site without a shell";
      rules = Parser.parse_rules "q: W(Xa, v) ->[1] W(Qb, v)";
      aux_init = [ (Item.make "Ghost", Value.Int 0) ] }
  in
  Alcotest.check_raises "refused"
    (Invalid_argument "System.install: no shell handles site ghost for aux item Ghost")
    (fun () -> Sys_.install system strategy);
  Alcotest.(check (list string)) "program unchanged" []
    (List.map (fun r -> r.Rule.id) (Sys_.strategy_rules system));
  Shell.write_aux sa (Item.make "Xa") (Value.Int 1);
  Sys_.run system ~until:10.0;
  Alcotest.(check int) "W(Xa, 1) fires nothing" 0 (Shell.fires_sent sa)

(* Each shell stores only its share of the program, so an install costs
   a bounded number of live words per rule however many shells there
   are (about 34 here; 991 when every shell kept every rule).  The ring
   has E20's shape: site s owns rules U(Xs_k, v) -> W(X(s+1)_k, v). *)
let install_memory_linear () =
  let sites = 128 and per_site = 64 in
  let base s k = Printf.sprintf "X%d_%d" s k in
  let locator item =
    let b = item.Item.base in
    "s" ^ String.sub b 1 (String.index b '_' - 1)
  in
  let system = Sys_.create locator in
  for s = 0 to sites - 1 do
    ignore (Sys_.add_shell system ~site:("s" ^ string_of_int s))
  done;
  let rules =
    List.concat
      (List.init sites (fun s ->
           List.init per_site (fun k ->
               Rule.make
                 ~id:(Printf.sprintf "r%d_%d" s k)
                 ~delta:5.0
                 ~lhs:(Template.make "U" [ Expr.Item (base s k, []); Expr.Var "v" ])
                 (Rule.Steps
                    [ { Rule.guard = Expr.Const (Value.Bool true);
                        template =
                          Template.make "W"
                            [ Expr.Item (base ((s + 1) mod sites) k, []); Expr.Var "v" ] } ]))))
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  Sys_.install system
    { Strategy.strategy_name = "ring"; description = "ring"; rules; aux_init = [] };
  let added = live () - before in
  ignore (Sys.opaque_identity system);
  let per_rule = float_of_int added /. float_of_int (sites * per_site) in
  if not (per_rule < 100.0) then
    Alcotest.failf "install added %.1f live words per rule (bound 100)" per_rule

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

(* A shell added after [install] runs the installed strategy: a
   spontaneous Ws at its site fires the rule, exactly as it does when
   the shell was there first. *)
let late_shell_fires ~late =
  let system = Sys_.create ~config:(Cm_core.System.Config.seeded 5) locator in
  let early = if late then None else Some (Sys_.add_shell system ~site:"a") in
  ignore (Sys_.add_shell system ~site:"b");
  Sys_.install system
    {
      Strategy.strategy_name = "fwd";
      description = "forward A to B";
      rules = Parser.parse_rules "r: Ws(Xa(n), v) ->[1] W(Xb(n), v)";
      aux_init = [];
    };
  let sa =
    match early with Some sa -> sa | None -> Sys_.add_shell system ~site:"a"
  in
  ignore
    (Shell.emitter_for sa ~site:"a"
       (Event.ws (Item.make "Xa" ~params:[ Value.Int 1 ]) (Value.Int 7))
       ~kind:Event.Spontaneous);
  Sys_.run system ~until:10.0;
  Shell.fires_sent sa

let late_shell_gets_strategy () =
  Alcotest.(check int) "shell present at install" 1 (late_shell_fires ~late:false);
  Alcotest.(check int) "shell added after install" 1 (late_shell_fires ~late:true)

let shell_after_cutover_rejected () =
  let system, _sa, _sb = three_site_system () in
  let evo = Cm_core.Evolution.create system in
  let next =
    { Strategy.strategy_name = "next"; description = "empty program"; rules = [];
      aux_init = [] }
  in
  (match Cm_core.Evolution.propose evo next with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  (match Cm_core.Evolution.cutover evo with Ok _ -> () | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sys_.add_shell system ~site:"c");
       false
     with Invalid_argument _ -> true)

(* A shell added between propose and cutover would lack the proposed
   epoch, and the cutover would fail after switching the others. *)
let shell_during_proposal_rejected () =
  let system, sa, sb = three_site_system () in
  let evo = Cm_core.Evolution.create system in
  let next =
    { Strategy.strategy_name = "next"; description = "empty program"; rules = [];
      aux_init = [] }
  in
  (match Cm_core.Evolution.propose evo next with
   | Ok _ -> ()
   | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sys_.add_shell system ~site:"c");
       false
     with Invalid_argument _ -> true);
  (match Cm_core.Evolution.cutover evo with Ok _ -> () | Error m -> Alcotest.fail m);
  Alcotest.(check (list int)) "every shell cut over" [ 1; 1 ]
    [ Shell.rule_epoch sa; Shell.rule_epoch sb ];
  Alcotest.(check int) "current epoch" 1 (Cm_core.Evolution.current_epoch evo)

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
          Alcotest.test_case "rejected install: no change" `Quick
            rejected_install_changes_nothing;
          Alcotest.test_case "unplaceable install: no change" `Quick
            unplaceable_install_changes_nothing;
          Alcotest.test_case "install memory linear" `Quick
            install_memory_linear;
        ] );
      ( "shells",
        [
          Alcotest.test_case "lookup by site" `Quick shell_lookup_by_site;
          Alcotest.test_case "duplicate rejected" `Quick duplicate_shell_rejected;
          Alcotest.test_case "late shell gets the strategy" `Quick
            late_shell_gets_strategy;
          Alcotest.test_case "added after cutover rejected" `Quick
            shell_after_cutover_rejected;
          Alcotest.test_case "added during a proposal rejected" `Quick
            shell_during_proposal_rejected;
        ] );
      ( "guarantee view",
        [
          Alcotest.test_case "invalidation/reset round trip" `Quick
            guarantee_view_roundtrip;
        ] );
    ]
