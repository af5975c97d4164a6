(* Tests for the static derivation engine — the executable counterpart of
   the paper's [CGMW94] proof rules. *)

open Cm_rule
module Derive = Cm_core.Derive
module Interface = Cm_core.Interface
module Strategy = Cm_core.Strategy

let src = Interface.family "Salary1" [ "n" ]
let tgt = Interface.family "Salary2" [ "n" ]

let base_interfaces ~source_kinds =
  let tgt_rules =
    [
      Interface.write ~id:"t/write" ~delta:1.0 tgt;
      Interface.no_spontaneous_write ~id:"t/nospont" tgt;
    ]
  in
  let src_rules =
    List.map
      (function
        | `Notify -> Interface.notify ~id:"s/notify" ~delta:2.0 src
        | `Conditional ->
          Interface.conditional_notify ~id:"s/cnotify" ~delta:2.0
            ~condition:(Interface.relative_change_condition ~threshold:0.1)
            src
        | `Read -> Interface.read ~id:"s/read" ~delta:0.5 src
        | `Periodic -> Interface.periodic_notify ~id:"s/pnotify" ~period:60.0 ~delta:2.0 src)
      source_kinds
  in
  src_rules @ tgt_rules

let proved = function Derive.Proved _ -> true | Derive.Unprovable _ -> false

let check_verdict name expected verdict =
  Alcotest.(check bool)
    (name ^ ": " ^ Derive.verdict_to_string verdict)
    expected (proved verdict)

let derive ?(interfaces = base_interfaces ~source_kinds:[ `Notify ]) strategy =
  Derive.copy_guarantees ~interfaces ~strategy:strategy.Strategy.rules ~source:src
    ~target:tgt

(* ---- the §4.2 menu entries ---- *)

let notify_propagate_proves_all () =
  let r = derive (Strategy.propagate ~delta:5.0 ~source:src ~target:tgt ()) in
  check_verdict "(1)" true r.Derive.follows;
  check_verdict "(2)" true r.Derive.leads;
  check_verdict "(3)" true r.Derive.strictly_follows;
  (match r.Derive.metric_follows with
   | Derive.Proved { kappa = Some k; _ } ->
     (* notify 2.0 + rule 5.0 + write 1.0 *)
     Alcotest.(check (float 1e-9)) "kappa" 8.0 k
   | other -> Alcotest.fail (Derive.verdict_to_string other))

let cached_propagate_proves_all () =
  let r =
    derive (Strategy.propagate_cached ~delta:5.0 ~source:src ~target:tgt ~cache:"Cx" ())
  in
  check_verdict "(1) with cache" true r.Derive.follows;
  check_verdict "(2) with cache" true r.Derive.leads;
  check_verdict "(3) with cache" true r.Derive.strictly_follows

let contains ~needle m =
  let n = String.length needle in
  let rec go i = i + n <= String.length m && (String.sub m i n = needle || go (i + 1)) in
  go 0

(* A filter can leave the target on a superseded value for ever, so the
   filtered channel alone bounds no staleness: (4) is blocked, and the
   reason names the filter.  A complete channel beside it restores (4). *)
let conditional_notify_blocks_leads () =
  let interfaces = base_interfaces ~source_kinds:[ `Conditional ] in
  let r = derive ~interfaces (Strategy.propagate ~delta:5.0 ~source:src ~target:tgt ()) in
  check_verdict "(1)" true r.Derive.follows;
  check_verdict "(2) blocked" false r.Derive.leads;
  check_verdict "(3)" true r.Derive.strictly_follows;
  check_verdict "(4) blocked" false r.Derive.metric_follows;
  (match r.Derive.metric_follows with
   | Derive.Unprovable m ->
     Alcotest.(check bool) ("names the filter: " ^ m) true (contains ~needle:"s/cnotify" m)
   | Derive.Proved _ -> ());
  let interfaces = base_interfaces ~source_kinds:[ `Conditional; `Notify ] in
  let r = derive ~interfaces (Strategy.propagate ~delta:5.0 ~source:src ~target:tgt ()) in
  check_verdict "(4) with a complete channel too" true r.Derive.metric_follows

let periodic_notify_blocks_leads () =
  let interfaces = base_interfaces ~source_kinds:[ `Periodic ] in
  let r = derive ~interfaces (Strategy.propagate ~delta:5.0 ~source:src ~target:tgt ()) in
  check_verdict "(1)" true r.Derive.follows;
  check_verdict "(2) blocked" false r.Derive.leads

let polling_blocks_leads () =
  let interfaces = base_interfaces ~source_kinds:[ `Read ] in
  let csrc = Expr.Item ("Salary1", [ Expr.Const (Value.Str "e1") ]) in
  let ctgt = Expr.Item ("Salary2", [ Expr.Const (Value.Str "e1") ]) in
  let strategy = Strategy.poll ~period:60.0 ~delta:5.0 ~source:csrc ~target:ctgt () in
  let r =
    Derive.copy_guarantees ~interfaces ~strategy:strategy.Strategy.rules ~source:csrc
      ~target:ctgt
  in
  check_verdict "(1)" true r.Derive.follows;
  check_verdict "(2) blocked" false r.Derive.leads;
  check_verdict "(3)" true r.Derive.strictly_follows;
  check_verdict "(4)" true r.Derive.metric_follows

(* ---- blocking conditions ---- *)

let missing_write_interface_blocks_everything () =
  let interfaces = [ Interface.notify ~id:"s/notify" ~delta:2.0 src ] in
  let r = derive ~interfaces (Strategy.propagate ~delta:5.0 ~source:src ~target:tgt ()) in
  check_verdict "(1)" false r.Derive.follows;
  check_verdict "(2)" false r.Derive.leads

let spontaneous_target_blocks_follows () =
  (* No no-spontaneous-write declaration on the target. *)
  let interfaces =
    [
      Interface.notify ~id:"s/notify" ~delta:2.0 src;
      Interface.write ~id:"t/write" ~delta:1.0 tgt;
    ]
  in
  let r = derive ~interfaces (Strategy.propagate ~delta:5.0 ~source:src ~target:tgt ()) in
  check_verdict "(1) blocked" false r.Derive.follows;
  (* (2) does not need it: values still eventually arrive. *)
  check_verdict "(2)" true r.Derive.leads

let interfering_writer_blocks_follows () =
  let strategy =
    Strategy.combine
      [
        Strategy.propagate ~prefix:"main" ~delta:5.0 ~source:src ~target:tgt ();
        (* a rogue rule writing the target from somewhere else *)
        {
          Strategy.strategy_name = "rogue";
          description = "writes the target from another source";
          rules = Parser.parse_rules "rogue: N(Other(n), b) ->[5] WR(Salary2(n), b)";
          aux_init = [];
        };
      ]
  in
  let r = derive strategy in
  check_verdict "(1) blocked by interference" false r.Derive.follows;
  match r.Derive.follows with
  | Derive.Unprovable m ->
    Alcotest.(check bool) "names the rogue rule" true (contains ~needle:"rogue" m)
  | _ -> Alcotest.fail "expected unprovable"

let no_strategy_blocks_everything () =
  let r =
    Derive.copy_guarantees
      ~interfaces:(base_interfaces ~source_kinds:[ `Notify ])
      ~strategy:[] ~source:src ~target:tgt
  in
  check_verdict "(1)" false r.Derive.follows;
  check_verdict "(2)" false r.Derive.leads

let conditional_guard_blocks_follows () =
  (* An arbitrary guard the prover does not recognize. *)
  let strategy =
    {
      Strategy.strategy_name = "guarded";
      description = "guarded forward";
      rules = Parser.parse_rules "g: N(Salary1(n), b) ->[5] (b > 100) ? WR(Salary2(n), b)";
      aux_init = [];
    }
  in
  let r = derive strategy in
  check_verdict "(1) blocked by guard" false r.Derive.follows

let multiple_chains_block_strictly () =
  (* Two parallel forwarding rules: order can no longer be established. *)
  let strategy =
    {
      Strategy.strategy_name = "dual";
      description = "two parallel chains";
      rules =
        Parser.parse_rules
          {|c1: N(Salary1(n), b) ->[5] WR(Salary2(n), b)
            c2: N(Salary1(n), b) ->[9] WR(Salary2(n), b)|};
      aux_init = [];
    }
  in
  let r = derive strategy in
  check_verdict "(1)" true r.Derive.follows;
  check_verdict "(3) blocked" false r.Derive.strictly_follows;
  (* kappa takes the worst chain: 2 + 9 + 1. *)
  match r.Derive.metric_follows with
  | Derive.Proved { kappa = Some k; _ } -> Alcotest.(check (float 1e-9)) "kappa" 12.0 k
  | other -> Alcotest.fail (Derive.verdict_to_string other)

let multi_hop_chain_found () =
  (* N -> custom Fwd -> WR over two rules. *)
  let strategy =
    {
      Strategy.strategy_name = "hop";
      description = "two-hop chain";
      rules =
        Parser.parse_rules
          {|h1: N(Salary1(n), b) ->[3] Fwd(Salary2(n), b)
            h2: Fwd(Salary2(n), b) ->[4] WR(Salary2(n), b)|};
      aux_init = [];
    }
  in
  let r = derive strategy in
  check_verdict "(1) through two hops" true r.Derive.follows;
  match r.Derive.metric_follows with
  | Derive.Proved { kappa = Some k; _ } ->
    (* 2 (notify) + 3 + 4 (rules) + 1 (write) *)
    Alcotest.(check (float 1e-9)) "kappa sums hops" 10.0 k
  | other -> Alcotest.fail (Derive.verdict_to_string other)

let report_rendering () =
  let r = derive (Strategy.propagate ~delta:5.0 ~source:src ~target:tgt ()) in
  let text = Derive.report_to_string r in
  Alcotest.(check bool) "mentions all four" true
    (String.length text > 100
     && String.index_opt text '\n' <> None)

(* Consistency with the suggestion engine: over every interface
   combination the catalogue distinguishes — source kinds ⊆ {notify,
   conditional notify, read, periodic notify} × target kinds ⊆ {write,
   no-spontaneous-write, notify, read}, for a family and for a concrete
   item pair — each copy candidate offers exactly the verdicts Derive
   proves for that candidate's own rules over the statements, κ
   included. *)
let subsets xs =
  List.fold_right (fun x acc -> acc @ List.map (fun s -> x :: s) acc) xs [ [] ]

let statement item = function
  | `Notify -> Interface.notify ~delta:5.0 item
  | `Conditional ->
    Interface.conditional_notify ~delta:5.0
      ~condition:(Interface.relative_change_condition ~threshold:0.1)
      item
  | `Read -> Interface.read ~delta:5.0 item
  | `Periodic -> Interface.periodic_notify ~period:60.0 ~delta:5.0 item
  | `Write -> Interface.write ~delta:1.0 item
  | `Quiet -> Interface.no_spontaneous_write item

let proved_guarantees pair (r : Derive.report) =
  let module G = Cm_core.Guarantee in
  let proved verdict g = if proved verdict then [ g ] else [] in
  proved r.Derive.follows (G.Follows pair)
  @ proved r.Derive.leads (G.Leads pair)
  @ proved r.Derive.strictly_follows (G.Strictly_follows pair)
  @
  match r.Derive.metric_follows with
  | Derive.Proved { kappa = Some k; _ } -> [ G.Metric_follows (pair, k) ]
  | _ -> []

let derive_agrees_with_suggest () =
  let e1 = Expr.Const (Value.Str "e1") in
  let shapes =
    [
      (src, tgt, Item.make "Salary1", Item.make "Salary2");
      ( Expr.Item ("Salary1", [ e1 ]),
        Expr.Item ("Salary2", [ e1 ]),
        Item.make "Salary1" ~params:[ Value.Str "e1" ],
        Item.make "Salary2" ~params:[ Value.Str "e1" ] );
    ]
  in
  let checked = ref 0 and disagreements = ref [] in
  List.iter
    (fun (source, target, leader, follower) ->
      let pair = { Cm_core.Guarantee.leader; follower } in
      List.iter
        (fun src_kinds ->
          List.iter
            (fun tgt_kinds ->
              let interfaces =
                List.map (statement src) src_kinds @ List.map (statement tgt) tgt_kinds
              in
              List.iter
                (fun (c : Cm_core.Suggest.candidate) ->
                  if c.Cm_core.Suggest.candidate_name <> "monitor" then begin
                    incr checked;
                    let proved =
                      proved_guarantees pair
                        (Derive.copy_guarantees ~interfaces
                           ~strategy:c.Cm_core.Suggest.strategy.Strategy.rules ~source
                           ~target)
                    in
                    if proved <> c.Cm_core.Suggest.guarantees then
                      disagreements :=
                        Printf.sprintf "%s over %d statement(s): offered [%s], proved [%s]"
                          c.Cm_core.Suggest.candidate_name (List.length interfaces)
                          (String.concat "; "
                             (List.map Cm_core.Guarantee.to_string
                                c.Cm_core.Suggest.guarantees))
                          (String.concat "; " (List.map Cm_core.Guarantee.to_string proved))
                        :: !disagreements
                  end)
                (Cm_core.Suggest.for_constraint ~interfaces
                   (Cm_core.Constraint_def.Copy { source; target })))
            (subsets [ `Write; `Quiet; `Notify; `Read ]))
        (subsets [ `Notify; `Conditional; `Read; `Periodic ]))
    shapes;
  (* Per writable target: propagate for each of the 14 source sets with a
     notification kind, propagate-cached for the 8 with notify, poll for
     read alone — 23 candidates × 8 writable target sets × 2 shapes. *)
  Alcotest.(check int) "copy candidates checked" 368 !checked;
  Alcotest.(check (list string)) "offered = proved" [] (List.rev !disagreements)

let () =
  Alcotest.run "cm_derive"
    [
      ( "menu",
        [
          Alcotest.test_case "notify+write proves all" `Quick notify_propagate_proves_all;
          Alcotest.test_case "cache pattern sound" `Quick cached_propagate_proves_all;
          Alcotest.test_case "conditional blocks (2)" `Quick conditional_notify_blocks_leads;
          Alcotest.test_case "periodic blocks (2)" `Quick periodic_notify_blocks_leads;
          Alcotest.test_case "polling blocks (2)" `Quick polling_blocks_leads;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "no write interface" `Quick
            missing_write_interface_blocks_everything;
          Alcotest.test_case "spontaneous target" `Quick spontaneous_target_blocks_follows;
          Alcotest.test_case "interference" `Quick interfering_writer_blocks_follows;
          Alcotest.test_case "no strategy" `Quick no_strategy_blocks_everything;
          Alcotest.test_case "unknown guard" `Quick conditional_guard_blocks_follows;
          Alcotest.test_case "racing chains" `Quick multiple_chains_block_strictly;
        ] );
      ( "chains",
        [
          Alcotest.test_case "multi-hop" `Quick multi_hop_chain_found;
          Alcotest.test_case "rendering" `Quick report_rendering;
          Alcotest.test_case "agrees with suggest" `Quick derive_agrees_with_suggest;
        ] );
    ]
