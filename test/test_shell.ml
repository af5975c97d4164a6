(* Unit tests for the CM-Shell: rule distribution, condition evaluation,
   custom-event chaining, the private store, failure propagation, and
   Figure 1's "site without a shell of its own" configuration. *)

open Cm_rule
module Sim = Cm_sim.Sim
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Strategy = Cm_core.Strategy
module Msg = Cm_core.Msg

let value = Alcotest.testable Value.pp Value.equal

let strategy_of rules =
  {
    Strategy.strategy_name = "test";
    description = "test rules";
    rules = Parser.parse_rules rules;
    aux_init = [];
  }

(* Two shells a/b, items Xa at a and Xb/aux at b. *)
let two_shells () =
  let locator item =
    match item.Item.base with "Xa" -> "a" | _ -> "b"
  in
  let system = Sys_.create ~config:(Cm_core.System.Config.seeded 5) locator in
  let sa = Sys_.add_shell system ~site:"a" in
  let sb = Sys_.add_shell system ~site:"b" in
  (system, sa, sb)

let emit_at shell ~site desc =
  ignore ((Shell.emitter_for shell ~site) desc ~kind:Event.Spontaneous)

let custom name args = { Event.name; args }

let av v = Event.Av v
let ai base = Event.Ai (Item.make base)

(* ---- rule distribution and firing ---- *)

let cross_site_chaining () =
  (* A custom event at a triggers a store write at b. *)
  let system, sa, sb = two_shells () in
  Sys_.install system (strategy_of "r1: Ping(Xa, v) ->[5] W(Cache, v)");
  emit_at sa ~site:"a" (custom "Ping" [ ai "Xa"; av (Value.Int 7) ]);
  Sys_.run system ~until:10.0;
  Alcotest.(check (option value)) "store updated at b" (Some (Value.Int 7))
    (Shell.read_aux sb (Item.make "Cache"))

let chaining_through_custom_events () =
  (* Rule 1 produces a custom event that rule 2 consumes. *)
  let system, _sa, sb = two_shells () in
  Sys_.install system
    (strategy_of
       {|r1: Ping(Xb, v) ->[5] Pong(Xb, v)
         r2: Pong(Xb, v) ->[5] W(Cache, v)|});
  emit_at sb ~site:"b" (custom "Ping" [ ai "Xb"; av (Value.Int 3) ]);
  Sys_.run system ~until:10.0;
  Alcotest.(check (option value)) "chained" (Some (Value.Int 3))
    (Shell.read_aux sb (Item.make "Cache"))

let lhs_condition_gates_firing () =
  let system, sa, sb = two_shells () in
  (* Condition on CM data at the LHS site. *)
  Shell.write_aux sa (Item.make "Gate") (Value.Bool false);
  Sys_.install system
    (strategy_of "r1: Ping(Xa, v) && Gate == true ->[5] W(Cache, v)");
  (* Gate is at b per locator... use an a-local gate instead. *)
  ignore sb;
  emit_at sa ~site:"a" (custom "Ping" [ ai "Xa"; av (Value.Int 1) ]);
  Sys_.run system ~until:10.0;
  Alcotest.(check (option value)) "not fired" None
    (Shell.read_aux sb (Item.make "Cache"))

let guard_sequences_evaluate_in_order () =
  (* The §3.2 cache rule: compare before updating the cache. *)
  let system, _sa, sb = two_shells () in
  Sys_.install system
    (strategy_of
       "r1: Ping(Xb, v) ->[5] (Cache != v) ? Hit(Xb, v), W(Cache, v)");
  Shell.write_aux sb (Item.make "Cache") (Value.Int 1);
  let hits = ref 0 in
  Shell.on_custom sb "Hit" (fun _ -> incr hits);
  emit_at sb ~site:"b" (custom "Ping" [ ai "Xb"; av (Value.Int 1) ]);
  Sys_.run system ~until:5.0;
  Alcotest.(check int) "same value: no hit" 0 !hits;
  emit_at sb ~site:"b" (custom "Ping" [ ai "Xb"; av (Value.Int 2) ]);
  Sys_.run system ~until:10.0;
  Alcotest.(check int) "changed value: hit" 1 !hits;
  Alcotest.(check (option value)) "cache updated" (Some (Value.Int 2))
    (Shell.read_aux sb (Item.make "Cache"));
  emit_at sb ~site:"b" (custom "Ping" [ ai "Xb"; av (Value.Int 2) ]);
  Sys_.run system ~until:15.0;
  Alcotest.(check int) "cache suppressed repeat" 1 !hits

(* A guard that cannot be evaluated — its value is not a boolean, its
   arithmetic mixes kinds, or it divides by zero — is a failed guard:
   counted as a rejection on its side, never an exception out of the
   shell. *)
let failed_evaluation_is_a_failed_guard () =
  let run rules =
    let obs = Cm_core.Obs.create () in
    let system =
      Sys_.create
        ~config:Sys_.Config.(seeded 5 |> with_obs obs)
        (fun item -> match item.Item.base with "X" -> "a" | _ -> "b")
    in
    let sa = Sys_.add_shell system ~site:"a" in
    let sb = Sys_.add_shell system ~site:"b" in
    Sys_.install system (strategy_of rules);
    Shell.write_aux sa (Item.make "X") (Value.Int 3);
    Sys_.run system ~until:10.0;
    ( Shell.read_aux sb (Item.make "Y"),
      Cm_core.Obs.counter_value obs "shell_guard_rejections"
        ~labels:[ ("site", "a"); ("rule", "r"); ("side", "lhs") ],
      Cm_core.Obs.counter_value obs "shell_guard_rejections"
        ~labels:[ ("site", "b"); ("rule", "r"); ("side", "rhs") ] )
  in
  List.iter
    (fun cond ->
      Alcotest.(check (triple (option value) int int))
        ("LHS " ^ cond) (None, 1, 0)
        (run (Printf.sprintf "r: W(X, b) && %s ->[1] W(Y, b)" cond));
      Alcotest.(check (triple (option value) int int))
        ("RHS " ^ cond) (None, 0, 1)
        (run (Printf.sprintf "r: W(X, b) ->[1] (%s) ? W(Y, b)" cond)))
    [ "b + 1"; "b / 0 > 1"; "b + \"s\" > 1" ]

let clock_item_binds_time () =
  let system, _sa, sb = two_shells () in
  Sys_.install system
    (strategy_of "r1: Ping(Xb, v) && Clock == t ->[5] W(Stamp, t)");
  Sim.schedule_at (Sys_.sim system) 42.0 (fun () ->
      emit_at sb ~site:"b" (custom "Ping" [ ai "Xb"; av (Value.Int 0) ]));
  Sys_.run system ~until:50.0;
  match Shell.read_aux sb (Item.make "Stamp") with
  | Some (Value.Float t) -> Alcotest.(check (float 1e-9)) "stamped" 42.0 t
  | _ -> Alcotest.fail "Stamp not written"

let duplicate_rule_ids_rejected () =
  let system, _sa, _sb = two_shells () in
  Sys_.install system (strategy_of "r1: Ping(Xa, v) ->[5] Pong(Xa, v)");
  Alcotest.(check bool) "raises" true
    (try
       Sys_.install system (strategy_of "r1: Ping(Xa, v) ->[5] Pong(Xa, v)");
       false
     with Invalid_argument _ -> true)

(* §4.1 end to end: a rule installed only at the shell of its LHS site
   fires there and runs at the shell of its RHS site, which never stored
   it — the firing carries its rule. *)
let rule_travels_with_its_firing () =
  let system, sa, sb = two_shells () in
  Shell.install_strategy sa (Parser.parse_rules "r: W(Xa, v) ->[5] W(Yb, v)");
  Shell.write_aux sa (Item.make "Xa") (Value.Int 7);
  Sys_.run system ~until:10.0;
  Alcotest.(check (pair int int)) "fires sent at a, executed at b" (1, 1)
    (Shell.fires_sent sa, Shell.fires_executed sb);
  Alcotest.(check (option value)) "Yb written" (Some (Value.Int 7))
    (Shell.read_aux sb (Item.make "Yb"))

let counters_track_activity () =
  let system, sa, sb = two_shells () in
  Sys_.install system (strategy_of "r1: Ping(Xa, v) ->[5] W(Cache, v)");
  emit_at sa ~site:"a" (custom "Ping" [ ai "Xa"; av (Value.Int 1) ]);
  emit_at sa ~site:"a" (custom "Ping" [ ai "Xa"; av (Value.Int 2) ]);
  Sys_.run system ~until:10.0;
  Alcotest.(check int) "fires sent by a" 2 (Shell.fires_sent sa);
  Alcotest.(check int) "fires executed by b" 2 (Shell.fires_executed sb);
  Alcotest.(check bool) "events seen" true (Shell.events_seen sa >= 2)

(* ---- periodic registration ---- *)

let periodic_deduplicated () =
  let system, sa, _sb = two_shells () in
  Shell.register_periodic sa ~period:10.0 ();
  Shell.register_periodic sa ~period:10.0 ();
  (* duplicate ignored *)
  Sys_.run system ~until:35.0;
  Alcotest.(check int) "one tick stream" 3
    (List.length (Trace.named (Sys_.trace system) "P"))

let periodic_distinct_periods () =
  let system, sa, _sb = two_shells () in
  Shell.register_periodic sa ~period:10.0 ();
  Shell.register_periodic sa ~period:15.0 ();
  Sys_.run system ~until:31.0;
  (* 10, 20, 30 and 15, 30 -> 5 ticks *)
  Alcotest.(check int) "both streams" 5
    (List.length (Trace.named (Sys_.trace system) "P"))

(* ---- aux store ---- *)

let aux_write_records_event () =
  let system, _sa, sb = two_shells () in
  Shell.write_aux sb (Item.make "Flag") (Value.Bool true);
  Alcotest.(check int) "W recorded" 1
    (List.length (Trace.named (Sys_.trace system) "W"));
  Alcotest.(check (option value)) "readable" (Some (Value.Bool true))
    (Shell.read_aux sb (Item.make "Flag"))

(* ---- failure notices ---- *)

let failure_notice_propagates () =
  let system, sa, sb = two_shells () in
  ignore system;
  let received = ref [] in
  Shell.on_failure_notice sb (fun ~origin kind -> received := (origin, kind) :: !received);
  Shell.report_failure sa Msg.Metric;
  Sys_.run system ~until:5.0;
  Alcotest.(check bool) "peer notified" true (List.mem ("a", Msg.Metric) !received)

let reset_notice_propagates () =
  let system, sa, sb = two_shells () in
  let resets = ref [] in
  Shell.on_reset_notice sb (fun ~origin -> resets := origin :: !resets);
  Shell.broadcast_reset sa;
  Sys_.run system ~until:5.0;
  Alcotest.(check (list string)) "reset received" [ "a" ] !resets

(* ---- Figure 1: a site served by another site's shell ---- *)

let foreign_site_served_by_shell () =
  (* Sites a (shell), c (no shell, its translator attaches to a's shell),
     b (shell, write target).  Propagation from c's item to b's store. *)
  let locator item =
    match item.Item.base with
    | "Xc" -> "c"
    | "Xa" -> "a"
    | _ -> "b"
  in
  let system = Sys_.create ~config:(Cm_core.System.Config.seeded 9) locator in
  let sa = Sys_.add_shell system ~site:"a" in
  let sb = Sys_.add_shell system ~site:"b" in
  (* A kvfile source living at site c, translated by a's shell. *)
  let fs = Cm_sources.Kvfile.create () in
  let tr =
    Cm_core.Tr_kvfile.create ~sim:(Sys_.sim system) ~fs ~site:"c"
      ~emit:(Shell.emitter_for sa ~site:"c")
      ~report:(fun k -> Shell.report_failure sa k)
      [ { Cm_core.Tr_kvfile.base = "Xc"; params = []; key_template = "xc"; writable = true } ]
  in
  Sys_.register_translator system ~shell:sa (Cm_core.Tr_kvfile.cmi tr);
  (* Strategy triggered by spontaneous writes at site c. *)
  Sys_.install system (strategy_of "r1: Ws(Xc, v) ->[5] W(Cache, v)");
  Cm_core.Tr_kvfile.write_app tr (Item.make "Xc") (Value.Int 99);
  Sys_.run system ~until:10.0;
  Alcotest.(check (option value)) "propagated from shell-less site"
    (Some (Value.Int 99))
    (Shell.read_aux sb (Item.make "Cache"));
  (* The Ws event is recorded at site c, not at the serving shell's site. *)
  match Trace.named (Sys_.trace system) "Ws" with
  | [ e ] -> Alcotest.(check string) "event site" "c" e.Event.site
  | _ -> Alcotest.fail "expected one Ws"

let foreign_site_rhs_routed () =
  (* RHS items at the shell-less site are routed to its serving shell. *)
  let locator item =
    match item.Item.base with "Xc" -> "c" | "Xa" -> "a" | _ -> "b"
  in
  let system = Sys_.create ~config:(Cm_core.System.Config.seeded 10) locator in
  let sa = Sys_.add_shell system ~site:"a" in
  let sb = Sys_.add_shell system ~site:"b" in
  ignore sb;
  let fs = Cm_sources.Kvfile.create () in
  let tr =
    Cm_core.Tr_kvfile.create ~sim:(Sys_.sim system) ~fs ~site:"c"
      ~emit:(Shell.emitter_for sa ~site:"c")
      ~report:(fun k -> Shell.report_failure sa k)
      [ { Cm_core.Tr_kvfile.base = "Xc"; params = []; key_template = "xc"; writable = true } ]
  in
  Sys_.register_translator system ~shell:sa (Cm_core.Tr_kvfile.cmi tr);
  (* An event at b requests a write at c: the Fire envelope must route to
     a's shell (which serves c). *)
  Sys_.install system (strategy_of "r1: Ping(Xb, v) ->[5] WR(Xc, v)");
  ignore ((Shell.emitter_for sb ~site:"b") (custom "Ping" [ ai "Xb"; av (Value.Int 5) ])
            ~kind:Event.Spontaneous);
  Sys_.run system ~until:10.0;
  Alcotest.(check (option string)) "written at c" (Some "5")
    (Cm_sources.Kvfile.read fs "xc")

(* ---- dispatch edge cases ---- *)

let chaining_rule_fires_only_locally () =
  (* A rule mentioning no item on either side has no LHS site: it is
     installed everywhere and must trigger only on events at the
     shell's own site — not on events the shell records for a site it
     merely serves. *)
  let system, sa, sb = two_shells () in
  Sys_.install system (strategy_of "r1: Tick(v) ->[5] Tock(v)");
  let tocks_a = ref 0 and tocks_b = ref 0 in
  Shell.on_custom sa "Tock" (fun _ -> incr tocks_a);
  Shell.on_custom sb "Tock" (fun _ -> incr tocks_b);
  emit_at sa ~site:"a" (custom "Tick" [ av (Value.Int 1) ]);
  Sys_.run system ~until:10.0;
  Alcotest.(check int) "fires at the recording shell" 1 !tocks_a;
  Alcotest.(check int) "not at the peer shell" 0 !tocks_b;
  (* Same event name recorded at shell a for site b: site filter must
     reject it on both dispatch paths. *)
  emit_at sa ~site:"b" (custom "Tick" [ av (Value.Int 2) ]);
  Sys_.run system ~until:20.0;
  Alcotest.(check int) "foreign-site event skips the chaining rule" 1 !tocks_a

let periodic_reinstall_idempotent () =
  (* Two strategies carrying P rules with the same (site, period): the
     second install must not start a second tick stream, but both rules
     must fire on every tick of the shared stream. *)
  let system, _sa, _sb = two_shells () in
  Sys_.install system (strategy_of "p1: P(10) ->[1] Saw(Xa)");
  Sys_.install system (strategy_of "p2: P(10) ->[1] Saw2(Xa)");
  Sys_.run system ~until:38.0;
  Alcotest.(check int) "one tick stream" 3
    (List.length (Trace.named (Sys_.trace system) "P"));
  Alcotest.(check int) "first rule fires each tick" 3
    (List.length (Trace.named (Sys_.trace system) "Saw"));
  Alcotest.(check int) "second rule fires each tick" 3
    (List.length (Trace.named (Sys_.trace system) "Saw2"))

let custom_handlers_coexist_with_rules () =
  (* on_custom hooks and indexed rule dispatch observe the same event:
     neither short-circuits the other. *)
  let system, sa, sb = two_shells () in
  Sys_.install system (strategy_of "r1: Ping(Xa, v) ->[5] W(Cache, v)");
  let seen = ref 0 in
  Shell.on_custom sa "Ping" (fun e ->
      Alcotest.(check string) "handler sees the event" "Ping" e.Event.desc.Event.name;
      incr seen);
  emit_at sa ~site:"a" (custom "Ping" [ ai "Xa"; av (Value.Int 9) ]);
  Sys_.run system ~until:10.0;
  Alcotest.(check int) "handler ran once" 1 !seen;
  Alcotest.(check (option value)) "rule fired too" (Some (Value.Int 9))
    (Shell.read_aux sb (Item.make "Cache"))

let () =
  Alcotest.run "cm_shell"
    [
      ( "engine",
        [
          Alcotest.test_case "cross-site chaining" `Quick cross_site_chaining;
          Alcotest.test_case "custom event chaining" `Quick chaining_through_custom_events;
          Alcotest.test_case "lhs condition" `Quick lhs_condition_gates_firing;
          Alcotest.test_case "guard sequence" `Quick guard_sequences_evaluate_in_order;
          Alcotest.test_case "clock item" `Quick clock_item_binds_time;
          Alcotest.test_case "failed evaluation is a failed guard" `Quick
            failed_evaluation_is_a_failed_guard;
          Alcotest.test_case "duplicate ids" `Quick duplicate_rule_ids_rejected;
          Alcotest.test_case "counters" `Quick counters_track_activity;
          Alcotest.test_case "rule travels with its firing" `Quick
            rule_travels_with_its_firing;
        ] );
      ( "periodic",
        [
          Alcotest.test_case "deduplicated" `Quick periodic_deduplicated;
          Alcotest.test_case "distinct periods" `Quick periodic_distinct_periods;
          Alcotest.test_case "re-install idempotent" `Quick
            periodic_reinstall_idempotent;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "chaining rule local only" `Quick
            chaining_rule_fires_only_locally;
          Alcotest.test_case "custom handlers coexist" `Quick
            custom_handlers_coexist_with_rules;
        ] );
      ("store", [ Alcotest.test_case "aux write" `Quick aux_write_records_event ]);
      ( "failures",
        [
          Alcotest.test_case "failure notice" `Quick failure_notice_propagates;
          Alcotest.test_case "reset notice" `Quick reset_notice_propagates;
        ] );
      ( "figure-1 site 3",
        [
          Alcotest.test_case "foreign site served" `Quick foreign_site_served_by_shell;
          Alcotest.test_case "foreign RHS routed" `Quick foreign_site_rhs_routed;
        ] );
    ]
