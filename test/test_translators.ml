(* Unit tests for the CM-Translators: request handling, ground-truth
   recording, interface reporting, and failure mapping for each source
   kind. *)

open Cm_rule
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Cmi = Cm_core.Cmi
module Health = Cm_sources.Health
module Msg = Cm_core.Msg

let value = Alcotest.testable Value.pp Value.equal

(* A bare single-shell world for driving a translator directly. *)
type world = {
  system : Sys_.t;
  shell : Shell.t;
  failures : Msg.failure_kind list ref;
}

let world ?(site = "s") ?(locator = fun _ -> "s") () =
  let system = Sys_.create ~config:(Cm_core.System.Config.seeded 7) locator in
  let shell = Sys_.add_shell system ~site in
  let failures = ref [] in
  Shell.on_failure_notice shell (fun ~origin:_ kind -> failures := kind :: !failures);
  { system; shell; failures }

let run w ~until = Sys_.run w.system ~until

let named w name = Trace.named (Sys_.trace w.system) name

let request cmi desc = cmi.Cmi.request desc ~kind:Event.Spontaneous

(* ---------- kvfile translator ---------- *)

let kv_setup ?(latency = 0.1) () =
  let w = world () in
  let fs = Cm_sources.Kvfile.create () in
  let tr =
    Cm_core.Tr_kvfile.create ~sim:(Sys_.sim w.system) ~fs ~site:"s"
      ~emit:(Shell.emitter_for w.shell ~site:"s")
      ~report:(fun k -> Shell.report_failure w.shell k)
      ~latency
      [
        { Cm_core.Tr_kvfile.base = "Phone"; params = [ "n" ]; key_template = "phone.$n";
          writable = true };
        { Cm_core.Tr_kvfile.base = "Motd"; params = []; key_template = "motd";
          writable = false };
      ]
  in
  (w, fs, tr, Cm_core.Tr_kvfile.cmi tr)

let phone n = Item.make "Phone" ~params:[ Value.Str n ]

let kv_write_request_roundtrip () =
  let w, fs, _tr, cmi = kv_setup () in
  request cmi (Event.wr (phone "ann") (Value.Int 555));
  run w ~until:10.0;
  Alcotest.(check (option string)) "native file written" (Some "555")
    (Cm_sources.Kvfile.read fs "phone.ann");
  Alcotest.(check int) "WR recorded" 1 (List.length (named w "WR"));
  Alcotest.(check int) "W emitted" 1 (List.length (named w "W"))

let kv_read_request_roundtrip () =
  let w, _fs, tr, cmi = kv_setup () in
  Cm_core.Tr_kvfile.write_app tr (phone "bob") (Value.Int 777);
  request cmi (Event.rr (phone "bob"));
  run w ~until:10.0;
  match named w "R" with
  | [ r ] -> (
    match r.Event.desc.Event.args with
    | [ _; Event.Av v ] -> Alcotest.check value "read value" (Value.Int 777) v
    | _ -> Alcotest.fail "bad R args")
  | other -> Alcotest.fail (Printf.sprintf "expected 1 R, got %d" (List.length other))

let kv_read_missing_item_silent () =
  let w, _fs, _tr, cmi = kv_setup () in
  request cmi (Event.rr (phone "ghost"));
  run w ~until:10.0;
  Alcotest.(check int) "no R for a missing item" 0 (List.length (named w "R"))

let kv_delete_request () =
  let w, fs, tr, cmi = kv_setup () in
  Cm_core.Tr_kvfile.write_app tr (phone "ann") (Value.Int 1);
  request cmi (Event.dr (phone "ann"));
  run w ~until:10.0;
  Alcotest.(check (option string)) "gone" None (Cm_sources.Kvfile.read fs "phone.ann");
  Alcotest.(check int) "DEL emitted" 1 (List.length (named w "DEL"))

let kv_write_app_records_ws () =
  let w, _fs, tr, _cmi = kv_setup () in
  Cm_core.Tr_kvfile.write_app tr (phone "ann") (Value.Int 1);
  Cm_core.Tr_kvfile.write_app tr (phone "ann") (Value.Int 2);
  (match named w "Ws" with
   | [ _; second ] -> (
     match second.Event.desc.Event.args with
     | [ _; Event.Av old_v; Event.Av new_v ] ->
       Alcotest.check value "old recorded" (Value.Int 1) old_v;
       Alcotest.check value "new recorded" (Value.Int 2) new_v
     | _ -> Alcotest.fail "bad Ws args")
   | l -> Alcotest.fail (Printf.sprintf "expected 2 Ws, got %d" (List.length l)));
  Cm_core.Tr_kvfile.remove_app tr (phone "ann");
  Alcotest.(check int) "DEL ground truth" 1 (List.length (named w "DEL"))

let kv_readonly_item_rejects_write () =
  let w, fs, _tr, cmi = kv_setup () in
  Cm_sources.Kvfile.write fs "motd" "hello";
  request cmi (Event.wr (Item.make "Motd") (Value.Str "x"));
  run w ~until:10.0;
  Alcotest.(check (option string)) "unchanged" (Some "hello")
    (Cm_sources.Kvfile.read fs "motd");
  Alcotest.(check int) "no W" 0 (List.length (named w "W"))

let kv_interfaces_reported () =
  let _w, _fs, tr, cmi = kv_setup () in
  let kinds =
    List.filter_map Cm_core.Interface.classify (Cm_core.Tr_kvfile.interface_rules tr)
  in
  Alcotest.(check bool) "read" true (List.mem Cm_core.Interface.Read kinds);
  Alcotest.(check bool) "write" true (List.mem Cm_core.Interface.Write kinds);
  Alcotest.(check bool) "no notify" true
    (not (List.mem Cm_core.Interface.Notify kinds));
  Alcotest.(check bool) "owns Phone" true (List.mem "Phone" cmi.Cmi.bases);
  Alcotest.(check bool) "does not own Zzz" false (List.mem "Zzz" cmi.Cmi.bases)

let kv_down_reports_logical () =
  let w, fs, _tr, cmi = kv_setup () in
  Health.set (Cm_sources.Kvfile.health fs) Health.Down;
  request cmi (Event.wr (phone "ann") (Value.Int 1));
  run w ~until:10.0;
  Alcotest.(check bool) "logical failure reported" true
    (List.mem Msg.Logical !(w.failures))

let kv_degraded_reports_metric () =
  (* latency 0.1, delta 0.5; +2 s degradation breaks the bound. *)
  let w, fs, _tr, cmi = kv_setup () in
  Health.set (Cm_sources.Kvfile.health fs)
    (Health.Degraded { extra_latency = 2.0 });
  request cmi (Event.wr (phone "ann") (Value.Int 1));
  run w ~until:10.0;
  Alcotest.(check bool) "metric failure reported" true
    (List.mem Msg.Metric !(w.failures));
  Alcotest.(check int) "write still performed" 1 (List.length (named w "W"))

let kv_key_template () =
  let _w, _fs, tr, _cmi = kv_setup () in
  Alcotest.(check (option string)) "substituted" (Some "phone.ann")
    (Cm_core.Tr_kvfile.key_of tr (phone "ann"));
  Alcotest.(check (option string)) "constant" (Some "motd")
    (Cm_core.Tr_kvfile.key_of tr (Item.make "Motd"));
  Alcotest.(check (option string)) "unknown base" None
    (Cm_core.Tr_kvfile.key_of tr (Item.make "Nope"))

(* ---------- objstore translator ---------- *)

let obj_setup ?(notify = Cm_core.Tr_objstore.Plain) () =
  let w = world () in
  let store = Cm_sources.Objstore.create () in
  Cm_sources.Objstore.put store ~cls:"person" ~id:"ann" [ ("phone", Value.Int 1) ];
  let tr =
    Cm_core.Tr_objstore.create ~sim:(Sys_.sim w.system) ~store ~site:"s"
      ~emit:(Shell.emitter_for w.shell ~site:"s")
      ~report:(fun k -> Shell.report_failure w.shell k)
      [
        { Cm_core.Tr_objstore.base = "OPhone"; cls = "person"; attr = "phone";
          writable = true; notify };
      ]
  in
  (w, store, tr, Cm_core.Tr_objstore.cmi tr)

let ophone n = Item.make "OPhone" ~params:[ Value.Str n ]

let obj_spontaneous_produces_ws_and_n () =
  let w, _store, tr, _cmi = obj_setup () in
  ignore (Cm_core.Tr_objstore.set_app tr (ophone "ann") (Value.Int 2));
  run w ~until:10.0;
  Alcotest.(check int) "Ws" 1 (List.length (named w "Ws"));
  Alcotest.(check int) "N" 1 (List.length (named w "N"))

let obj_cm_write_is_not_spontaneous () =
  let w, store, _tr, cmi = obj_setup () in
  request cmi (Event.wr (ophone "ann") (Value.Int 9));
  run w ~until:10.0;
  Alcotest.(check (option value)) "written" (Some (Value.Int 9))
    (Cm_sources.Objstore.get_attr store ~cls:"person" ~id:"ann" ~attr:"phone");
  Alcotest.(check int) "no Ws for CM write" 0 (List.length (named w "Ws"));
  Alcotest.(check int) "no N for CM write" 0 (List.length (named w "N"));
  Alcotest.(check int) "W emitted" 1 (List.length (named w "W"))

let obj_conditional_filters () =
  let filter ~old_value ~new_value =
    Float.abs (Value.to_float new_value -. Value.to_float old_value)
    > 0.5 *. Value.to_float old_value
  in
  let w, _store, tr, _cmi =
    obj_setup
      ~notify:
        (Cm_core.Tr_objstore.Filtered
           { filter; filter_expr = Cm_core.Interface.relative_change_condition ~threshold:0.5 })
      ()
  in
  ignore (Cm_core.Tr_objstore.set_app tr (ophone "ann") (Value.Int 100));
  run w ~until:5.0;
  (* 1 -> 100 is a huge change: notified. *)
  Alcotest.(check int) "big change notified" 1 (List.length (named w "N"));
  ignore (Cm_core.Tr_objstore.set_app tr (ophone "ann") (Value.Int 105));
  run w ~until:10.0;
  (* 100 -> 105 is 5%: filtered, but Ws ground truth still recorded. *)
  Alcotest.(check int) "small change filtered" 1 (List.length (named w "N"));
  Alcotest.(check int) "ground truth kept" 2 (List.length (named w "Ws"))

let obj_read_request () =
  let w, _store, _tr, cmi = obj_setup () in
  request cmi (Event.rr (ophone "ann"));
  run w ~until:10.0;
  Alcotest.(check int) "R" 1 (List.length (named w "R"))

let obj_write_missing_object_reports () =
  let w, _store, _tr, cmi = obj_setup () in
  request cmi (Event.wr (ophone "ghost") (Value.Int 1));
  run w ~until:10.0;
  Alcotest.(check bool) "logical failure" true (List.mem Msg.Logical !(w.failures))

let obj_silent_drop_suppresses_n () =
  let w, store, tr, _cmi = obj_setup () in
  Health.set (Cm_sources.Objstore.health store) Health.Silent_drop;
  ignore (Cm_core.Tr_objstore.set_app tr (ophone "ann") (Value.Int 3));
  run w ~until:10.0;
  Alcotest.(check int) "no N" 0 (List.length (named w "N"));
  Alcotest.(check int) "no failure notice either" 0 (List.length !(w.failures))

let obj_down_drops_notification_in_flight () =
  (* notify_latency 0.5 s: the store goes Down while the N is in flight. *)
  let w, store, tr, _cmi = obj_setup () in
  ignore (Cm_core.Tr_objstore.set_app tr (ophone "ann") (Value.Int 2));
  run w ~until:0.2;
  Health.set (Cm_sources.Objstore.health store) Health.Down;
  run w ~until:10.0;
  Alcotest.(check int) "Ws recorded" 1 (List.length (named w "Ws"));
  Alcotest.(check int) "no N sent" 0 (List.length (named w "N"));
  Alcotest.(check bool) "logical failure" true (List.mem Msg.Logical !(w.failures))

(* ---------- whois translator ---------- *)

let whois_setup () =
  let w = world () in
  let server = Cm_sources.Whois.create () in
  let tr =
    Cm_core.Tr_whois.create ~sim:(Sys_.sim w.system) ~server ~site:"s"
      ~emit:(Shell.emitter_for w.shell ~site:"s")
      ~report:(fun k -> Shell.report_failure w.shell k)
      [ { Cm_core.Tr_whois.base = "WPhone"; field = "phone" } ]
  in
  Cm_core.Tr_whois.register_app tr ~name:"ann" ~fields:[ ("phone", "111") ];
  (w, server, tr, Cm_core.Tr_whois.cmi tr)

let wphone n = Item.make "WPhone" ~params:[ Value.Str n ]

let whois_read () =
  let w, _server, _tr, cmi = whois_setup () in
  request cmi (Event.rr (wphone "ann"));
  run w ~until:10.0;
  match named w "R" with
  | [ r ] -> (
    match r.Event.desc.Event.args with
    | [ _; Event.Av v ] -> Alcotest.check value "value" (Value.Str "111") v
    | _ -> Alcotest.fail "bad R args")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 R, got %d" (List.length l))

let whois_write_rejected () =
  let w, _server, _tr, cmi = whois_setup () in
  request cmi (Event.wr (wphone "ann") (Value.Str "x"));
  run w ~until:10.0;
  Alcotest.(check int) "no W from a read-only source" 0 (List.length (named w "W"))

let whois_down_write_reports_logical () =
  let w, server, _tr, cmi = whois_setup () in
  Health.set (Cm_sources.Whois.health server) Health.Down;
  request cmi (Event.wr (wphone "ann") (Value.Str "x"));
  run w ~until:10.0;
  Alcotest.(check bool) "logical failure" true (List.mem Msg.Logical !(w.failures));
  Alcotest.(check int) "no W" 0 (List.length (named w "W"))

let whois_update_app_records_ws () =
  let w, _server, tr, _cmi = whois_setup () in
  Alcotest.(check bool) "updated" true
    (Cm_core.Tr_whois.update_app tr ~name:"ann" ~field:"phone" ~value:"222");
  Alcotest.(check int) "Ws recorded" 2 (List.length (named w "Ws"));
  (* registration + update *)
  Alcotest.(check bool) "unregister" true (Cm_core.Tr_whois.unregister_app tr ~name:"ann");
  Alcotest.(check int) "DEL recorded" 1 (List.length (named w "DEL"))

let whois_interfaces_read_only () =
  let _w, _server, tr, _cmi = whois_setup () in
  let kinds =
    List.filter_map Cm_core.Interface.classify (Cm_core.Tr_whois.interface_rules tr)
  in
  Alcotest.(check (list string)) "only read" [ "read" ]
    (List.map Cm_core.Interface.kind_to_string kinds)

(* ---------- bibdb translator ---------- *)

let bib_setup () =
  let w = world () in
  let db = Cm_sources.Bibdb.create () in
  let tr =
    Cm_core.Tr_bibdb.create ~sim:(Sys_.sim w.system) ~db ~site:"s"
      ~emit:(Shell.emitter_for w.shell ~site:"s")
      ~report:(fun k -> Shell.report_failure w.shell k)
      ~base:"BibPaper" ()
  in
  (w, db, tr, Cm_core.Tr_bibdb.cmi tr)

let bib_add_withdraw_ground_truth () =
  let w, _db, tr, _cmi = bib_setup () in
  Cm_core.Tr_bibdb.add_app tr
    { Cm_sources.Bibdb.key = "p1"; title = "T"; authors = [ "a" ]; year = 1996 };
  Alcotest.(check int) "INS" 1 (List.length (named w "INS"));
  Alcotest.(check bool) "withdraw" true (Cm_core.Tr_bibdb.withdraw_app tr "p1");
  Alcotest.(check int) "DEL" 1 (List.length (named w "DEL"))

let bib_read_title () =
  let w, _db, tr, cmi = bib_setup () in
  Cm_core.Tr_bibdb.add_app tr
    { Cm_sources.Bibdb.key = "p1"; title = "A Toolkit"; authors = [ "a" ]; year = 1996 };
  request cmi (Event.rr (Item.make "BibPaper" ~params:[ Value.Str "p1" ]));
  run w ~until:10.0;
  match named w "R" with
  | [ r ] -> (
    match r.Event.desc.Event.args with
    | [ _; Event.Av v ] -> Alcotest.check value "title" (Value.Str "A Toolkit") v
    | _ -> Alcotest.fail "bad R args")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 R, got %d" (List.length l))

let bib_query_by_author () =
  let _w, _db, tr, _cmi = bib_setup () in
  Cm_core.Tr_bibdb.add_app tr
    { Cm_sources.Bibdb.key = "p1"; title = "T1"; authors = [ "widom" ]; year = 1996 };
  Cm_core.Tr_bibdb.add_app tr
    { Cm_sources.Bibdb.key = "p2"; title = "T2"; authors = [ "other" ]; year = 1995 };
  Alcotest.(check int) "by author" 1
    (List.length (Cm_core.Tr_bibdb.papers_by_author tr "widom"))

(* ---------- relational translator extras ---------- *)

let rel_setup ?(periodic = None) ?(no_spontaneous = false) () =
  let w = world () in
  let db = Cm_relational.Database.create () in
  ignore
    (Cm_relational.Database.exec db
       "CREATE TABLE t (id TEXT PRIMARY KEY, v INT NOT NULL)");
  ignore (Cm_relational.Database.exec db "INSERT INTO t VALUES ('k', 0)");
  let tr =
    Cm_core.Tr_relational.create ~sim:(Sys_.sim w.system) ~db ~site:"s"
      ~emit:(Shell.emitter_for w.shell ~site:"s")
      ~report:(fun k -> Shell.report_failure w.shell k)
      ~existence:
        [ { Cm_core.Tr_relational.ex_base = "Row"; ex_table = "t"; ex_key_column = "id" } ]
      [
        {
          Cm_core.Tr_relational.base = "V";
          params = [];
          read_sql = Some "SELECT v FROM t WHERE id = 'k'";
          write_sql = Some "UPDATE t SET v = $b WHERE id = 'k'";
          delete_sql = None;
          notify =
            Some
              { Cm_core.Tr_relational.table = "t"; column = "v"; key_column = "id";
                send = true; filter = None; filter_expr = None };
          no_spontaneous;
          periodic;
        };
      ]
  in
  (w, db, tr, Cm_core.Tr_relational.cmi tr)

let rel_existence_events () =
  let w, _db, tr, _cmi = rel_setup () in
  ignore (Cm_core.Tr_relational.exec_app tr "INSERT INTO t VALUES ('k2', 5)");
  ignore (Cm_core.Tr_relational.exec_app tr "DELETE FROM t WHERE id = 'k2'");
  Alcotest.(check int) "INS" 1 (List.length (named w "INS"));
  Alcotest.(check int) "DEL" 1 (List.length (named w "DEL"))

let rel_periodic_notify () =
  let w, _db, _tr, _cmi = rel_setup ~periodic:(Some 10.0) () in
  run w ~until:35.0;
  (* Ticks at 10, 20, 30 -> three P events and three N events. *)
  Alcotest.(check int) "P events" 3 (List.length (named w "P"));
  Alcotest.(check int) "N events" 3 (List.length (named w "N"));
  (* The reported interfaces include the periodic-notify statement. *)
  ()

let rel_periodic_down_in_flight () =
  (* The tick at 10 s sends an N due at 11 s; the source is Down by then. *)
  let w, _db, tr, _cmi = rel_setup ~periodic:(Some 10.0) () in
  run w ~until:10.5;
  Alcotest.(check int) "P tick" 1 (List.length (named w "P"));
  Health.set (Cm_core.Tr_relational.health tr) Health.Down;
  run w ~until:15.0;
  Alcotest.(check int) "no N sent" 0 (List.length (named w "N"));
  Alcotest.(check bool) "logical failure" true (List.mem Msg.Logical !(w.failures))

let rel_periodic_interface_reported () =
  let _w, _db, tr, _cmi = rel_setup ~periodic:(Some 10.0) () in
  let kinds =
    List.filter_map Cm_core.Interface.classify
      (Cm_core.Tr_relational.interface_rules tr)
  in
  Alcotest.(check bool) "periodic-notify reported" true
    (List.mem Cm_core.Interface.Periodic_notify kinds)

let rel_periodic_rejects_families () =
  let w = world () in
  let db = Cm_relational.Database.create () in
  ignore (Cm_relational.Database.exec db "CREATE TABLE t (id TEXT PRIMARY KEY, v INT)");
  Alcotest.(check bool) "rejected" true
    (try
       ignore
         (Cm_core.Tr_relational.create ~sim:(Sys_.sim w.system) ~db ~site:"s"
            ~emit:(Shell.emitter_for w.shell ~site:"s")
            ~report:(fun _ -> ())
            [
              {
                Cm_core.Tr_relational.base = "V";
                params = [ "n" ];
                read_sql = Some "SELECT v FROM t WHERE id = $n";
                write_sql = None;
                delete_sql = None;
                notify = None;
                no_spontaneous = false;
                periodic = Some 10.0;
              };
            ]);
       false
     with Invalid_argument _ -> true)

let rel_no_spontaneous_interface () =
  let _w, _db, tr, _cmi = rel_setup ~no_spontaneous:true () in
  let kinds =
    List.filter_map Cm_core.Interface.classify
      (Cm_core.Tr_relational.interface_rules tr)
  in
  Alcotest.(check bool) "no-spontaneous-write reported" true
    (List.mem Cm_core.Interface.No_spontaneous_write kinds)

let rel_no_spontaneous_violation_detected () =
  (* If the source promised Ws -> FALSE but an application writes anyway,
     the validity checker flags the prohibited event. *)
  let w, _db, tr, _cmi = rel_setup ~no_spontaneous:true () in
  ignore (Cm_core.Tr_relational.exec_app tr "UPDATE t SET v = 42 WHERE id = 'k'");
  run w ~until:10.0;
  let rules = Cm_core.Tr_relational.interface_rules tr in
  let violations =
    Validity.check ~rules ~locator:(fun _ -> "s") (Sys_.trace w.system)
  in
  Alcotest.(check bool) "prohibited Ws flagged" true
    (List.exists (function Validity.Prohibited _ -> true | _ -> false) violations)

let () =
  Alcotest.run "cm_translators"
    [
      ( "kvfile",
        [
          Alcotest.test_case "write roundtrip" `Quick kv_write_request_roundtrip;
          Alcotest.test_case "read roundtrip" `Quick kv_read_request_roundtrip;
          Alcotest.test_case "read missing" `Quick kv_read_missing_item_silent;
          Alcotest.test_case "delete" `Quick kv_delete_request;
          Alcotest.test_case "write_app ground truth" `Quick kv_write_app_records_ws;
          Alcotest.test_case "read-only item" `Quick kv_readonly_item_rejects_write;
          Alcotest.test_case "interfaces" `Quick kv_interfaces_reported;
          Alcotest.test_case "down -> logical" `Quick kv_down_reports_logical;
          Alcotest.test_case "degraded -> metric" `Quick kv_degraded_reports_metric;
          Alcotest.test_case "key template" `Quick kv_key_template;
        ] );
      ( "objstore",
        [
          Alcotest.test_case "spontaneous Ws+N" `Quick obj_spontaneous_produces_ws_and_n;
          Alcotest.test_case "CM write not spontaneous" `Quick
            obj_cm_write_is_not_spontaneous;
          Alcotest.test_case "conditional filter" `Quick obj_conditional_filters;
          Alcotest.test_case "read" `Quick obj_read_request;
          Alcotest.test_case "missing object" `Quick obj_write_missing_object_reports;
          Alcotest.test_case "silent drop" `Quick obj_silent_drop_suppresses_n;
          Alcotest.test_case "down drops N in flight" `Quick
            obj_down_drops_notification_in_flight;
        ] );
      ( "whois",
        [
          Alcotest.test_case "read" `Quick whois_read;
          Alcotest.test_case "write rejected" `Quick whois_write_rejected;
          Alcotest.test_case "down write -> logical" `Quick whois_down_write_reports_logical;
          Alcotest.test_case "update_app Ws" `Quick whois_update_app_records_ws;
          Alcotest.test_case "read-only interfaces" `Quick whois_interfaces_read_only;
        ] );
      ( "bibdb",
        [
          Alcotest.test_case "ground truth" `Quick bib_add_withdraw_ground_truth;
          Alcotest.test_case "read title" `Quick bib_read_title;
          Alcotest.test_case "by author" `Quick bib_query_by_author;
        ] );
      ( "relational",
        [
          Alcotest.test_case "existence events" `Quick rel_existence_events;
          Alcotest.test_case "periodic notify" `Quick rel_periodic_notify;
          Alcotest.test_case "periodic down in flight" `Quick rel_periodic_down_in_flight;
          Alcotest.test_case "periodic interface" `Quick rel_periodic_interface_reported;
          Alcotest.test_case "periodic rejects families" `Quick
            rel_periodic_rejects_families;
          Alcotest.test_case "no-spontaneous interface" `Quick
            rel_no_spontaneous_interface;
          Alcotest.test_case "no-spontaneous violation" `Quick
            rel_no_spontaneous_violation_detected;
        ] );
    ]
