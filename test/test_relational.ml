(* Tests for the in-memory relational engine (the "Sybase" stand-in). *)

open Cm_relational
module V = Cm_rule.Value

let value = Alcotest.testable V.pp V.equal

let ok = function
  | Ok r -> r
  | Error e -> Alcotest.fail (Database.error_to_string e)

let expect_error pred what = function
  | Ok _ -> Alcotest.fail ("expected error: " ^ what)
  | Error e ->
    if not (pred e) then
      Alcotest.fail (what ^ ", got: " ^ Database.error_to_string e)

let fresh () =
  let db = Database.create () in
  ignore
    (ok
       (Database.exec db
          "CREATE TABLE emp (id TEXT PRIMARY KEY, salary INT NOT NULL, dept TEXT)"));
  db

let insert db id salary dept =
  ignore
    (ok
       (Database.exec db
          (Printf.sprintf "INSERT INTO emp VALUES ('%s', %d, '%s')" id salary dept)))

let rows = function
  | Database.Rows { rows; _ } -> rows
  | _ -> Alcotest.fail "expected rows"

(* ---- DDL / DML basics ---- *)

let create_and_insert () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  Alcotest.(check (option int)) "row count" (Some 1) (Database.row_count db "emp");
  Alcotest.(check (option (list string)))
    "columns" (Some [ "id"; "salary"; "dept" ]) (Database.columns_of db "emp")

let select_star () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  insert db "e2" 200 "eng";
  let r = rows (ok (Database.exec db "SELECT * FROM emp")) in
  Alcotest.(check int) "two rows" 2 (List.length r)

let select_where () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  insert db "e2" 200 "eng";
  insert db "e3" 300 "eng";
  let r = rows (ok (Database.exec db "SELECT id FROM emp WHERE dept = 'eng'")) in
  Alcotest.(check int) "filter" 2 (List.length r);
  let r = rows (ok (Database.exec db "SELECT id FROM emp WHERE salary > 150 AND dept = 'eng'")) in
  Alcotest.(check int) "conjunction" 2 (List.length r);
  let r = rows (ok (Database.exec db "SELECT id FROM emp WHERE salary >= 300 OR dept = 'sales'")) in
  Alcotest.(check int) "disjunction" 2 (List.length r)

let select_order_by () =
  let db = fresh () in
  insert db "e1" 300 "a";
  insert db "e2" 100 "b";
  insert db "e3" 200 "c";
  let r = rows (ok (Database.exec db "SELECT id FROM emp ORDER BY salary")) in
  Alcotest.(check (list (list string)))
    "ascending"
    [ [ "\"e2\"" ]; [ "\"e3\"" ]; [ "\"e1\"" ] ]
    (List.map (List.map V.to_string) r);
  let r = rows (ok (Database.exec db "SELECT id FROM emp ORDER BY salary DESC")) in
  Alcotest.(check string) "descending first" "\"e1\""
    (V.to_string (List.hd (List.hd r)))

let select_insertion_order () =
  let db = fresh () in
  insert db "z" 1 "a";
  insert db "a" 2 "a";
  let r = rows (ok (Database.exec db "SELECT id FROM emp")) in
  Alcotest.(check string) "insertion order" "\"z\"" (V.to_string (List.hd (List.hd r)))

let update_rows () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  insert db "e2" 200 "eng";
  (match ok (Database.exec db "UPDATE emp SET salary = salary + 10 WHERE dept = 'eng'") with
   | Database.Affected n -> Alcotest.(check int) "one updated" 1 n
   | _ -> Alcotest.fail "expected Affected");
  let r = rows (ok (Database.exec db "SELECT salary FROM emp WHERE id = 'e2'")) in
  Alcotest.check value "new salary" (V.Int 210) (List.hd (List.hd r))

let delete_rows () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  insert db "e2" 200 "eng";
  (match ok (Database.exec db "DELETE FROM emp WHERE id = 'e1'") with
   | Database.Affected n -> Alcotest.(check int) "one deleted" 1 n
   | _ -> Alcotest.fail "expected Affected");
  Alcotest.(check (option int)) "remaining" (Some 1) (Database.row_count db "emp")

let drop_table () =
  let db = fresh () in
  ignore (ok (Database.exec db "DROP TABLE emp"));
  Alcotest.(check (option int)) "gone" None (Database.row_count db "emp")

let params_substitution () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  let r =
    rows
      (ok
         (Database.exec db "SELECT salary FROM emp WHERE id = $n"
            ~params:[ ("n", V.Str "e1") ]))
  in
  Alcotest.check value "param read" (V.Int 100) (List.hd (List.hd r));
  ignore
    (ok
       (Database.exec db "UPDATE emp SET salary = $b WHERE id = $n"
          ~params:[ ("b", V.Int 555); ("n", V.Str "e1") ]));
  let r = rows (ok (Database.exec db "SELECT salary FROM emp WHERE id = 'e1'")) in
  Alcotest.check value "param write" (V.Int 555) (List.hd (List.hd r))

(* ---- errors and constraints ---- *)

let unknown_table () =
  let db = Database.create () in
  expect_error
    (function Database.Unknown_table _ -> true | _ -> false)
    "unknown table" (Database.exec db "SELECT * FROM nope")

let unknown_column () =
  let db = fresh () in
  expect_error
    (function Database.Unknown_column _ -> true | _ -> false)
    "unknown column" (Database.exec db "SELECT nope FROM emp")

let duplicate_key () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  expect_error
    (function Database.Duplicate_key _ -> true | _ -> false)
    "duplicate key"
    (Database.exec db "INSERT INTO emp VALUES ('e1', 1, 'x')")

let not_null () =
  let db = fresh () in
  expect_error
    (function Database.Not_null_violated _ -> true | _ -> false)
    "not null"
    (Database.exec db "INSERT INTO emp (id, dept) VALUES ('e9', 'x')")

let type_mismatch () =
  let db = fresh () in
  expect_error
    (function Database.Type_mismatch _ -> true | _ -> false)
    "type"
    (Database.exec db "INSERT INTO emp VALUES ('e1', 'not a number', 'x')")

let unbound_param () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  expect_error
    (function Database.Unbound_param _ -> true | _ -> false)
    "unbound param" (Database.exec db "SELECT * FROM emp WHERE id = $nope")

let parse_error () =
  let db = fresh () in
  expect_error
    (function Database.Parse_failed _ -> true | _ -> false)
    "parse" (Database.exec db "SELEKT * FROM emp")

let int_out_of_range () =
  let db = fresh () in
  expect_error
    (function Database.Parse_failed _ -> true | _ -> false)
    "parse" (Database.exec db "INSERT INTO emp VALUES ('a', 99999999999999999999, 'x')")

let check_constraint_insert () =
  let db = Database.create () in
  ignore
    (ok
       (Database.exec db
          "CREATE TABLE acct (id TEXT PRIMARY KEY, bal INT, lim INT, CHECK (bal <= lim))"));
  ignore (ok (Database.exec db "INSERT INTO acct VALUES ('a', 10, 50)"));
  expect_error
    (function Database.Check_failed _ -> true | _ -> false)
    "check on insert"
    (Database.exec db "INSERT INTO acct VALUES ('b', 60, 50)")

let check_constraint_update_atomic () =
  (* A CHECK failure must leave the table untouched (statement atomicity):
     this is the local constraint manager the Demarcation Protocol uses. *)
  let db = Database.create () in
  ignore
    (ok
       (Database.exec db
          "CREATE TABLE acct (id TEXT PRIMARY KEY, bal INT, lim INT, CHECK (bal <= lim))"));
  ignore (ok (Database.exec db "INSERT INTO acct VALUES ('a', 10, 50)"));
  ignore (ok (Database.exec db "INSERT INTO acct VALUES ('b', 20, 50)"));
  expect_error
    (function Database.Check_failed _ -> true | _ -> false)
    "check on update" (Database.exec db "UPDATE acct SET bal = bal + 45");
  let r = rows (ok (Database.exec db "SELECT bal FROM acct ORDER BY id")) in
  Alcotest.(check (list (list string))) "both rows unchanged"
    [ [ "10" ]; [ "20" ] ]
    (List.map (List.map V.to_string) r)

let pk_update_reindexes () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  ignore (ok (Database.exec db "UPDATE emp SET id = 'e9' WHERE id = 'e1'"));
  let r = rows (ok (Database.exec db "SELECT salary FROM emp WHERE id = 'e9'")) in
  Alcotest.(check int) "found under new key" 1 (List.length r);
  (* Old key is free again. *)
  insert db "e1" 1 "x";
  Alcotest.(check (option int)) "two rows" (Some 2) (Database.row_count db "emp")

(* ---- primary keys ---- *)

let keyed_db ?(ty = "INT") keys =
  let db = Database.create () in
  ignore
    (ok (Database.exec db (Printf.sprintf "CREATE TABLE t (k %s PRIMARY KEY, v INT)" ty)));
  List.iter
    (fun (k, v) ->
      ignore
        (ok (Database.exec db "INSERT INTO t VALUES ($k, $v)" ~params:[ ("k", k); ("v", V.Int v) ])))
    keys;
  db

let table_dump db =
  List.map (List.map V.to_string) (rows (ok (Database.exec db "SELECT * FROM t")))

let count_where db ?(params = []) where =
  List.length (rows (ok (Database.exec db ~params ("SELECT v FROM t WHERE " ^ where))))

let multi_row_update_duplicate_keys () =
  let db = keyed_db [ (V.Int 1, 0); (V.Int 2, 0); (V.Int 3, 1) ] in
  let events = ref 0 in
  Database.on_change db (fun _ -> incr events);
  let before = table_dump db in
  let dup = function Database.Duplicate_key _ -> true | _ -> false in
  expect_error dup "two updated rows end on key 5"
    (Database.exec db "UPDATE t SET k = 5 WHERE v = 0");
  expect_error dup "lands on a row the statement leaves alone"
    (Database.exec db "UPDATE t SET k = 3 WHERE v = 0 AND k = 1");
  expect_error dup "lands on an updated row that keeps its key"
    (Database.exec db "UPDATE t SET k = 2, v = 5 WHERE v = 0");
  Alcotest.(check (list (list string))) "table untouched" before (table_dump db);
  Alcotest.(check int) "no events" 0 !events;
  (match ok (Database.exec db "UPDATE t SET k = k + 1") with
   | Database.Affected n -> Alcotest.(check int) "shift all keys" 3 n
   | _ -> Alcotest.fail "expected Affected");
  ignore (ok (Database.exec db "UPDATE t SET k = 6 - k"));
  List.iter
    (fun k ->
      Alcotest.(check int) (Printf.sprintf "key %d reachable" k) 1
        (count_where db (Printf.sprintf "k = %d" k)))
    [ 2; 3; 4 ];
  Alcotest.(check int) "old key 1 gone" 0 (count_where db "k = 1");
  Alcotest.(check int) "three updates notified twice" 5 !events

let canonical_index_keys () =
  let db = keyed_db ~ty:"REAL" [ (V.Int 1, 0); (V.Float 0.0, 1); (V.Float Float.nan, 2) ] in
  let dup = function Database.Duplicate_key _ -> true | _ -> false in
  let insert k = Database.exec db "INSERT INTO t VALUES ($k, 9)" ~params:[ ("k", k) ] in
  expect_error dup "1.0 duplicates 1" (insert (V.Float 1.0));
  expect_error dup "-0.0 duplicates 0.0" (insert (V.Float (-0.0)));
  expect_error dup "0 duplicates 0.0" (insert (V.Int 0));
  expect_error dup "NaN duplicates NaN" (insert (V.Float (Float.neg Float.nan)));
  Alcotest.(check int) "k = 1 finds one row" 1 (count_where db "k = 1");
  Alcotest.(check int) "k = 1.0 finds one row" 1 (count_where db "k = 1.0");
  ignore (ok (insert (V.Float 1.5)));
  expect_error dup "update onto 1.0"
    (Database.exec db "UPDATE t SET k = 1.0 WHERE k = 1.5");
  ignore (ok (Database.exec db "DELETE FROM t WHERE k = 1.0"));
  ignore (ok (insert (V.Float 1.0)));
  let ints = keyed_db [ (V.Int 1, 10); (V.Int 2, 20) ] in
  Alcotest.(check (list (list string))) "INT key probed with 2.0" [ [ "20" ] ]
    (List.map (List.map V.to_string)
       (rows (ok (Database.exec ints "SELECT v FROM t WHERE k = 2.0"))))

let primary_key_not_null () =
  let db = keyed_db [ (V.Int 1, 0) ] in
  let pk_null = function Database.Not_null_violated "k" -> true | _ -> false in
  expect_error pk_null "missing key" (Database.exec db "INSERT INTO t (v) VALUES (1)");
  expect_error pk_null "explicit NULL key" (Database.exec db "INSERT INTO t VALUES (NULL, 1)");
  expect_error pk_null "update to NULL" (Database.exec db "UPDATE t SET k = NULL");
  Alcotest.(check int) "k = NULL selects nothing" 0 (count_where db "k = NULL");
  Alcotest.(check (list (list string))) "unchanged" [ [ "1"; "0" ] ] (table_dump db)

let errors_independent_of_rows () =
  List.iter
    (fun pk ->
      let db = Database.create () in
      ignore
        (ok (Database.exec db (Printf.sprintf "CREATE TABLE e (k INT%s, v INT)" pk)));
      let same_error_with_and_without_rows pred what src =
        expect_error pred (what ^ ", empty table") (Database.exec db src);
        ignore (ok (Database.exec db "INSERT INTO e VALUES (1, 0)"));
        expect_error pred (what ^ ", one row") (Database.exec db src);
        ignore (ok (Database.exec db "DELETE FROM e"))
      in
      let unbound = function Database.Unbound_param _ -> true | _ -> false in
      let mismatch = function Database.Type_mismatch _ -> true | _ -> false in
      same_error_with_and_without_rows unbound "unbound probe key"
        "UPDATE e SET v = 1 WHERE k = $n";
      same_error_with_and_without_rows unbound "unbound SET param"
        "UPDATE e SET v = $b WHERE k = 7";
      same_error_with_and_without_rows unbound "unbound param past the probe"
        "SELECT * FROM e WHERE k = 7 AND v = $x";
      same_error_with_and_without_rows mismatch "ill-typed probe key"
        "DELETE FROM e WHERE k = 'a' + 1")
    [ " PRIMARY KEY"; "" ]

let null_semantics () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  ignore (ok (Database.exec db "INSERT INTO emp (id, salary) VALUES ('e2', 200)"));
  let r = rows (ok (Database.exec db "SELECT id FROM emp WHERE dept = 'sales'")) in
  Alcotest.(check int) "null not equal" 1 (List.length r);
  let r = rows (ok (Database.exec db "SELECT id FROM emp WHERE dept IS NULL")) in
  Alcotest.(check int) "is null" 1 (List.length r);
  let r = rows (ok (Database.exec db "SELECT id FROM emp WHERE dept IS NOT NULL")) in
  Alcotest.(check int) "is not null" 1 (List.length r)

(* ---- aggregates ---- *)

let agg_db () =
  (* A schema with a nullable salary so NULL-handling is observable. *)
  let db = Database.create () in
  ignore
    (ok (Database.exec db "CREATE TABLE emp (id TEXT PRIMARY KEY, salary INT, dept TEXT)"));
  List.iter
    (fun stmt -> ignore (ok (Database.exec db stmt)))
    [
      "INSERT INTO emp VALUES ('e1', 100, 'sales')";
      "INSERT INTO emp VALUES ('e2', 200, 'eng')";
      "INSERT INTO emp VALUES ('e3', 300, 'eng')";
      "INSERT INTO emp (id, dept) VALUES ('e4', 'eng')";  (* NULL salary *)
    ];
  db

let count_star () =
  let db = agg_db () in
  let r = rows (ok (Database.exec db "SELECT COUNT(*) FROM emp")) in
  Alcotest.check value "count" (V.Int 4) (List.hd (List.hd r))

let count_column_skips_null () =
  let db = agg_db () in
  let r = rows (ok (Database.exec db "SELECT COUNT(salary) FROM emp")) in
  Alcotest.check value "null salary skipped" (V.Int 3) (List.hd (List.hd r));
  let r = rows (ok (Database.exec db "SELECT COUNT(*) FROM emp WHERE salary > 150")) in
  Alcotest.check value "count filtered" (V.Int 2) (List.hd (List.hd r))

let sum_min_max_avg () =
  let db = fresh () in
  insert db "e1" 100 "a";
  insert db "e2" 200 "a";
  insert db "e3" 300 "b";
  let one q = List.hd (List.hd (rows (ok (Database.exec db q)))) in
  Alcotest.check value "sum" (V.Int 600) (one "SELECT SUM(salary) FROM emp");
  Alcotest.check value "min" (V.Int 100) (one "SELECT MIN(salary) FROM emp");
  Alcotest.check value "max" (V.Int 300) (one "SELECT MAX(salary) FROM emp");
  Alcotest.check value "avg" (V.Float 200.0) (one "SELECT AVG(salary) FROM emp")

let aggregates_on_empty () =
  let db = fresh () in
  let one q = List.hd (List.hd (rows (ok (Database.exec db q)))) in
  Alcotest.check value "count empty" (V.Int 0) (one "SELECT COUNT(*) FROM emp");
  Alcotest.check value "sum empty is null" V.Null (one "SELECT SUM(salary) FROM emp");
  Alcotest.check value "min empty is null" V.Null (one "SELECT MIN(salary) FROM emp")

let group_by_counts () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  insert db "e2" 200 "eng";
  insert db "e3" 300 "eng";
  let r =
    rows (ok (Database.exec db "SELECT dept, COUNT(*), SUM(salary) FROM emp GROUP BY dept"))
  in
  (* groups sorted by key: eng, sales *)
  Alcotest.(check (list (list string))) "grouped"
    [ [ "\"eng\""; "2"; "500" ]; [ "\"sales\""; "1"; "100" ] ]
    (List.map (List.map V.to_string) r)

let group_by_rejects_ungrouped_column () =
  let db = agg_db () in
  expect_error
    (function Database.Parse_failed _ -> true | _ -> false)
    "ungrouped column"
    (Database.exec db "SELECT id, COUNT(*) FROM emp GROUP BY dept")

let aggregate_parse_errors () =
  let db = agg_db () in
  expect_error
    (function Database.Parse_failed _ -> true | _ -> false)
    "SUM(*)" (Database.exec db "SELECT SUM(*) FROM emp");
  expect_error
    (function Database.Unknown_column _ -> true | _ -> false)
    "unknown agg column" (Database.exec db "SELECT SUM(nope) FROM emp")

let aggregate_roundtrip () =
  let q = "SELECT dept, COUNT(*), MAX(salary) FROM emp WHERE (salary > 0) GROUP BY dept" in
  let s1 = Sql_ast.stmt_to_string (Sql_parser.parse q) in
  let s2 = Sql_ast.stmt_to_string (Sql_parser.parse s1) in
  Alcotest.(check string) "stable" s1 s2

(* ---- triggers ---- *)

let observer_events () =
  let db = fresh () in
  let log = ref [] in
  Database.on_change db (fun change ->
      let tag =
        match change with
        | Database.Inserted _ -> "ins"
        | Database.Updated _ -> "upd"
        | Database.Deleted _ -> "del"
      in
      log := tag :: !log);
  insert db "e1" 100 "sales";
  ignore (ok (Database.exec db "UPDATE emp SET salary = 150 WHERE id = 'e1'"));
  ignore (ok (Database.exec db "DELETE FROM emp WHERE id = 'e1'"));
  Alcotest.(check (list string)) "event order" [ "ins"; "upd"; "del" ] (List.rev !log)

let observer_sees_old_and_new () =
  let db = fresh () in
  let seen = ref None in
  Database.on_change db (fun change ->
      match change with
      | Database.Updated { old_row; new_row; _ } ->
        seen := Some (Row.get_or_null old_row "salary", Row.get_or_null new_row "salary")
      | _ -> ());
  insert db "e1" 100 "sales";
  ignore (ok (Database.exec db "UPDATE emp SET salary = 150 WHERE id = 'e1'"));
  match !seen with
  | Some (o, n) ->
    Alcotest.check value "old" (V.Int 100) o;
    Alcotest.check value "new" (V.Int 150) n
  | None -> Alcotest.fail "no update observed"

let no_event_on_noop_update () =
  let db = fresh () in
  let count = ref 0 in
  Database.on_change db (fun _ -> incr count);
  insert db "e1" 100 "sales";
  ignore (ok (Database.exec db "UPDATE emp SET salary = 100 WHERE id = 'e1'"));
  Alcotest.(check int) "only the insert" 1 !count

(* ---- property tests ---- *)

let qcheck_insert_select =
  QCheck.Test.make ~name:"every inserted row is selectable by pk" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_range 0 100000) small_int))
    (fun entries ->
      let db = fresh () in
      let seen = Hashtbl.create 16 in
      let expected = ref 0 in
      List.iter
        (fun (k, sal) ->
          let id = "k" ^ string_of_int k in
          if not (Hashtbl.mem seen id) then begin
            Hashtbl.add seen id sal;
            incr expected;
            match
              Database.exec db
                (Printf.sprintf "INSERT INTO emp VALUES ('%s', %d, 'd')" id sal)
            with
            | Ok _ -> ()
            | Error e -> failwith (Database.error_to_string e)
          end)
        entries;
      Database.row_count db "emp" = Some !expected
      && Hashtbl.fold
           (fun id sal acc ->
             acc
             &&
             match
               Database.exec db "SELECT salary FROM emp WHERE id = $n"
                 ~params:[ ("n", V.Str id) ]
             with
             | Ok (Database.Rows { rows = [ [ v ] ]; _ }) -> V.equal v (V.Int sal)
             | _ -> false)
           seen true)

let qcheck_sql_roundtrip =
  (* stmt -> string -> parse preserves the printed form. *)
  let stmts =
    [
      "SELECT id, salary FROM emp WHERE (salary > 100) ORDER BY id";
      "UPDATE emp SET salary = (salary + 1) WHERE (dept = 'x')";
      "DELETE FROM emp WHERE (salary <= 0)";
      "INSERT INTO emp VALUES ('a', 1, 'b')";
      "CREATE TABLE t (a INT PRIMARY KEY, b TEXT NOT NULL, CHECK ((a > 0)))";
    ]
  in
  QCheck.Test.make ~name:"stmt_to_string/parse roundtrip" ~count:List.(length stmts)
    (QCheck.make (QCheck.Gen.oneofl stmts))
    (fun src ->
      let s1 = Sql_ast.stmt_to_string (Sql_parser.parse src) in
      let s2 = Sql_ast.stmt_to_string (Sql_parser.parse s1) in
      s1 = s2)

(* ---- differential: primary-key access path vs the scan ----

   Each case runs one random statement sequence on two tables with the
   same columns: [keyed] declares [k] PRIMARY KEY, so point statements
   take the index; the oracle does not, so every statement scans.  A
   statement the keyed table accepts must give both sides the same
   result (or error) and the same observer change stream.  When the keyed
   table rejects one for its key alone (duplicate or NULL), the oracle
   must end up holding a duplicate or NULL key if it accepts it; it is
   then rebuilt from the keyed table's rows.  After every statement both
   tables hold the same rows in the same order, and every keyed row is
   reachable through [WHERE k = key]. *)

let show_value = function V.Float f -> Printf.sprintf "%h" f | v -> V.to_string v

let show_row row =
  String.concat "," (List.map (fun (c, v) -> c ^ "=" ^ show_value v) (Row.to_list row))

let show_result = function
  | Ok (Database.Rows { columns; rows }) ->
    String.concat "," columns ^ ":"
    ^ String.concat ";" (List.map (fun r -> String.concat "," (List.map show_value r)) rows)
  | Ok (Database.Affected n) -> Printf.sprintf "affected %d" n
  | Ok Database.Done -> "done"
  | Error e -> "error " ^ Database.error_to_string e

type side = { db : Database.t; changes : string list ref }

let diff_side ~keyed ty =
  let db = Database.create () in
  let changes = ref [] in
  Database.on_change db (fun c ->
      changes :=
        (match c with
         | Database.Inserted { row; _ } -> "ins " ^ show_row row
         | Database.Updated { old_row; new_row; _ } ->
           "upd " ^ show_row old_row ^ " -> " ^ show_row new_row
         | Database.Deleted { row; _ } -> "del " ^ show_row row)
        :: !changes);
  ignore
    (ok
       (Database.exec db
          (Printf.sprintf
             "CREATE TABLE t (k %s%s, v INT, w TEXT, CHECK (v IS NULL OR v < 50))" ty
             (if keyed then " PRIMARY KEY" else ""))));
  { db; changes }

let dump side =
  match Database.exec side.db "SELECT k, v, w FROM t" with
  | Ok (Database.Rows { rows; _ }) -> rows
  | r -> Alcotest.fail ("dump: " ^ show_result r)

module Prng = Cm_util.Prng
open Sql_ast

(* Keys from a small domain so statements collide, with cross-kind
   numerics (an INT key probed with 2.0; REAL keys 1, 1.0, -0.0), NULLs
   and wrong-kind values. *)
let gen_key rng ty =
  let i = Prng.int rng 6 in
  match Prng.int rng 12, ty with
  | 0, _ -> V.Null
  | 1, "TEXT" -> V.Int i
  | 1, _ -> V.Str "a"
  | _, "INT" -> if Prng.int rng 4 = 0 then V.Float (float_of_int i) else V.Int i
  | _, "REAL" -> (
    match Prng.int rng 4 with
    | 0 -> V.Int i
    | 1 -> V.Float (float_of_int i +. 0.5)
    | 2 when i = 0 -> V.Float (-0.0)
    | _ -> V.Float (float_of_int i))
  | _ -> V.Str (String.make 1 (Char.chr (Char.code 'a' + i)))

(* A column-free key expression: a literal, a bound $param, arithmetic
   over one (ill-typed for TEXT keys), or rarely an unbound $param. *)
let gen_key_expr rng ty params =
  let v = gen_key rng ty in
  match Prng.int rng 20 with
  | 0 -> Param "unbound"
  | 1 | 2 -> Binary (Add, Lit v, Lit (V.Int 0))
  | n when n < 10 ->
    let name = Printf.sprintf "p%d" (List.length !params) in
    params := (name, v) :: !params;
    Param name
  | _ -> Lit v

let gen_rest rng ty params =
  match Prng.int rng 8 with
  | 0 -> Binary (Gt, Col "v", Lit (V.Int (Prng.int rng 50)))
  | 1 -> Binary (Eq, Col "w", Lit (V.Str (if Prng.bool rng then "x" else "y")))
  | 2 -> Is_null (Col "v", Prng.bool rng)
  | 3 -> Binary (Ne, Col "k", gen_key_expr rng ty params)
  | 4 -> Binary (Le, Col "k", Lit (gen_key rng ty))
  | 5 -> Binary (Gt, Binary (Add, Col "v", Col "k"), Lit (V.Int 3))
  | 6 -> Lit (V.Int 5)  (* not a boolean: Type_mismatch where evaluated *)
  | _ -> Binary (Eq, Col "v", Col "k")

let gen_where rng ty params =
  let key_eq () =
    let e = gen_key_expr rng ty params in
    if Prng.bool rng then Binary (Eq, Col "k", e) else Binary (Eq, e, Col "k")
  in
  let rest () = gen_rest rng ty params in
  match Prng.int rng 9 with
  | 0 -> None
  | 1 | 2 -> Some (key_eq ())
  | 3 -> Some (Binary (And, key_eq (), rest ()))
  | 4 -> Some (Binary (And, rest (), key_eq ()))
  | 5 -> Some (Binary (Or, key_eq (), rest ()))
  | 6 -> Some (rest ())
  | 7 -> Some (Binary (And, Binary (And, key_eq (), rest ()), rest ()))
  | _ -> Some (Binary (And, key_eq (), Binary (And, rest (), rest ())))

let gen_v rng =
  match Prng.int rng 8 with 0 -> Lit V.Null | _ -> Lit (V.Int (Prng.int rng 55))

let gen_w rng =
  match Prng.int rng 4 with
  | 0 -> Lit V.Null
  | n -> Lit (V.Str (if n = 1 then "x" else "y"))

let gen_stmt rng ty =
  let params = ref [] in
  let stmt =
    match Prng.int rng 12 with
    | 0 | 1 | 2 | 3 ->
      Insert
        { table = "t"; cols = None;
          values = [ gen_key_expr rng ty params; gen_v rng; gen_w rng ] }
    | 4 -> Insert { table = "t"; cols = Some [ "v"; "w" ]; values = [ gen_v rng; gen_w rng ] }
    | 5 | 6 ->
      let set_k =
        match Prng.int rng 3, ty with
        | 0, "TEXT" -> Col "w"
        | 0, _ -> Binary (Add, Col "k", Lit (V.Int 1))
        | _ -> gen_key_expr rng ty params
      in
      let sets =
        match Prng.int rng 4 with
        | 0 -> [ ("v", Binary (Add, Col "v", Lit (V.Int 1))) ]
        | 1 -> [ ("w", gen_w rng); ("v", gen_v rng) ]
        | 2 -> [ ("k", set_k) ]
        | _ -> [ ("k", set_k); ("v", gen_v rng) ]
      in
      Update { table = "t"; sets; where = gen_where rng ty params }
    | 7 -> Delete { table = "t"; where = gen_where rng ty params }
    | 8 | 9 ->
      let order_by = if Prng.bool rng then Some ("v", Desc) else None in
      Select
        { table = "t"; projection = None; where = gen_where rng ty params;
          group_by = None; order_by }
    | 10 ->
      Select
        { table = "t";
          projection = Some [ S_agg (Count, None); S_agg (Sum, Some "v"); S_agg (Min, Some "k") ];
          where = gen_where rng ty params; group_by = None; order_by = None }
    | _ ->
      Select
        { table = "t"; projection = Some [ S_col "w"; S_agg (Count, Some "k") ];
          where = gen_where rng ty params; group_by = Some "w"; order_by = None }
  in
  (stmt, !params)

type coverage = { mutable probe_hits : int; mutable key_rejections : int }

(* The shape the keyed table answers from its index. *)
let rec leads_with_key_eq = function
  | Binary (And, a, _) -> leads_with_key_eq a
  | Binary (Eq, Col "k", e) | Binary (Eq, e, Col "k") -> (
    match e with Col _ -> false | _ -> true)
  | _ -> false

let has_duplicate_or_null_key rows =
  let keys = List.map List.hd rows in
  List.exists (fun k -> k = V.Null) keys
  || List.exists
       (fun k -> List.length (List.filter (fun k' -> V.equal k k') keys) > 1)
       keys

let rebuild_oracle ty keyed =
  let oracle = diff_side ~keyed:false ty in
  List.iter
    (function
      | [ k; v; w ] ->
        ignore
          (ok
             (Database.exec oracle.db "INSERT INTO t VALUES ($k, $v, $w)"
                ~params:[ ("k", k); ("v", v); ("w", w) ]))
      | _ -> Alcotest.fail "row shape")
    (dump keyed);
  oracle.changes := [];
  oracle

let run_case coverage case =
  let rng = Prng.create ~seed:case in
  let ty = [| "INT"; "TEXT"; "REAL" |].(case mod 3) in
  let keyed = diff_side ~keyed:true ty in
  let oracle = ref (diff_side ~keyed:false ty) in
  let fail step what = Alcotest.failf "case %d (%s), step %d: %s" case ty step what in
  for step = 1 to 10 + Prng.int rng 30 do
    let stmt, params = gen_stmt rng ty in
    let src = stmt_to_string stmt in
    let before = dump keyed in
    keyed.changes := [];
    !oracle.changes := [];
    let rk = Database.exec_stmt keyed.db ~params stmt in
    let ro = Database.exec_stmt !oracle.db ~params stmt in
    (match rk with
     | Error (Database.Duplicate_key _ | Database.Not_null_violated "k") ->
       coverage.key_rejections <- coverage.key_rejections + 1;
       if dump keyed <> before || !(keyed.changes) <> [] then
         fail step (src ^ ": a rejected statement changed the keyed table");
       if Result.is_ok ro then begin
         if not (has_duplicate_or_null_key (dump !oracle)) then
           fail step (src ^ ": keyed rejected a statement that keeps keys unique");
         oracle := rebuild_oracle ty keyed
       end
     | _ ->
       if show_result rk <> show_result ro then
         fail step
           (Printf.sprintf "%s: keyed %s, oracle %s" src (show_result rk) (show_result ro));
       if !(keyed.changes) <> !(!oracle.changes) then
         fail step (src ^ ": change streams differ");
       let probed_row =
         match stmt, rk with
         | (Update { where = Some w; _ } | Delete { where = Some w; _ }), Ok (Database.Affected n)
           -> n > 0 && leads_with_key_eq w
         | Select { where = Some w; projection = None; _ }, Ok (Database.Rows { rows; _ }) ->
           rows <> [] && leads_with_key_eq w
         | _ -> false
       in
       if probed_row then coverage.probe_hits <- coverage.probe_hits + 1);
    let after = dump keyed in
    let rows = List.map (List.map show_value) after in
    if rows <> List.map (List.map show_value) (dump !oracle) then
      fail step (src ^ ": tables differ");
    List.iter2
      (fun shown row ->
        match
          Database.exec keyed.db "SELECT k, v, w FROM t WHERE k = $key"
            ~params:[ ("key", List.hd row) ]
        with
        | Ok (Database.Rows { rows = [ found ]; _ }) when List.map show_value found = shown -> ()
        | r ->
          fail step
            (Printf.sprintf "%s: row %s not reachable by key (%s)" src
               (String.concat "," shown) (show_result r)))
      rows after
  done

let differential_pk_vs_scan () =
  let coverage = { probe_hits = 0; key_rejections = 0 } in
  for case = 0 to 1199 do
    run_case coverage case
  done;
  Alcotest.(check bool) "probes exercised" true (coverage.probe_hits > 500);
  Alcotest.(check bool) "key rejections exercised" true (coverage.key_rejections > 1000)

(* ---- parsed statements ---- *)

(* The reference path: parse on every call. *)
let exec_parsing db ?params src =
  match Sql_parser.parse src with
  | exception Sql_parser.Parse_error m -> Error (Database.Parse_failed m)
  | stmt -> Database.exec_stmt db ?params stmt

(* A mixed stream, every text run twice over: DDL, parameterised DML,
   queries, and each kind of error, including a parse error. *)
let mixed_stream =
  let p k v = (k, v) in
  [ ("CREATE TABLE acct (id TEXT PRIMARY KEY, bal INT, lim INT, CHECK (bal <= lim))", []);
    ("INSERT INTO acct VALUES ($id, $bal, 100)", [ p "id" (V.Str "a"); p "bal" (V.Int 5) ]);
    ("INSERT INTO acct VALUES ($id, $bal, 100)", [ p "id" (V.Str "b"); p "bal" (V.Int 7) ]);
    ("INSERT INTO acct VALUES ($id, $bal, 100)", [ p "id" (V.Str "a"); p "bal" (V.Int 1) ]);
    ("UPDATE acct SET bal = bal + $d WHERE id = $id", [ p "d" (V.Int 90); p "id" (V.Str "a") ]);
    ("UPDATE acct SET bal = bal + $d WHERE id = $id", [ p "d" (V.Int 90); p "id" (V.Str "a") ]);
    ("UPDATE acct SET bal = bal + $d WHERE id = $id", [ p "id" (V.Str "a") ]);
    ("SELECT id, bal FROM acct ORDER BY bal DESC", []);
    ("SELECT COUNT(*) FROM acct", []);
    ("SELECT nope FROM acct", []);
    ("SELECT * FROM missing", []);
    ("SELEKT * FROM acct", []);
    ("DELETE FROM acct WHERE id = $id", [ p "id" (V.Str "b") ]);
    ("SELECT id, bal FROM acct ORDER BY bal DESC", []);
    ("DROP TABLE acct", []) ]

let cold_and_warm_agree () =
  let db = Database.create () and reference = Database.create () in
  List.iteri
    (fun i (src, params) ->
      let got = Database.exec db ~params src in
      let want = exec_parsing reference ~params src in
      if got <> want then
        Alcotest.failf "statement %d (%s): %s, want %s" i src
          (match got with Ok _ -> "ok" | Error e -> Database.error_to_string e)
          (match want with Ok _ -> "ok" | Error e -> Database.error_to_string e))
    (mixed_stream @ mixed_stream)

let parse_error_every_call () =
  let db = fresh () in
  let errors = List.init 3 (fun _ -> Database.exec db "SELEKT * FROM emp") in
  List.iter
    (expect_error (function Database.Parse_failed _ -> true | _ -> false) "parse")
    errors;
  Alcotest.(check bool) "same error each call" true
    (List.for_all (( = ) (List.hd errors)) errors)

let first_text_after_many () =
  let db = fresh () in
  insert db "e1" 100 "sales";
  let first = "SELECT salary FROM emp WHERE id = 'e1'" in
  Alcotest.check value "first run" (V.Int 100) (List.hd (List.hd (rows (ok (Database.exec db first)))));
  for i = 1 to 10_000 do
    ignore (ok (Database.exec db (Printf.sprintf "SELECT salary FROM emp WHERE salary = %d" i)))
  done;
  ignore (ok (Database.exec db "UPDATE emp SET salary = 7 WHERE id = 'e1'"));
  Alcotest.check value "after 10 000 other texts" (V.Int 7)
    (List.hd (List.hd (rows (ok (Database.exec db first)))))

let drop_then_create_same_text () =
  let db = Database.create () in
  let create = "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)" in
  let insert = "INSERT INTO t VALUES (1, 'x')" in
  ignore (ok (Database.exec db create));
  ignore (ok (Database.exec db insert));
  ignore (ok (Database.exec db "DROP TABLE t"));
  ignore (ok (Database.exec db create));
  Alcotest.(check (option int)) "recreated empty" (Some 0) (Database.row_count db "t");
  ignore (ok (Database.exec db insert));
  Alcotest.(check (option int)) "insert again" (Some 1) (Database.row_count db "t");
  expect_error
    (function Database.Table_exists _ -> true | _ -> false)
    "table exists" (Database.exec db create)

let () =
  Alcotest.run "cm_relational"
    [
      ( "dml",
        [
          Alcotest.test_case "create and insert" `Quick create_and_insert;
          Alcotest.test_case "select star" `Quick select_star;
          Alcotest.test_case "select where" `Quick select_where;
          Alcotest.test_case "order by" `Quick select_order_by;
          Alcotest.test_case "insertion order" `Quick select_insertion_order;
          Alcotest.test_case "update" `Quick update_rows;
          Alcotest.test_case "delete" `Quick delete_rows;
          Alcotest.test_case "drop" `Quick drop_table;
          Alcotest.test_case "params" `Quick params_substitution;
        ] );
      ( "errors",
        [
          Alcotest.test_case "unknown table" `Quick unknown_table;
          Alcotest.test_case "unknown column" `Quick unknown_column;
          Alcotest.test_case "duplicate key" `Quick duplicate_key;
          Alcotest.test_case "not null" `Quick not_null;
          Alcotest.test_case "type mismatch" `Quick type_mismatch;
          Alcotest.test_case "unbound param" `Quick unbound_param;
          Alcotest.test_case "parse error" `Quick parse_error;
          Alcotest.test_case "integer out of range" `Quick int_out_of_range;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "check on insert" `Quick check_constraint_insert;
          Alcotest.test_case "check update atomic" `Quick check_constraint_update_atomic;
          Alcotest.test_case "pk update reindexes" `Quick pk_update_reindexes;
          Alcotest.test_case "null semantics" `Quick null_semantics;
        ] );
      ( "primary key",
        [
          Alcotest.test_case "multi-row update keeps keys unique" `Quick
            multi_row_update_duplicate_keys;
          Alcotest.test_case "canonical index keys" `Quick canonical_index_keys;
          Alcotest.test_case "primary key implies not null" `Quick primary_key_not_null;
          Alcotest.test_case "errors independent of rows" `Quick errors_independent_of_rows;
          Alcotest.test_case "1200 seeded cases, index vs scan" `Quick
            differential_pk_vs_scan;
        ] );
      ( "aggregates",
        [
          Alcotest.test_case "count star" `Quick count_star;
          Alcotest.test_case "count column" `Quick count_column_skips_null;
          Alcotest.test_case "sum/min/max/avg" `Quick sum_min_max_avg;
          Alcotest.test_case "empty table" `Quick aggregates_on_empty;
          Alcotest.test_case "group by" `Quick group_by_counts;
          Alcotest.test_case "ungrouped column rejected" `Quick
            group_by_rejects_ungrouped_column;
          Alcotest.test_case "parse errors" `Quick aggregate_parse_errors;
          Alcotest.test_case "roundtrip" `Quick aggregate_roundtrip;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "events" `Quick observer_events;
          Alcotest.test_case "old and new rows" `Quick observer_sees_old_and_new;
          Alcotest.test_case "no event on no-op" `Quick no_event_on_noop_update;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_insert_select;
          QCheck_alcotest.to_alcotest qcheck_sql_roundtrip;
        ] );
      ( "parsed",
        [
          Alcotest.test_case "cold and warm agree" `Quick cold_and_warm_agree;
          Alcotest.test_case "parse error on every call" `Quick parse_error_every_call;
          Alcotest.test_case "first text after 10 000 others" `Quick first_text_after_many;
          Alcotest.test_case "drop then create, same text" `Quick
            drop_then_create_same_text;
        ] );
    ]
