module Value = Cm_rule.Value
open Sql_ast

type table = {
  cols : col_def list;
  checks : expr list;
  pk : string option;
  rows : (int, Row.t) Hashtbl.t;  (* rowid -> row *)
  pk_index : (Value.t, int) Hashtbl.t;  (* index_key of the pk value -> rowid *)
  mutable next_rowid : int;
}

type change =
  | Inserted of { table : string; row : Row.t }
  | Updated of { table : string; old_row : Row.t; new_row : Row.t }
  | Deleted of { table : string; row : Row.t }

type t = {
  tables : (string, table) Hashtbl.t;
  mutable observers : (change -> unit) list;  (* in registration order *)
  parsed : (string, stmt) Hashtbl.t;  (* SQL text -> its statement *)
}

type error =
  | Parse_failed of string
  | Unknown_table of string
  | Unknown_column of { table : string; column : string }
  | Type_mismatch of string
  | Check_failed of string
  | Not_null_violated of string
  | Duplicate_key of string
  | Unbound_param of string
  | Table_exists of string

type result =
  | Rows of { columns : string list; rows : Value.t list list }
  | Affected of int
  | Done

exception Fail of error

let error_to_string = function
  | Parse_failed m -> "parse error: " ^ m
  | Unknown_table t -> "unknown table " ^ t
  | Unknown_column { table; column } ->
    Printf.sprintf "unknown column %s in table %s" column table
  | Type_mismatch m -> "type mismatch: " ^ m
  | Check_failed c -> "CHECK constraint failed: " ^ c
  | Not_null_violated c -> "NOT NULL constraint failed on column " ^ c
  | Duplicate_key k -> "duplicate primary key " ^ k
  | Unbound_param p -> "unbound parameter $" ^ p
  | Table_exists t -> "table already exists: " ^ t

(* [exec] keeps at most this many parsed texts and empties its table
   when full: an application that builds a fresh text per call parses
   each once, as it would without the table. *)
let max_parsed = 64

let create () =
  { tables = Hashtbl.create 8; observers = []; parsed = Hashtbl.create max_parsed }

let on_change db f = db.observers <- db.observers @ [ f ]

let notify db change = List.iter (fun f -> f change) db.observers

let find_table db name =
  match Hashtbl.find_opt db.tables name with
  | Some tbl -> tbl
  | None -> raise (Fail (Unknown_table name))

let col_exists tbl name = List.exists (fun c -> c.col_name = name) tbl.cols

let require_col table_name tbl name =
  if not (col_exists tbl name) then
    raise (Fail (Unknown_column { table = table_name; column = name }))

(* --- expression evaluation (SQL null semantics, simplified) --- *)

let is_null = function Value.Null -> true | _ -> false

let rec eval params row e =
  match e with
  | Lit v -> v
  | Col name -> Row.get_or_null row name
  | Param p -> (
    match List.assoc_opt p params with
    | Some v -> v
    | None -> raise (Fail (Unbound_param p)))
  | Unary (Neg, e) ->
    let v = eval params row e in
    if is_null v then Value.Null
    else (try Value.neg v with Invalid_argument m -> raise (Fail (Type_mismatch m)))
  | Unary (Not, e) ->
    let v = eval params row e in
    if is_null v then Value.Bool true  (* two-valued: unknown counts as false *)
    else (
      try Value.Bool (not (Value.truthy v))
      with Invalid_argument m -> raise (Fail (Type_mismatch m)))
  | Is_null (e, negated) ->
    let v = eval params row e in
    Value.Bool (if negated then not (is_null v) else is_null v)
  | Binary (op, a, b) -> eval_binary params row op a b

and eval_binary params row op a b =
  match op with
  | And ->
    let truthy_of e =
      let v = eval params row e in
      (not (is_null v))
      &&
      (try Value.truthy v with Invalid_argument m -> raise (Fail (Type_mismatch m)))
    in
    Value.Bool (truthy_of a && truthy_of b)
  | Or ->
    let truthy_of e =
      let v = eval params row e in
      (not (is_null v))
      &&
      (try Value.truthy v with Invalid_argument m -> raise (Fail (Type_mismatch m)))
    in
    Value.Bool (truthy_of a || truthy_of b)
  | _ ->
    let va = eval params row a in
    let vb = eval params row b in
    if is_null va || is_null vb then
      (* Comparisons with NULL are false; arithmetic propagates NULL. *)
      (match op with
       | Eq | Ne | Lt | Le | Gt | Ge -> Value.Bool false
       | _ -> Value.Null)
    else (
      try
        match op with
        | Add -> Value.add va vb
        | Sub -> Value.sub va vb
        | Mul -> Value.mul va vb
        | Div -> Value.div va vb
        | Eq -> Value.Bool (Value.equal va vb)
        | Ne -> Value.Bool (not (Value.equal va vb))
        | Lt -> Value.Bool (Value.compare va vb < 0)
        | Le -> Value.Bool (Value.compare va vb <= 0)
        | Gt -> Value.Bool (Value.compare va vb > 0)
        | Ge -> Value.Bool (Value.compare va vb >= 0)
        | And | Or -> assert false
      with Invalid_argument m -> raise (Fail (Type_mismatch m)))

let truthy params row e =
  let v = eval params row e in
  (not (is_null v))
  && (try Value.truthy v with Invalid_argument m -> raise (Fail (Type_mismatch m)))

let rec require_params params = function
  | Param p -> if not (List.mem_assoc p params) then raise (Fail (Unbound_param p))
  | Lit _ | Col _ -> ()
  | Unary (_, e) | Is_null (e, _) -> require_params params e
  | Binary (_, a, b) ->
    require_params params a;
    require_params params b

(* One hash key per [Value.equal] class, so [2] and [2.0], or [0.0] and
   [-0.0], share an index slot: integral floats in int range become ints,
   and every NaN is one NaN. *)
let index_key = function
  | Value.Float f when Float.is_integer f && f >= -0x1p62 && f < 0x1p62 ->
    Value.Int (Float.to_int f)
  | Value.Float f when Float.is_nan f -> Value.Float Float.nan
  | v -> v

(* --- integrity checks --- *)

let value_fits col v =
  match col.col_type, v with
  | _, Value.Null -> true  (* NOT NULL handled separately *)
  | T_int, Value.Int _ -> true
  | T_real, (Value.Int _ | Value.Float _) -> true
  | T_text, Value.Str _ -> true
  | T_bool, Value.Bool _ -> true
  | _ -> false

let validate_row table_name tbl row =
  List.iter
    (fun col ->
      let v = Row.get_or_null row col.col_name in
      if not (value_fits col v) then
        raise
          (Fail
             (Type_mismatch
                (Printf.sprintf "%s.%s (%s) cannot hold %s" table_name col.col_name
                   (col_type_to_string col.col_type)
                   (Value.to_string v))));
      if col.not_null && is_null v then raise (Fail (Not_null_violated col.col_name)))
    tbl.cols;
  List.iter
    (fun check ->
      if not (truthy [] row check) then raise (Fail (Check_failed (expr_to_string check))))
    tbl.checks

(* --- statement execution --- *)

let rows_in_order tbl =
  Hashtbl.fold (fun rowid row acc -> (rowid, row) :: acc) tbl.rows []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let rec column_free = function
  | Col _ -> false
  | Lit _ | Param _ -> true
  | Unary (_, e) | Is_null (e, _) -> column_free e
  | Binary (_, a, b) -> column_free a && column_free b

(* [col = e] or [e = col], [e] column-free, as the leftmost top-level AND
   conjunct: the conjunct the scan evaluates first on every row. *)
let rec probe = function
  | Binary (And, a, _) -> probe a
  | Binary (Eq, Col col, e) when column_free e -> Some (col, e)
  | Binary (Eq, e, Col col) when column_free e -> Some (col, e)
  | _ -> None

(* The rows a WHERE selects, in rowid order.  A probe on the primary key
   answers from [pk_index]: an equality never raises, and its other side
   is row-independent, so the one indexed row passing the whole WHERE is
   exactly what the scan keeps, errors included.  Params and the probe's
   key are checked before any row is read, so errors do not depend on
   whether the table has rows. *)
let matching params tbl where =
  match where with
  | None -> rows_in_order tbl
  | Some where -> (
    require_params params where;
    let passes (_, row) = truthy params row where in
    let scan () = List.filter passes (rows_in_order tbl) in
    match probe where with
    | None -> scan ()
    | Some (col, e) -> (
      let key = eval params Row.empty e in
      match tbl.pk with
      | Some pk when String.equal pk col -> (
        match Hashtbl.find_opt tbl.pk_index (index_key key) with
        | Some rowid ->
          let entry = (rowid, Hashtbl.find tbl.rows rowid) in
          if passes entry then [ entry ] else []
        | None -> [])
      | _ -> scan ()))

let exec_create db table cols checks =
  if Hashtbl.mem db.tables table then raise (Fail (Table_exists table));
  if cols = [] then raise (Fail (Parse_failed "a table needs at least one column"));
  (* PRIMARY KEY implies NOT NULL. *)
  let cols = List.map (fun c -> { c with not_null = c.not_null || c.primary_key }) cols in
  let pks = List.filter (fun c -> c.primary_key) cols in
  let pk =
    match pks with
    | [] -> None
    | [ c ] -> Some c.col_name
    | _ -> raise (Fail (Parse_failed "multiple PRIMARY KEY columns"))
  in
  (* CHECK expressions may only reference declared columns. *)
  let rec check_cols e =
    match e with
    | Col name ->
      if not (List.exists (fun c -> c.col_name = name) cols) then
        raise (Fail (Unknown_column { table; column = name }))
    | Unary (_, e) | Is_null (e, _) -> check_cols e
    | Binary (_, a, b) ->
      check_cols a;
      check_cols b
    | Lit _ | Param _ -> ()
  in
  List.iter check_cols checks;
  Hashtbl.replace db.tables table
    { cols; checks; pk; rows = Hashtbl.create 64; pk_index = Hashtbl.create 64;
      next_rowid = 0 };
  Done

let exec_insert db params table cols values =
  let tbl = find_table db table in
  let col_names =
    match cols with
    | Some cs ->
      List.iter (require_col table tbl) cs;
      cs
    | None -> List.map (fun c -> c.col_name) tbl.cols
  in
  if List.length col_names <> List.length values then
    raise (Fail (Parse_failed "column/value count mismatch"));
  let row =
    List.fold_left2
      (fun row name e -> Row.set row name (eval params Row.empty e))
      Row.empty col_names values
  in
  (* Missing columns default to NULL. *)
  let row =
    List.fold_left
      (fun row col ->
        match Row.get row col.col_name with
        | Some _ -> row
        | None -> Row.set row col.col_name Value.Null)
      row tbl.cols
  in
  validate_row table tbl row;
  (match tbl.pk with
   | None -> ()
   | Some pk_col ->
     let key = Row.get_or_null row pk_col in
     if Hashtbl.mem tbl.pk_index (index_key key) then
       raise (Fail (Duplicate_key (Value.to_string key))));
  let rowid = tbl.next_rowid in
  tbl.next_rowid <- rowid + 1;
  Hashtbl.replace tbl.rows rowid row;
  (match tbl.pk with
   | None -> ()
   | Some pk_col ->
     Hashtbl.replace tbl.pk_index (index_key (Row.get_or_null row pk_col)) rowid);
  notify db (Inserted { table; row });
  Affected 1

(* Keys stay unique after an UPDATE: no two [rekeyed] rows (those whose key
   changes) land on one key, and none lands on the key of a row that keeps
   its key. *)
let require_unique_keys tbl pk_col rekeyed =
  let moving = Hashtbl.create 16 in
  List.iter (fun (rowid, _, _) -> Hashtbl.replace moving rowid ()) rekeyed;
  let landed = Hashtbl.create 16 in
  List.iter
    (fun (_, _, new_row) ->
      let key = Row.get_or_null new_row pk_col in
      let slot = index_key key in
      let taken =
        Hashtbl.mem landed slot
        ||
        match Hashtbl.find_opt tbl.pk_index slot with
        | Some owner -> not (Hashtbl.mem moving owner)
        | None -> false
      in
      if taken then raise (Fail (Duplicate_key (Value.to_string key)));
      Hashtbl.replace landed slot ())
    rekeyed

let exec_update db params table sets where =
  let tbl = find_table db table in
  List.iter (fun (c, _) -> require_col table tbl c) sets;
  let targets = matching params tbl where in
  List.iter (fun (_, e) -> require_params params e) sets;
  (* Two-phase: validate all updated rows (CHECKs, then key uniqueness)
     first so a rejection leaves the table untouched (statement
     atomicity). *)
  let updated =
    List.map
      (fun (rowid, old_row) ->
        let new_row =
          List.fold_left
            (fun row (c, e) -> Row.set row c (eval params old_row e))
            old_row sets
        in
        validate_row table tbl new_row;
        (rowid, old_row, new_row))
      targets
  in
  (match tbl.pk with
   | None -> ()
   | Some pk_col ->
     let key row = Row.get_or_null row pk_col in
     let rekeyed =
       List.filter (fun (_, old_row, new_row) ->
           not (Value.equal (key old_row) (key new_row)))
         updated
     in
     if rekeyed <> [] then begin
       require_unique_keys tbl pk_col rekeyed;
       List.iter
         (fun (_, old_row, _) -> Hashtbl.remove tbl.pk_index (index_key (key old_row)))
         rekeyed;
       List.iter
         (fun (rowid, _, new_row) ->
           Hashtbl.replace tbl.pk_index (index_key (key new_row)) rowid)
         rekeyed
     end);
  List.iter (fun (rowid, _, new_row) -> Hashtbl.replace tbl.rows rowid new_row) updated;
  List.iter
    (fun (_, old_row, new_row) ->
      if not (Row.equal old_row new_row) then
        notify db (Updated { table; old_row; new_row }))
    updated;
  Affected (List.length updated)

let exec_delete db params table where =
  let tbl = find_table db table in
  let targets = matching params tbl where in
  List.iter
    (fun (rowid, row) ->
      Hashtbl.remove tbl.rows rowid;
      (match tbl.pk with
       | None -> ()
       | Some pk_col -> Hashtbl.remove tbl.pk_index (index_key (Row.get_or_null row pk_col)));
      notify db (Deleted { table; row }))
    targets;
  Affected (List.length targets)

let aggregate_value agg rows col =
  match agg, col with
  | Count, None -> Value.Int (List.length rows)
  | Count, Some col ->
    Value.Int
      (List.length
         (List.filter (fun (_, row) -> not (is_null (Row.get_or_null row col))) rows))
  | (Sum | Min | Max | Avg), None ->
    raise (Fail (Parse_failed "aggregate needs a column"))
  | (Sum | Min | Max | Avg), Some col ->
    let values =
      List.filter_map
        (fun (_, row) ->
          let v = Row.get_or_null row col in
          if is_null v then None else Some v)
        rows
    in
    (match values with
     | [] -> Value.Null
     | first :: rest -> (
       try
         match agg with
         | Sum -> List.fold_left Value.add first rest
         | Min ->
           List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) first rest
         | Max ->
           List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) first rest
         | Avg ->
           Value.div (List.fold_left Value.add first rest)
             (Value.Int (List.length values))
         | Count -> assert false
       with Invalid_argument m -> raise (Fail (Type_mismatch m))))

let exec_select db params table projection where group_by order_by =
  let tbl = find_table db table in
  let rows = matching params tbl where in
  let items =
    match projection with
    | None -> List.map (fun c -> Sql_ast.S_col c.col_name) tbl.cols
    | Some items -> items
  in
  List.iter
    (function
      | Sql_ast.S_col c | Sql_ast.S_agg (_, Some c) -> require_col table tbl c
      | Sql_ast.S_agg (_, None) -> ())
    items;
  let has_agg =
    List.exists (function Sql_ast.S_agg _ -> true | Sql_ast.S_col _ -> false) items
  in
  let columns = List.map Sql_ast.sel_item_to_string items in
  if has_agg || group_by <> None then begin
    (* Aggregate query: plain columns must be the GROUP BY column. *)
    (match group_by with Some g -> require_col table tbl g | None -> ());
    List.iter
      (function
        | Sql_ast.S_col c when group_by <> Some c ->
          raise
            (Fail
               (Parse_failed
                  (Printf.sprintf "column %s is neither aggregated nor grouped" c)))
        | _ -> ())
      items;
    let groups =
      match group_by with
      | None -> [ (Value.Null, rows) ]
      | Some g ->
        let table_ = Hashtbl.create 8 in
        let order = ref [] in
        List.iter
          (fun ((_, row) as entry) ->
            let key = Row.get_or_null row g in
            let key_str = Value.to_string key in
            match Hashtbl.find_opt table_ key_str with
            | Some bucket -> bucket := entry :: !bucket
            | None ->
              Hashtbl.replace table_ key_str (ref [ entry ]);
              order := (key_str, key) :: !order)
          rows;
        List.rev_map
          (fun (key_str, key) ->
            (key, List.rev !(Hashtbl.find table_ key_str)))
          !order
        |> List.sort (fun (a, _) (b, _) -> Value.compare a b)
    in
    let project_group (key, group_rows) =
      List.map
        (function
          | Sql_ast.S_col _ -> key
          | Sql_ast.S_agg (agg, col) -> aggregate_value agg group_rows col)
        items
    in
    Rows { columns; rows = List.map project_group groups }
  end
  else begin
    let rows =
      match order_by with
      | None -> rows
      | Some (col, dir) ->
        require_col table tbl col;
        let cmp (_, a) (_, b) =
          let c = Value.compare (Row.get_or_null a col) (Row.get_or_null b col) in
          match dir with Asc -> c | Desc -> -c
        in
        List.stable_sort cmp rows
    in
    let cols =
      List.map
        (function Sql_ast.S_col c -> c | Sql_ast.S_agg _ -> assert false)
        items
    in
    let project (_, row) = List.map (Row.get_or_null row) cols in
    Rows { columns; rows = List.map project rows }
  end

let exec_stmt db ?(params = []) stmt =
  try
    Ok
      (match stmt with
       | Create_table { table; cols; checks } -> exec_create db table cols checks
       | Insert { table; cols; values } -> exec_insert db params table cols values
       | Update { table; sets; where } -> exec_update db params table sets where
       | Delete { table; where } -> exec_delete db params table where
       | Select { table; projection; where; group_by; order_by } ->
         exec_select db params table projection where group_by order_by
       | Drop_table { table } ->
         ignore (find_table db table);
         Hashtbl.remove db.tables table;
         Done)
  with Fail e -> Error e

(* Statements are immutable and their execution reads only [db], so one
   parse serves every later call with the same text.  A text that fails
   to parse is never kept: it fails the same way on every call. *)
let exec db ?params src =
  match Hashtbl.find db.parsed src with
  | stmt -> exec_stmt db ?params stmt
  | exception Not_found -> (
    match Sql_parser.parse src with
    | exception Sql_parser.Parse_error m -> Error (Parse_failed m)
    | stmt ->
      if Hashtbl.length db.parsed >= max_parsed then Hashtbl.clear db.parsed;
      Hashtbl.replace db.parsed src stmt;
      exec_stmt db ?params stmt)

let table_names db =
  Hashtbl.fold (fun name _ acc -> name :: acc) db.tables [] |> List.sort compare

let columns_of db name =
  Option.map
    (fun tbl -> List.map (fun c -> c.col_name) tbl.cols)
    (Hashtbl.find_opt db.tables name)

let row_count db name =
  Option.map (fun tbl -> Hashtbl.length tbl.rows) (Hashtbl.find_opt db.tables name)
