module Db = Cm_relational.Database
module Health = Cm_sources.Health
open Cm_rule

type notify_spec = {
  table : string;
  column : string;
  key_column : string;
  send : bool;
  filter : (old_value:Value.t -> new_value:Value.t -> bool) option;
  filter_expr : Expr.t option;
}

type existence_spec = { ex_base : string; ex_table : string; ex_key_column : string }

type item_binding = {
  base : string;
  params : string list;
  read_sql : string option;
  write_sql : string option;
  delete_sql : string option;
  notify : notify_spec option;
  no_spontaneous : bool;
  periodic : float option;
}

type latencies = Cmi.timing = {
  read : float;
  write : float;
  notify : float;
  delete : float;
}

let default_latencies = { read = 0.2; write = 0.2; notify = 1.0; delete = 0.2 }

type deltas = latencies

type compiled = {
  binding : item_binding;
  read_stmt : Cm_relational.Sql_ast.stmt option;
  write_stmt : Cm_relational.Sql_ast.stmt option;
  delete_stmt : Cm_relational.Sql_ast.stmt option;
}

type t = { db : Db.t; port : Cmi.port; cmi : Cmi.t }

let health t = t.port.Cmi.health
let cmi t = t.cmi
let interface_rules t = t.cmi.Cmi.interface_rules

let compile_sql what base = function
  | None -> None
  | Some src -> (
    match Cm_relational.Sql_parser.parse src with
    | stmt -> Some stmt
    | exception Cm_relational.Sql_parser.Parse_error m ->
      invalid_arg (Printf.sprintf "Tr_relational: bad %s SQL for %s: %s" what base m))

let compile b =
  {
    binding = b;
    read_stmt = compile_sql "read" b.base b.read_sql;
    write_stmt = compile_sql "write" b.base b.write_sql;
    delete_stmt = compile_sql "delete" b.base b.delete_sql;
  }

let sql_params c (item : Item.t) extra =
  match List.combine c.binding.params item.Item.params with
  | pairs -> pairs @ extra
  | exception Invalid_argument _ ->
    invalid_arg
      (Printf.sprintf "Tr_relational: item %s has wrong parameter count"
         (Item.to_string item))

let single_value = function
  | Db.Rows { rows = (v :: _) :: _; _ } -> Some v
  | Db.Rows _ -> None
  | Db.Affected _ | Db.Done -> None

let interfaces ~site ~deltas b =
  let pattern = Interface.family b.base b.params in
  let id = Cmi.rule_id ~site b.base in
  let offered sql rule = Option.map (fun _ -> rule ()) sql in
  List.filter_map Fun.id
    [
      offered b.write_sql (fun () -> Interface.write ~id:(id "write") ~delta:deltas.write pattern);
      offered b.read_sql (fun () -> Interface.read ~id:(id "read") ~delta:deltas.read pattern);
      offered b.delete_sql (fun () ->
          Interface.delete ~id:(id "delete") ~delta:deltas.delete pattern);
      (match b.notify with
       | Some { send = true; filter_expr = None; _ } ->
         Some (Interface.notify ~id:(id "notify") ~delta:deltas.notify pattern)
       | Some { send = true; filter_expr = Some condition; _ } ->
         Some
           (Interface.conditional_notify ~id:(id "notify") ~delta:deltas.notify ~condition
              pattern)
       | _ -> None);
      (if b.no_spontaneous then
         Some (Interface.no_spontaneous_write ~id:(id "nospont") pattern)
       else None);
      Option.map
        (fun period ->
          Interface.periodic_notify ~id:(id "pnotify") ~period ~delta:deltas.notify pattern)
        b.periodic;
    ]

(* --- native operations --- *)

let read db bindings (item : Item.t) =
  match Hashtbl.find_opt bindings item.Item.base with
  | Some ({ read_stmt = Some stmt; _ } as c) -> (
    match Db.exec_stmt db ~params:(sql_params c item []) stmt with
    | Ok result -> single_value result
    | Error _ -> None)
  | _ -> None

(* A CMS-generated write or delete, run with the change triggers muted
   so it is not mistaken for a spontaneous change. *)
let exec_self db self_write ~site ~what c item stmt params =
  self_write := true;
  let result = Db.exec_stmt db ~params:(sql_params c item params) stmt in
  self_write := false;
  match result with
  | Ok _ -> Ok ()
  | Error e ->
    Logs.warn (fun m ->
        m "translator %s: %s %s rejected: %s" site what (Item.to_string item)
          (Db.error_to_string e));
    (* A CHECK rejection of a CMS-generated write means the local guard
       held against a decision computed from a stale view (e.g. a limit
       grant queued across a peer's crash).  The constraint is intact
       and the managing rules will re-derive a fresh decision, so the
       write is late, not wrong: a metric failure.  Anything else
       (missing table, type error) is a logical one. *)
    (match e with Db.Check_failed _ -> Error Msg.Metric | _ -> Error Msg.Logical)

(* --- trigger (observer) handling: spontaneous changes --- *)

let watched_change bindings ~table ~column ~old_row ~new_row =
  Hashtbl.fold
    (fun base c acc ->
      match c.binding.notify with
      | Some spec when String.equal spec.table table && String.equal spec.column column ->
        let old_value = Cm_relational.Row.get_or_null old_row column in
        let new_value = Cm_relational.Row.get_or_null new_row column in
        if Value.equal old_value new_value then acc
        else
          (* The item's parameter vector mirrors the binding's arity: a
             parameter-free binding denotes a single item regardless of
             the row key. *)
          let item =
            match c.binding.params with
            | [] -> Item.make base
            | _ ->
              Item.make base
                ~params:[ Cm_relational.Row.get_or_null new_row spec.key_column ]
          in
          (item, spec, old_value, new_value) :: acc
      | _ -> acc)
    bindings []

let columns_changed old_row new_row =
  List.filter_map
    (fun (col, v) ->
      if Value.equal v (Cm_relational.Row.get_or_null old_row col) then None else Some col)
    (Cm_relational.Row.to_list new_row)

let on_db_change port bindings existence self_write change =
  let existence_event event table row =
    List.iter
      (fun spec ->
        if String.equal spec.ex_table table then begin
          let key = Cm_relational.Row.get_or_null row spec.ex_key_column in
          let item = Item.make spec.ex_base ~params:[ key ] in
          ignore (port.Cmi.emit (event item) ~kind:Event.Spontaneous)
        end)
      existence
  in
  if not !self_write then
    match change with
    | Db.Updated { table; old_row; new_row } ->
      List.iter
        (fun column ->
          List.iter
            (fun (item, spec, old_value, new_value) ->
              Cmi.changed port ~notify:spec.send ?filter:spec.filter item ~old_value
                ~new_value)
            (watched_change bindings ~table ~column ~old_row ~new_row))
        (columns_changed old_row new_row)
    | Db.Inserted { table; row } -> existence_event Event.ins table row
    | Db.Deleted { table; row } -> existence_event Event.del table row

let create ~sim ~db ~site ~emit ~report ?(latencies = default_latencies) ?deltas
    ?(existence = []) bindings =
  let bindings = List.map compile bindings in
  let table = Cmi.index ~what:"Tr_relational" (fun c -> c.binding.base) bindings in
  let port =
    Cmi.port ~sim ~site ~emit ~report ~health:(Health.create ()) ~latency:latencies
      ?delta:deltas ()
  in
  let self_write = ref false in
  let exec = exec_self db self_write ~site in
  let write (item : Item.t) =
    match Hashtbl.find_opt table item.Item.base with
    | Some ({ write_stmt = Some stmt; _ } as c) ->
      Some (fun v -> exec ~what:"write to" c item stmt [ ("b", v) ])
    | _ -> None
  in
  let delete (item : Item.t) =
    match Hashtbl.find_opt table item.Item.base with
    | Some ({ delete_stmt = Some stmt; _ } as c) ->
      Some (fun () -> exec ~what:"delete of" c item stmt [])
    | _ -> None
  in
  let periodic =
    List.filter_map
      (fun c ->
        Option.map
          (fun period ->
            if c.binding.params <> [] then
              invalid_arg
                ("Tr_relational: periodic notify needs a parameter-free item: "
                ^ c.binding.base);
            (Item.make c.binding.base, period))
          c.binding.periodic)
      bindings
  in
  let cmi =
    Cmi.make port
      ~bases:(List.map (fun c -> c.binding.base) bindings @ List.map (fun s -> s.ex_base) existence)
      ~interfaces:
        (List.concat_map (fun c -> interfaces ~site ~deltas:port.Cmi.delta c.binding) bindings)
      ~read:(read db table) ~write ~delete ~periodic ()
  in
  (* Declare the triggers: an after-change observer on the database. *)
  Db.on_change db (on_db_change port table existence self_write);
  { db; port; cmi }

let exec_app t ?params src =
  Health.check (health t) ~name:"relational";
  Db.exec t.db ?params src
