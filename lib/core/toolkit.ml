module Db = Cm_relational.Database

type built = {
  system : System.t;
  shells : (string * Shell.t) list;
  relational : (string * Tr_relational.t) list;
  kvfiles : (string * Tr_kvfile.t) list;
  databases : (string * Db.t) list;
  stores : (string * Cm_sources.Kvfile.t) list;
}

let op_value ops op ~default =
  match List.assoc_opt op ops with Some v -> v | None -> default

(* A source's [latency] and [delta] lines over its translator's default
   latencies, op by op; a δ the source leaves unset is the translator's
   default for the configured latency. *)
let timing decl (default : Cmi.timing) =
  let over ops (d : Cmi.timing) =
    {
      Cmi.read = op_value ops Cmrid.Read_op ~default:d.read;
      write = op_value ops Cmrid.Write_op ~default:d.write;
      notify = op_value ops Cmrid.Notify_op ~default:d.notify;
      delete = op_value ops Cmrid.Delete_op ~default:d.delete;
    }
  in
  let latency = over decl.Cmrid.s_latencies default in
  (latency, over decl.Cmrid.s_deltas (Cmi.default_deltas latency))

(* A kvfile translator has one latency and one δ; the source's [read]
   figures set them. *)
let kvfile_timing decl =
  let latency, delta = timing decl (Cmi.uniform Tr_kvfile.default_latency) in
  (latency.Cmi.read, delta.Cmi.read)

let relational_binding (item : Cmrid.item_decl) =
  let notify =
    Option.map
      (fun (n : Cmrid.notify_decl) ->
        let filter, filter_expr =
          match n.Cmrid.n_threshold with
          | None -> (None, None)
          | Some threshold ->
            ( Some
                (fun ~old_value ~new_value ->
                  match old_value, new_value with
                  | (Cm_rule.Value.Int _ | Cm_rule.Value.Float _),
                    (Cm_rule.Value.Int _ | Cm_rule.Value.Float _) ->
                    Float.abs
                      (Cm_rule.Value.to_float new_value
                      -. Cm_rule.Value.to_float old_value)
                    > threshold *. Cm_rule.Value.to_float old_value
                  | _ -> true),
              Some (Interface.relative_change_condition ~threshold) )
        in
        {
          Tr_relational.table = n.Cmrid.n_table;
          column = n.Cmrid.n_column;
          key_column = n.Cmrid.n_key;
          send = n.Cmrid.n_send;
          filter;
          filter_expr;
        })
      item.Cmrid.i_notify
  in
  {
    Tr_relational.base = item.Cmrid.i_base;
    params = item.Cmrid.i_params;
    read_sql = item.Cmrid.i_read;
    write_sql = item.Cmrid.i_write;
    delete_sql = item.Cmrid.i_delete;
    notify;
    no_spontaneous = item.Cmrid.i_no_spontaneous;
    periodic = None;
  }

(* The key template only matters to a built store: [attach] refuses an
   item without one, while [item_interfaces] derives its statements. *)
let kvfile_binding (item : Cmrid.item_decl) =
  {
    Tr_kvfile.base = item.Cmrid.i_base;
    params = item.Cmrid.i_params;
    key_template = Option.value item.Cmrid.i_key_template ~default:"";
    writable = item.Cmrid.i_writable;
  }

let item_interfaces decl item =
  let site = decl.Cmrid.s_site in
  match decl.Cmrid.s_kind with
  | Cmrid.Relational ->
    let _, deltas = timing decl Tr_relational.default_latencies in
    Tr_relational.interfaces ~site ~deltas (relational_binding item)
  | Cmrid.Kvfile ->
    let _, delta = kvfile_timing decl in
    Tr_kvfile.interfaces ~site ~delta (kvfile_binding item)

let attach system cmrid =
  let ( let* ) r f = Result.bind r f in
  let* () =
    (* duplicate item bases across sources are configuration errors *)
    let bases =
      List.concat_map
        (fun s -> List.map (fun i -> i.Cmrid.i_base) s.Cmrid.s_items)
        cmrid.Cmrid.sources
    in
    let dupes =
      List.filter (fun b -> List.length (List.filter (String.equal b) bases) > 1) bases
      |> List.sort_uniq compare
    in
    if dupes = [] then Ok ()
    else Error ("duplicate item bases: " ^ String.concat ", " dupes)
  in
  (* One shell per site, created in declaration order (sources, then
     [location] lines): same-instant events at different sites, such as
     heartbeats, run in creation order. *)
  let shells =
    List.fold_left
      (fun acc site ->
        if List.mem_assoc site acc then acc
        else acc @ [ (site, System.add_shell system ~site) ])
      []
      (List.map (fun s -> s.Cmrid.s_site) cmrid.Cmrid.sources
      @ List.map (fun l -> l.Cmrid.l_site) cmrid.Cmrid.locations)
  in
  let shell_of site = List.assoc site shells in
  let build_source acc decl =
    let* (relational, kvfiles, databases, stores) = acc in
    let site = decl.Cmrid.s_site in
    let shell = shell_of site in
    let emit = Shell.emitter_for shell ~site in
    let report kind = Shell.report_failure shell kind in
    match decl.Cmrid.s_kind with
    | Cmrid.Relational ->
      let db = Db.create () in
      let* () =
        List.fold_left
          (fun acc stmt ->
            let* () = acc in
            match Db.exec db stmt with
            | Ok _ -> Ok ()
            | Error e ->
              Error (Printf.sprintf "site %s init failed: %s" site (Db.error_to_string e)))
          (Ok ()) decl.Cmrid.s_init
      in
      let latencies, deltas = timing decl Tr_relational.default_latencies in
      let* tr =
        match
          Tr_relational.create ~sim:(System.sim system) ~db ~site ~emit ~report
            ~latencies ~deltas
            (List.map relational_binding decl.Cmrid.s_items)
        with
        | tr -> Ok tr
        | exception Invalid_argument m -> Error m
      in
      System.register_translator system ~shell (Tr_relational.cmi tr);
      Ok ((site, tr) :: relational, kvfiles, (site, db) :: databases, stores)
    | Cmrid.Kvfile ->
      let fs = Cm_sources.Kvfile.create () in
      let* () =
        match
          List.find_opt (fun i -> i.Cmrid.i_key_template = None) decl.Cmrid.s_items
        with
        | Some item ->
          Error
            (Printf.sprintf "item %s: kvfile items need a key template" item.Cmrid.i_base)
        | None -> Ok ()
      in
      let latency, delta = kvfile_timing decl in
      let* tr =
        match
          Tr_kvfile.create ~sim:(System.sim system) ~fs ~site ~emit ~report ~latency
            ~delta (List.map kvfile_binding decl.Cmrid.s_items)
        with
        | tr -> Ok tr
        | exception Invalid_argument m -> Error m
      in
      System.register_translator system ~shell (Tr_kvfile.cmi tr);
      Ok (relational, (site, tr) :: kvfiles, databases, (site, fs) :: stores)
  in
  let* relational, kvfiles, databases, stores =
    List.fold_left build_source (Ok ([], [], [], [])) cmrid.Cmrid.sources
  in
  (* Install the strategy specification declared in the configuration. *)
  let* () =
    match cmrid.Cmrid.rules with
    | [] -> Ok ()
    | decls -> (
      let lines = List.map (fun (d : Cmrid.rule_decl) -> d.Cmrid.r_text) decls in
      match Cm_rule.Parser.parse_rules (String.concat "\n" lines) with
      | exception Cm_rule.Parser.Parse_error { message; _ } ->
        Error ("strategy rules: " ^ message)
      | rules -> (
        match
          System.install system
            {
              Strategy.strategy_name = "configured";
              description = "strategy specification from the CM-RID file";
              rules;
              aux_init = [];
            }
        with
        | () -> Ok ()
        | exception Invalid_argument m -> Error m))
  in
  Ok
    {
      system;
      shells;
      relational = List.rev relational;
      kvfiles = List.rev kvfiles;
      databases = List.rev databases;
      stores = List.rev stores;
    }

let build ?(config = System.Config.default) cmrid =
  attach (System.create ~config (Cmrid.locator cmrid)) cmrid

let interface_summary built =
  let by_base = Hashtbl.create 16 in
  List.iter
    (fun rule ->
      match Interface.classify rule, Interface.served_base rule with
      | Some kind, Some base ->
        let prior = Option.value (Hashtbl.find_opt by_base base) ~default:[] in
        let name = Interface.kind_to_string kind in
        if not (List.mem name prior) then Hashtbl.replace by_base base (prior @ [ name ])
      | _ -> ())
    (System.interface_rules built.system);
  Hashtbl.fold (fun base kinds acc -> (base, kinds) :: acc) by_base []
  |> List.sort compare
