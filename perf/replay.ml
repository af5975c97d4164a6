(* Layers the bench cannot wrap from outside are costed by replaying
   the inputs captured in the traced round through their public
   functions in a tight loop.  Each pass is timed as a whole and divided
   by its call count, so clock reads stay out of the per-call figure. *)

module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Journal = Cm_core.Journal
module Monitor = Cm_core.Monitor
module Db = Cm_relational.Database
open Cm_rule

(* Time one pass; returns (ns, allocated words). *)
let pass f =
  let w0 = Meter.allocated_words () in
  let t0 = Meter.now_ns () in
  f ();
  let ns = Meter.now_ns () - t0 in
  (float_of_int ns, Meter.allocated_words () -. w0)

let per n x = if n = 0 then 0.0 else x /. float_of_int n

type dispatch = {
  select_ns : float;
  candidates_per_event : float;
  useful_ratio : float;  (** candidates whose template and condition hold *)
  template_ns : float;
  cond_ns : float;
}

(* Rebuild each shell's discrimination index from the installed rules
   (a shell indexes the rules whose LHS site it handles), then replay
   every recorded event through select, template match and the LHS
   condition, as Shell.occurred does. *)
let dispatch system rules (events : Event.t array) =
  let locator = Sys_.locator system in
  let indexes = Hashtbl.create 64 in
  List.iter
    (fun (site, _) ->
      let idx = Rule_index.create () in
      List.iter
        (fun r ->
          let lhs_site = Rule.lhs_site r locator in
          match lhs_site with
          | Some s when not (String.equal s site) -> ()
          | _ -> Rule_index.add idx ~lhs:r.Rule.lhs ~site:lhs_site r)
        rules;
      Hashtbl.replace indexes site idx)
    (Sys_.shells system);
  let local_of =
    Array.map (fun (e : Event.t) -> Shell.site (Sys_.shell system ~site:e.Event.site)) events
  in
  let n = Array.length events in
  let cands = Array.make n [] in
  let select_t, _ =
    pass (fun () ->
        for i = 0 to n - 1 do
          let e = events.(i) in
          cands.(i) <-
            Rule_index.select (Hashtbl.find indexes local_of.(i)) ~local_site:local_of.(i)
              ~event_site:e.Event.site ~desc:e.Event.desc
        done)
  in
  let n_cands = Array.fold_left (fun acc l -> acc + List.length l) 0 cands in
  let matched = ref [] in
  let template_t, _ =
    pass (fun () ->
        for i = 0 to n - 1 do
          let desc = events.(i).Event.desc in
          List.iter
            (fun r ->
              match Template.matches r.Rule.lhs desc ~seed:Expr.empty_env with
              | Some env -> matched := (r, env) :: !matched
              | None -> ())
            cands.(i)
        done)
  in
  let matched = Array.of_list !matched in
  (* Conditions here read only bound parameters; an empty local state
     stands in for the shell's. *)
  let state = Expr.state_of_fun (fun _ -> None) in
  let fired = ref 0 in
  let cond_t, _ =
    pass (fun () ->
        Array.iter
          (fun (r, env) ->
            match Expr.eval_cond state env r.Rule.lhs_cond with
            | Some _ -> incr fired
            | None -> ()
            | exception Expr.Eval_error _ -> ())
          matched)
  in
  {
    select_ns = per n select_t;
    candidates_per_event = per n (float_of_int n_cands);
    useful_ratio = per n_cands (float_of_int !fired);
    template_ns = per n_cands template_t;
    cond_ns = per (Array.length matched) cond_t;
  }

(* ns per Trace.record of the recorded events into a fresh trace. *)
let trace_record (events : Event.t array) =
  let tr = Trace.create () in
  let t, _ =
    pass (fun () ->
        Array.iter
          (fun (e : Event.t) ->
            ignore (Trace.record tr ~time:e.Event.time ~site:e.Event.site ~kind:e.Event.kind e.Event.desc))
          events)
  in
  per (Array.length events) t

(* ns per Journal.append (which serializes the record).  A durable
   world replays its own journals; elsewhere the records are the Event
   records a durable shell would have written for this trace. *)
let journal_append system (events : Event.t array) =
  let records =
    match Sys_.journals system with
    | Some reg ->
      List.concat_map
        (fun site -> List.map (fun r -> (site, r)) (Journal.records (Journal.for_site reg ~site)))
        (Journal.sites reg)
    | None ->
      Array.to_list
        (Array.map
           (fun (e : Event.t) ->
             ( e.Event.site,
               Journal.Event
                 { time = e.Event.time; site = e.Event.site; desc = Event.desc_to_string e.Event.desc } ))
           events)
  in
  let reg = Journal.create_registry () in
  let records = Array.of_list (List.map (fun (site, r) -> (Journal.for_site reg ~site, r)) records) in
  let t, _ = pass (fun () -> Array.iter (fun (j, r) -> Journal.append j r) records) in
  per (Array.length records) t

(* ns and words per Database statement of the relational mix, on a
   fresh table of the same size. *)
let db_exec ~rows (mix : Workloads.stmt list) =
  let db = Workloads.fresh_table rows in
  let mix = Array.of_list (List.rev mix) in
  let t, words =
    pass (fun () ->
        Array.iter
          (function
            | Workloads.App (sql, params) -> ignore (Db.exec db ~params sql)
            | Workloads.Parsed (stmt, params) -> ignore (Db.exec_stmt db ~params stmt))
          mix)
  in
  (per (Array.length mix) t, per (Array.length mix) words)

(* Feed the recorded events to a fresh Monitor watching the workload's
   copy families: the monitor cost of a workload that runs none the
   bench can wrap.  Returns (ns, words) in total. *)
let monitor_feed copies (events : Event.t array) =
  let m = Monitor.create () in
  List.iter (fun (source, target) -> Monitor.watch_copy m ~source ~target ~kappa:(Some 10.0)) copies;
  pass (fun () -> Array.iter (Monitor.feed m) events)
