module Sim = Cm_sim.Sim
module Net = Cm_net.Net
open Cm_rule

(* Everything a shell shares with its siblings — built once by
   System.create from its Config and handed to every add_shell. *)
type ctx = {
  ctx_sim : Sim.t;
  ctx_net : Msg.t Net.t;
  ctx_reliable : Reliable.t option;
  ctx_trace : Trace.t;
  ctx_locator : Item.locator;
  ctx_obs : Obs.t;
  ctx_journals : Journal.registry option;
}

(* One versioned rule program at this site (ISSUE 6).  Epoch 0 is the
   base program installed at configuration time; later epochs are staged
   by Cm_core.Evolution.  The phase vocabulary is Journal's so that the
   state machine journals and replays without translation. *)
type rule_epoch = {
  re_number : int;
  mutable re_phase : Journal.epoch_phase;
  mutable re_rules : Rule.t list;  (* registration order *)
  re_by_id : (string, Rule.t) Hashtbl.t;
}

(* Per-rule instruments at one shell, keyed by rule id, resolved on the
   id's first event there; a handle registers its row only when bumped.
   Bumped only on an enabled registry: a lookup per fire would cost the
   noop path a table probe. *)
type rule_obs = {
  ro_fires_sent : Obs.Counter.t;
  ro_fires_executed : Obs.Counter.t;
  ro_lhs_rejections : Obs.Counter.t;
  ro_rhs_rejections : Obs.Counter.t;
  ro_stale_epoch_rejections : Obs.Counter.t;
}

type t = {
  sim : Sim.t;
  net : Msg.t Net.t;
  send_msg : from_site:string -> to_site:string -> Msg.t -> unit;
  trace : Trace.t;
  locator : Item.locator;
  obs : Obs.t;
  obs_events : Obs.Counter.t;  (* the only tally of events seen *)
  obs_queue_depth : Obs.Gauge.t;
  obs_by_rule : (string, rule_obs) Hashtbl.t;
  site : string;
  store : Store.t;
  journal : Journal.t option;
  translator_by_base : (string, Cmi.t) Hashtbl.t;
      (* first-attached owner per base *)
  handled_sites : (string, unit) Hashtbl.t;
  mutable route : string -> string;
  epochs : (int, rule_epoch) Hashtbl.t;
  mutable active_epoch : int;
  mutable stale_epoch_rejections : int;
      (* Fire envelopes rejected because their origin epoch was retired
         (or unknown after a crash) — counted, never silently dropped *)
  mutable lhs_rules : Rule.t Rule_index.t;
      (* rules of the ACTIVE epoch whose LHS site this shell handles,
         discriminated by (LHS site, descriptor name, arg0 base); kept
         in sync incrementally across cutovers *)
  periodics : (string * float, unit) Hashtbl.t;
  custom_handlers : (string, (Event.t -> unit) list ref) Hashtbl.t;
  mutable failure_listeners : (origin:string -> Msg.failure_kind -> unit) list;
  mutable reset_listeners : (origin:string -> unit) list;
  mutable peer_sites : string list;  (* sorted: deterministic broadcasts *)
  mutable fires_sent : int;
  mutable fires_executed : int;
}

let site t = t.site
let sim t = t.sim
let trace t = t.trace

let tags ?span t = Obs.log_tags ~site:t.site ~time:(Sim.now t.sim) ?span ()

let set_route t route = t.route <- route

let set_peer_sites t sites =
  t.peer_sites <-
    List.sort_uniq String.compare
      (List.filter (fun s -> not (String.equal s t.site)) sites)

let local_state t =
  Expr.state_of_fun (fun item ->
      (* "Clock" is a built-in pseudo-item holding the local time; binding
         it in a guard (Clock == t) is how strategies timestamp auxiliary
         data such as the monitor's Tb (§6.3). *)
      if String.equal item.Item.base "Clock" then Some (Value.Float (Sim.now t.sim))
      else
        match Hashtbl.find_opt t.translator_by_base item.Item.base with
        | Some tr -> tr.Cmi.current_value item
        | None -> Store.get t.store item)

let rule_obs t rule_id =
  match Hashtbl.find_opt t.obs_by_rule rule_id with
  | Some ro -> ro
  | None ->
    let counter ?(extra = []) name =
      Obs.Counter.make t.obs name
        ~labels:(("site", t.site) :: ("rule", rule_id) :: extra)
    in
    let ro =
      { ro_fires_sent = counter "shell_fires_sent";
        ro_fires_executed = counter "shell_fires_executed";
        ro_lhs_rejections =
          counter "shell_guard_rejections" ~extra:[ ("side", "lhs") ];
        ro_rhs_rejections =
          counter "shell_guard_rejections" ~extra:[ ("side", "rhs") ];
        ro_stale_epoch_rejections = counter "shell_stale_epoch_rejections" }
    in
    Hashtbl.replace t.obs_by_rule rule_id ro;
    ro

(* A per-rule row, bumped only on an enabled registry. *)
let bump_rule t rule_id row =
  if Obs.enabled t.obs then Obs.Counter.incr (row (rule_obs t rule_id))

let eval_cond_safe t env cond =
  try Expr.eval_cond (local_state t) env cond with Expr.Eval_error _ -> None

(* --- rule epochs: program versions and the dispatch index --- *)

let active_program t = Hashtbl.find t.epochs t.active_epoch

let journal_append t r =
  match t.journal with Some j -> Journal.append j r | None -> ()

let lhs_site_if_handled t rule =
  let lhs_site = Rule.lhs_site rule t.locator in
  let handled =
    match lhs_site with
    | Some s -> Hashtbl.mem t.handled_sites s
    | None -> true
  in
  (lhs_site, handled)

let index_add t rule =
  let lhs_site, handled = lhs_site_if_handled t rule in
  if handled then Rule_index.add t.lhs_rules ~lhs:rule.Rule.lhs ~site:lhs_site rule

let index_remove t rule =
  let lhs_site, handled = lhs_site_if_handled t rule in
  if handled then
    ignore
      (Rule_index.remove t.lhs_rules ~lhs:rule.Rule.lhs ~site:lhs_site (fun r ->
           String.equal r.Rule.id rule.Rule.id))

(* Structural rule identity for the cutover delta: Rule.t is pure data
   and [to_string] is canonical, so equal strings mean the new epoch
   kept the rule unchanged. *)
let rule_eq a b = String.equal (Rule.to_string a) (Rule.to_string b)

let propose_epoch_aux t ~journal ~epoch rules =
  if Hashtbl.mem t.epochs epoch then
    invalid_arg (Printf.sprintf "Shell.propose_epoch: epoch %d already exists" epoch);
  if epoch <= t.active_epoch then
    invalid_arg "Shell.propose_epoch: epoch numbers must advance";
  let by_id = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if Hashtbl.mem by_id r.Rule.id then
        invalid_arg ("Shell.propose_epoch: duplicate rule id " ^ r.Rule.id);
      Hashtbl.replace by_id r.Rule.id r)
    rules;
  (* Write-ahead: the proposal (with its full program) hits stable
     storage before the volatile epoch table, so a crash mid-transition
     replays into the same state. *)
  if journal then
    journal_append t (Journal.Epoch_proposed { time = Sim.now t.sim; epoch; rules });
  Hashtbl.replace t.epochs epoch
    { re_number = epoch; re_phase = Journal.Ep_proposed; re_rules = rules;
      re_by_id = by_id }

let cutover_epoch_aux t ~journal ~epoch =
  match Hashtbl.find_opt t.epochs epoch with
  | None ->
    invalid_arg (Printf.sprintf "Shell.cutover_epoch: unknown epoch %d" epoch)
  | Some e when e.re_phase <> Journal.Ep_proposed ->
    invalid_arg "Shell.cutover_epoch: only a proposed epoch can cut over"
  | Some e ->
    if journal then
      journal_append t (Journal.Epoch_cutover { time = Sim.now t.sim; epoch });
    let old = active_program t in
    (* Incremental index update: rules the new program keeps verbatim
       retain their index entries (and registration order); removed or
       changed ones leave their buckets, added or changed ones are
       appended.  O(program delta), not an O(all rules) rebuild. *)
    List.iter
      (fun r ->
        match Hashtbl.find_opt e.re_by_id r.Rule.id with
        | Some r' when rule_eq r r' -> ()
        | _ -> index_remove t r)
      old.re_rules;
    List.iter
      (fun r' ->
        match Hashtbl.find_opt old.re_by_id r'.Rule.id with
        | Some r when rule_eq r r' -> ()
        | _ -> index_add t r')
      e.re_rules;
    old.re_phase <- Journal.Ep_draining;
    e.re_phase <- Journal.Ep_active;
    t.active_epoch <- epoch

let retire_epoch_aux t ~journal ~epoch =
  match Hashtbl.find_opt t.epochs epoch with
  | None ->
    invalid_arg (Printf.sprintf "Shell.retire_epoch: unknown epoch %d" epoch)
  | Some e when e.re_phase <> Journal.Ep_draining ->
    invalid_arg "Shell.retire_epoch: only a draining epoch can retire"
  | Some e ->
    if journal then
      journal_append t (Journal.Epoch_retired { time = Sim.now t.sim; epoch });
    e.re_phase <- Journal.Ep_retired

let propose_epoch t ~epoch rules = propose_epoch_aux t ~journal:true ~epoch rules
let cutover_epoch t ~epoch = cutover_epoch_aux t ~journal:true ~epoch
let retire_epoch t ~epoch = retire_epoch_aux t ~journal:true ~epoch

let rule_epoch t = t.active_epoch

let epoch_phase t ~epoch =
  Option.map (fun e -> e.re_phase) (Hashtbl.find_opt t.epochs epoch)

let stale_epoch_rejections t = t.stale_epoch_rejections

(* Write-ahead: the store mutation is journaled before it is applied, so
   recovery replays exactly the writes that happened. *)
let journaled_store_set t item v =
  (match t.journal with
   | Some j ->
     Journal.append j
       (Journal.Store_write { time = Sim.now t.sim; item; value = v })
   | None -> ());
  Store.set t.store item v

(* --- event intake: record, then match strategy rules --- *)

(* Candidate rules for an event, already site-filtered: only the
   discrimination buckets the event can touch, in registration order. *)
let candidate_rules t (event : Event.t) =
  Rule_index.select t.lhs_rules ~local_site:t.site ~event_site:event.site
    ~desc:event.desc

let rec occurred t (event : Event.t) =
  Obs.Counter.incr t.obs_events;
  (* The gauge's float and the span labels below are built eagerly at
     the call site even when the registry is the noop one — keep them
     off the disabled hot path. *)
  if Obs.enabled t.obs then
    Obs.Gauge.set t.obs_queue_depth (float_of_int (Sim.pending t.sim));
  List.iter
    (fun rule ->
      match Template.matches rule.Rule.lhs event.desc ~seed:Expr.empty_env with
      | None -> ()
      | Some env0 -> (
          match eval_cond_safe t env0 rule.Rule.lhs_cond with
          | None -> bump_rule t rule.Rule.id (fun ro -> ro.ro_lhs_rejections)
          | Some env ->
            let rhs_site =
              match Rule.rhs_site rule t.locator with
              | Some s -> s
              | None -> t.site  (* pure chaining rules execute locally *)
            in
            let to_site = t.route rhs_site in
            (* The firing decision is journaled before the envelope is on
               the wire: a crash between the two re-sends, never loses. *)
            (match t.journal with
             | Some j ->
               Journal.append j
                 (Journal.Fire_sent
                    { time = event.time; rule_id = rule.Rule.id; to_site;
                      trigger_id = event.id })
             | None -> ());
            t.fires_sent <- t.fires_sent + 1;
            (* Root of the end-to-end trace for this constraint
               evaluation; the id travels inside the envelope. *)
            let span =
              if not (Obs.enabled t.obs) then 0
              else begin
                Obs.Counter.incr (rule_obs t rule.Rule.id).ro_fires_sent;
                Obs.span t.obs ~name:"fire" ~at:event.time
                  ~labels:
                    [ ("site", t.site); ("rule", rule.Rule.id);
                      ("to", to_site);
                      ("trigger", string_of_int event.id) ]
              end
            in
            t.send_msg ~from_site:t.site ~to_site
              (Msg.Fire
                 {
                   rule_id = rule.Rule.id;
                   rule_epoch = t.active_epoch;
                   env;
                   trigger_id = event.id;
                   span;
                 });
            if Obs.enabled t.obs then
              Obs.end_span t.obs ~id:span ~at:(Sim.now t.sim)))
    (candidate_rules t event);
  match Hashtbl.find_opt t.custom_handlers event.desc.Event.name with
  | Some handlers -> List.iter (fun h -> h event) !handlers
  | None -> ()

and emit_at t ~site desc ~kind =
  let event = Trace.record t.trace ~time:(Sim.now t.sim) ~site ~kind desc in
  (match t.journal with
   | Some j ->
     Journal.append j
       (Journal.Event
          { time = event.Event.time; site; desc = Event.desc_to_string desc })
   | None -> ());
  occurred t event;
  event

and dispatch t desc ~kind =
  match desc.Event.name with
  | "WR" | "RR" | "DR" -> (
    let base =
      match Event.item_of_desc desc with
      | Some item -> item.Item.base
      | None -> ""
    in
    match Hashtbl.find_opt t.translator_by_base base with
    | Some tr -> tr.Cmi.request desc ~kind
    | None ->
      Logs.warn (fun m ->
          m ~tags:(tags t) "shell %s: no translator owns %s; request dropped"
            t.site
            (Event.desc_to_string desc)))
  | "W" -> (
    match Event.written_value desc with
    | Some (item, v) ->
      let owned = Hashtbl.mem t.translator_by_base item.Item.base in
      if owned then
        Logs.warn (fun m ->
            m ~tags:(tags t)
              "shell %s: W on database item %s must go through WR; dropped"
              t.site
              (Item.to_string item))
      else begin
        journaled_store_set t item v;
        ignore (emit_at t ~site:t.site desc ~kind)
      end
    | None ->
      Logs.warn (fun m ->
          m ~tags:(tags t) "shell %s: malformed W event dropped" t.site))
  | _ ->
    (* Custom / chaining event: occurs at this shell's site. *)
    ignore (emit_at t ~site:t.site desc ~kind)

and handle_fire t ~rule_id ~rule_epoch ~env ~trigger_id ~parent_span =
  let epoch_entry = Hashtbl.find_opt t.epochs rule_epoch in
  let executable =
    match epoch_entry with
    | Some ({ re_phase = Journal.Ep_active | Journal.Ep_draining; _ } as e) ->
      Some e
    | Some _ | None -> None
  in
  match executable with
  | None ->
    (* The envelope's origin epoch is retired (or unknown, after a crash
       forgot un-journaled epochs): reject it and count it.  Executing
       it under a different program would re-interpret an old firing
       under new rules; dropping it silently would hide the loss. *)
    t.stale_epoch_rejections <- t.stale_epoch_rejections + 1;
    bump_rule t rule_id (fun ro -> ro.ro_stale_epoch_rejections);
    Logs.warn (fun m ->
        m ~tags:(tags t ?span:(if parent_span > 0 then Some parent_span else None))
          "shell %s: Fire %s#%d rejected: rule epoch %d is %s" t.site rule_id
          trigger_id rule_epoch
          (match epoch_entry with
          | Some e -> Journal.epoch_phase_to_string e.re_phase
          | None -> "unknown"))
  | Some program -> (
    match Hashtbl.find_opt program.re_by_id rule_id with
    | None ->
      Logs.err (fun m ->
          m
            ~tags:(tags t ?span:(if parent_span > 0 then Some parent_span else None))
            "shell %s: Fire for unknown rule %s (epoch %d)" t.site rule_id
            rule_epoch)
    | Some rule ->
    t.fires_executed <- t.fires_executed + 1;
    (* The RHS half of the trace: child of the LHS "fire" span that
       travelled inside the envelope. *)
    let exec_span =
      if not (Obs.enabled t.obs) then 0
      else begin
        Obs.Counter.incr (rule_obs t rule_id).ro_fires_executed;
        Obs.span t.obs ~parent:parent_span ~name:"execute" ~at:(Sim.now t.sim)
          ~labels:[ ("site", t.site); ("rule", rule_id) ]
      end
    in
    let kind = Event.Generated { rule_id; trigger = trigger_id } in
    let rec steps env i = function
      | [] -> ()
      | (step : Rule.step) :: rest -> (
        match eval_cond_safe t env step.guard with
        | None ->
          bump_rule t rule_id (fun ro -> ro.ro_rhs_rejections);
          steps env (i + 1) rest
        | Some env' -> (
          match Template.instantiate step.template env' with
          | desc ->
            let step_span =
              if not (Obs.enabled t.obs) then 0
              else
                Obs.span t.obs ~parent:exec_span ~name:"step" ~at:(Sim.now t.sim)
                  ~labels:
                    [ ("site", t.site); ("rule", rule_id);
                      ("index", string_of_int i);
                      ("event", desc.Event.name) ]
            in
            dispatch t desc ~kind;
            if Obs.enabled t.obs then
              Obs.end_span t.obs ~id:step_span ~at:(Sim.now t.sim);
            steps env' (i + 1) rest
          | exception Expr.Eval_error message ->
            Logs.err (fun m ->
                m
                  ~tags:
                    (tags t ?span:(if exec_span > 0 then Some exec_span else None))
                  "shell %s: rule %s step cannot instantiate: %s" t.site rule_id
                  message);
            steps env' (i + 1) rest))
    in
    steps env 0 (Rule.rhs_steps rule);
    if Obs.enabled t.obs then
      Obs.end_span t.obs ~id:exec_span ~at:(Sim.now t.sim))

and handle_msg t = function
  | Msg.Fire { rule_id; rule_epoch; env; trigger_id; span } ->
    handle_fire t ~rule_id ~rule_epoch ~env ~trigger_id ~parent_span:span
  | Msg.Failure_notice { origin_site; kind } ->
    List.iter (fun f -> f ~origin:origin_site kind) t.failure_listeners
  | Msg.Reset_notice { origin_site } ->
    List.iter (fun f -> f ~origin:origin_site) t.reset_listeners
  | Msg.Suspect_down { suspect_site; origin_site = _ } ->
    (* The failure detector's verdict on a dead peer.  Without durable
       state this is a logical failure at that site (§5) — its updates
       may be lost entirely, not just late.  With a journal the site can
       "remember" what it owes on recovery, so the crash degrades to a
       metric failure: updates arrive late, never never. *)
    let kind = if Option.is_some t.journal then Msg.Metric else Msg.Logical in
    List.iter (fun f -> f ~origin:suspect_site kind) t.failure_listeners
  | Msg.Data { payload; _ } ->
    (* Transport envelope reaching the shell means the sender used the
       reliable protocol while this site was registered raw; unwrap so the
       application message is not lost (acks/ordering are unavailable). *)
    handle_msg t payload
  | Msg.Ack _ | Msg.Heartbeat _ -> ()

let create ctx ~site =
  let { ctx_sim = sim; ctx_net = net; ctx_reliable = reliable;
        ctx_trace = trace; ctx_locator = locator; ctx_obs = obs;
        ctx_journals = journals } = ctx
  in
  let send_msg =
    match reliable with
    | Some r -> fun ~from_site ~to_site msg -> Reliable.send r ~from_site ~to_site msg
    | None -> fun ~from_site ~to_site msg -> Net.send net ~from_site ~to_site msg
  in
  let t =
    {
      sim;
      net;
      send_msg;
      trace;
      locator;
      obs;
      obs_events = Obs.Counter.make obs "shell_events" ~labels:[ ("site", site) ];
      obs_queue_depth = Obs.Gauge.make obs "sim_queue_depth";
      obs_by_rule = Hashtbl.create 16;
      site;
      store = Store.create ();
      journal = Option.map (fun reg -> Journal.for_site reg ~site) journals;
      translator_by_base = Hashtbl.create 16;
      handled_sites = Hashtbl.create 4;
      route = (fun s -> s);
      epochs = Hashtbl.create 4;
      active_epoch = 0;
      stale_epoch_rejections = 0;
      lhs_rules = Rule_index.create ();
      periodics = Hashtbl.create 4;
      custom_handlers = Hashtbl.create 8;
      failure_listeners = [];
      reset_listeners = [];
      peer_sites = [];
      fires_sent = 0;
      fires_executed = 0;
    }
  in
  Hashtbl.replace t.handled_sites site ();
  Hashtbl.replace t.epochs 0
    { re_number = 0; re_phase = Journal.Ep_active; re_rules = [];
      re_by_id = Hashtbl.create 16 };
  (match reliable with
   | Some r -> Reliable.register r ~site (handle_msg t)
   | None -> Net.register net ~site (handle_msg t));
  t

let attach_translator t (tr : Cmi.t) =
  List.iter
    (fun base ->
      if not (Hashtbl.mem t.translator_by_base base) then
        Hashtbl.replace t.translator_by_base base tr)
    tr.bases;
  Hashtbl.replace t.handled_sites tr.site ()

let emitter_for t ~site : Cmi.emit = fun desc ~kind -> emit_at t ~site desc ~kind

let install_strategy t rules =
  (* Installs extend the currently active epoch — for a configured (not
     yet evolved) system that is the base program, epoch 0. *)
  let e = active_program t in
  List.iter
    (fun rule ->
      if Hashtbl.mem e.re_by_id rule.Rule.id then
        invalid_arg ("Shell.install_strategy: duplicate rule id " ^ rule.Rule.id);
      Hashtbl.replace e.re_by_id rule.Rule.id rule;
      e.re_rules <- e.re_rules @ [ rule ];
      index_add t rule)
    rules

let register_periodic t ?site ~period () =
  let site = Option.value site ~default:t.site in
  if not (Hashtbl.mem t.periodics (site, period)) then begin
    Hashtbl.replace t.periodics (site, period) ();
    Sim.every t.sim ~period
      (fun () -> ignore (emit_at t ~site (Event.p period) ~kind:Event.Spontaneous))
      ~cancel:(fun () -> false)
  end

let read_aux t item = Store.get t.store item

let write_aux t item v =
  journaled_store_set t item v;
  ignore (emit_at t ~site:t.site (Event.w item v) ~kind:Event.Spontaneous)

let on_custom t name handler =
  match Hashtbl.find_opt t.custom_handlers name with
  | Some handlers -> handlers := !handlers @ [ handler ]
  | None -> Hashtbl.replace t.custom_handlers name (ref [ handler ])

let on_failure_notice t f = t.failure_listeners <- t.failure_listeners @ [ f ]
let on_reset_notice t f = t.reset_listeners <- t.reset_listeners @ [ f ]

let report_failure t kind =
  List.iter (fun f -> f ~origin:t.site kind) t.failure_listeners;
  List.iter
    (fun peer ->
      t.send_msg ~from_site:t.site ~to_site:peer
        (Msg.Failure_notice { origin_site = t.site; kind }))
    t.peer_sites

let broadcast_reset t =
  List.iter (fun f -> f ~origin:t.site) t.reset_listeners;
  List.iter
    (fun peer ->
      t.send_msg ~from_site:t.site ~to_site:peer
        (Msg.Reset_notice { origin_site = t.site }))
    t.peer_sites

let fires_sent t = t.fires_sent
let fires_executed t = t.fires_executed
let events_seen t = Obs.Counter.value t.obs_events

(* -- crash-recovery hooks (driven by Cm_core.Recovery) -- *)

let journal t = t.journal

let recover t ~store ~epochs =
  Store.clear t.store;
  if t.active_epoch <> 0 || Hashtbl.length t.epochs > 1 then begin
    (* Rule epochs beyond the base program are volatile: a crashed site
       reboots on its configured program (epoch 0), and only the
       journaled phases below take it back to the epoch it had reached. *)
    let base = Hashtbl.find t.epochs 0 in
    Hashtbl.reset t.epochs;
    base.re_phase <- Journal.Ep_active;
    Hashtbl.replace t.epochs 0 base;
    t.active_epoch <- 0;
    t.lhs_rules <- Rule_index.create ();
    List.iter (fun r -> index_add t r) base.re_rules
  end;
  (* The trace already holds the writes' events: set, do not emit. *)
  List.iter (fun (item, v) -> Store.set t.store item v) store;
  (* Proposals, then cutovers, then retirements, each ascending.  Only
     cutovers touch the index, and they advance in epoch order as the
     live ones did, so the index comes out as the live cutovers left
     it. *)
  List.iter
    (fun (epoch, _, rules) ->
      if epoch > 0 then propose_epoch_aux t ~journal:false ~epoch rules)
    epochs;
  List.iter
    (fun (epoch, phase, _) ->
      if epoch > 0 && phase <> Journal.Ep_proposed then
        cutover_epoch_aux t ~journal:false ~epoch)
    epochs;
  List.iter
    (fun (epoch, phase, _) ->
      if phase = Journal.Ep_retired then retire_epoch_aux t ~journal:false ~epoch)
    epochs
