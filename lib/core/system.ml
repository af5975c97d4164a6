module Sim = Cm_sim.Sim
module Net = Cm_net.Net
open Cm_rule

module Config = struct
  type t = {
    seed : int;
    latency : Net.latency option;
    fifo : bool;
    faults : Net.faults option;
    reliable : Reliable.config option;
    obs : Obs.t option;
    durability : Journal.durability;
    monitor : bool;
  }

  let default =
    {
      seed = 42;
      latency = None;
      fifo = true;
      faults = None;
      reliable = None;
      obs = None;
      durability = Journal.None;
      monitor = false;
    }

  let seeded seed = { default with seed }
  let with_latency latency t = { t with latency = Some latency }
  let with_fifo fifo t = { t with fifo }
  let with_faults faults t = { t with faults = Some faults }
  let with_reliable reliable t = { t with reliable = Some reliable }
  let with_obs obs t = { t with obs = Some obs }
  let with_durability durability t = { t with durability }
  let with_monitor monitor t = { t with monitor }
end

type guarantee_entry = {
  mutable guarantee : Guarantee.t;  (* a copy's follows its re-derived κ *)
  invalidated_by : (string * Msg.failure_kind, unit) Hashtbl.t;
      (* declared-site membership lives in [guarantees_by_site] buckets,
         so a failure probe never scans sites the entry doesn't mention *)
}

type guarantee_handle = guarantee_entry

module Guarantee_view = struct
  type entry = {
    gv_source : string;
    gv_target : string;
    gv_master_site : string;
    gv_site : string;
    gv_report : Derive.report;
    gv_kappa : float option;
    gv_valid : bool;
    gv_invalidations : (string * Msg.failure_kind) list;
    gv_epoch_survival : (int * Derive.survival) option;
  }
end

(* Runtime state behind one [Guarantee_view.entry]: the report is
   re-derived whenever the program changes, the handle's invalidation
   table mutates in place via the §5 failure machinery, and
   [cp_cutover] describes the most recent cutover only: its epoch and
   the metric verdict it replaced. *)
type copy_state = {
  cp_source : string;
  cp_target : string;
  cp_master_site : string;
  cp_site : string;
  mutable cp_report : Derive.report;
  cp_handle : guarantee_entry;
  mutable cp_cutover : (int * Derive.verdict) option;
}

type t = {
  sim : Sim.t;
  net : Msg.t Net.t;
  reliable : Reliable.t option;
  journals : Journal.registry option;
  recovery : Recovery.t option;
  trace : Trace.t;
  locator : Item.locator;
  obs : Obs.t;
  shells : (string, Shell.t) Hashtbl.t;  (* by primary site *)
  site_to_shell : (string, Shell.t) Hashtbl.t;  (* any handled site *)
  mutable interface_rules : Rule.t list;
  mutable strategy_rules : Rule.t list;
      (* the program every copy's report is derived from: reported and
         declared interface statements, and the running strategy *)
  guarantees_by_site : (string, guarantee_entry list ref) Hashtbl.t;
      (* declaration-ordered bucket per declared site, so a failure at a
         site touches only the guarantees that mention it *)
  copies : (string * string, copy_state) Hashtbl.t;  (* (source, target) *)
  mutable copy_order : (string * string) list;  (* declaration order *)
  monitor : Monitor.t option;
  partitioned : bool;
      (* a shard-slot system holds only its shard's sites: strategy
         state for foreign sites is skipped, not an error — the shard
         that owns the site handles it *)
}

let create ?(config = Config.default) ?shard_slot locator =
  (* A shard-slot system is one partition of a sharded world: its sim is
     seeded per shard (streams must not collide across wheels), its
     network draws are keyed per link (so fault/jitter decisions agree
     across shard layouts), and its trace ids are strided (globally
     unique without coordination).  Without a slot nothing changes. *)
  let sim =
    match shard_slot with
    | None -> Sim.create ~seed:config.Config.seed ()
    | Some (k, _) -> Sim.create ~seed:(config.Config.seed + ((k + 1) * 1000003)) ()
  in
  let obs = Option.value config.Config.obs ~default:Obs.noop in
  let net =
    Net.create ~sim ?latency:config.Config.latency ~fifo:config.Config.fifo
      ?faults:config.Config.faults
      ?draws:
        (match shard_slot with
         | None -> None
         | Some _ -> Some (Net.Keyed config.Config.seed))
      ~obs ()
  in
  let journals =
    match config.Config.durability with
    | Journal.None -> None
    | Journal.Journal | Journal.Journal_with_checkpoint ->
      Some (Journal.create_registry ~obs ())
  in
  let reliable =
    Option.map
      (fun rc -> Reliable.create ~sim ~net ~config:rc ~obs ?journals ())
      config.Config.reliable
  in
  let recovery =
    Option.map
      (fun reg ->
        Recovery.create ~sim ~net ?reliable ~journals:reg ~obs
          config.Config.durability)
      journals
  in
  let trace =
    match shard_slot with
    | None -> Trace.create ()
    | Some (k, n) -> Trace.create ~first_id:k ~stride:n ()
  in
  let monitor =
    if config.Config.monitor then begin
      let m = Monitor.create ~sim ~obs () in
      Monitor.attach m trace;
      Some m
    end
    else None
  in
  {
    sim;
    net;
    reliable;
    journals;
    recovery;
    trace;
    locator;
    obs;
    shells = Hashtbl.create 8;
    site_to_shell = Hashtbl.create 8;
    interface_rules = [];
    strategy_rules = [];
    guarantees_by_site = Hashtbl.create 8;
    copies = Hashtbl.create 8;
    copy_order = [];
    monitor;
    partitioned = shard_slot <> None;
  }

let sim t = t.sim
let net t = t.net
let reliable t = t.reliable
let recovery t = t.recovery
let journals t = t.journals

let journal t ~site =
  Option.map (fun reg -> Journal.for_site reg ~site) t.journals

let trace t = t.trace
let locator t = t.locator
let obs t = t.obs
let monitor t = t.monitor

(* With a recovery manager, crash/restart go through the full §5
   protocol; without one they degrade to the raw network operations —
   the pre-durability behaviour. *)
let crash_site t ~site =
  (match t.monitor with
  | Some m ->
    (* Monitor state is volatile: watchers homed at the crashed site
       lose their in-memory state and stop hearing the live feed until
       [restart_site] relearns them. *)
    ignore
      (Monitor.crash_wipe m ~owns:(fun item -> String.equal (t.locator item) site))
  | None -> ());
  match t.recovery with
  | Some r -> Recovery.crash r ~site
  | None -> Net.crash_site t.net ~site

(* The restarted site's monitor watchers relearn their state from the
   trace: under durability every trace event was journaled write-ahead
   by its shell, so the trace holds the journaled history, structured
   and in live-feed order — every site's, so cross-site guarantees (the
   common case: leader and follower live on different sites) see the
   leader's writes too. *)
let restart_site t ~site =
  (match t.recovery with
  | Some r -> Recovery.restart r ~site
  | None -> Net.restart_site t.net ~site);
  match t.monitor, t.journals with
  | Some m, Some _ -> Monitor.relearn m (Trace.events t.trace)
  | _ -> ()

let refresh_routing t =
  let peers = Hashtbl.fold (fun site _ acc -> site :: acc) t.shells [] in
  let route site =
    match Hashtbl.find_opt t.site_to_shell site with
    | Some shell -> Shell.site shell
    | None -> site
  in
  Hashtbl.iter
    (fun _ shell ->
      Shell.set_peer_sites shell peers;
      Shell.set_route shell route)
    t.shells

let guarantees_at t site =
  match Hashtbl.find_opt t.guarantees_by_site site with
  | Some bucket -> !bucket
  | None -> []

let note_failure t ~origin kind =
  (* Only the guarantees declared over [origin] can be affected; the
     per-site bucket preserves declaration order, so the invalidation
     log and counters fire in the same order the full scan produced. *)
  List.iter
    (fun entry ->
      let relevant =
        match kind with
        | Msg.Logical -> true
        | Msg.Metric -> Guarantee.is_metric entry.guarantee
      in
      if relevant && not (Hashtbl.mem entry.invalidated_by (origin, kind))
      then begin
        Hashtbl.replace entry.invalidated_by (origin, kind) ();
        Obs.incr t.obs "system_guarantee_invalidations"
          ~labels:[ ("site", origin); ("kind", Msg.failure_kind_to_string kind) ];
        Logs.warn (fun m ->
            m "guarantee %s invalidated by %s failure at %s"
              (Guarantee.name entry.guarantee)
              (Msg.failure_kind_to_string kind)
              origin)
      end)
    (guarantees_at t origin)

let note_reset t ~origin =
  Obs.incr t.obs "system_guarantee_resets" ~labels:[ ("site", origin) ];
  (* An entry can only hold [origin] in invalidated_by if it declared
     [origin] among its sites, so clearing its bucket suffices. *)
  List.iter
    (fun entry ->
      Hashtbl.remove entry.invalidated_by (origin, Msg.Logical);
      Hashtbl.remove entry.invalidated_by (origin, Msg.Metric))
    (guarantees_at t origin)

let add_shell t ~site =
  if Hashtbl.mem t.shells site then
    invalid_arg ("System.add_shell: duplicate site " ^ site);
  (* A new shell starts at epoch 0 with no proposal: after a cutover it
     would hold none of the epochs the other shells went through, and
     during a proposal the cutover would find it without the proposed
     epoch. *)
  let shells = Hashtbl.to_seq_values t.shells in
  if Seq.exists (fun sh -> Shell.rule_epoch sh <> 0) shells then
    invalid_arg ("System.add_shell: site " ^ site ^ " added after a rule-epoch cutover");
  if Seq.exists Shell.holds_proposal shells then
    invalid_arg ("System.add_shell: site " ^ site ^ " added while a rule epoch is proposed");
  let shell =
    Shell.create
      {
        Shell.ctx_sim = t.sim;
        ctx_net = t.net;
        ctx_reliable = t.reliable;
        ctx_trace = t.trace;
        ctx_locator = t.locator;
        ctx_obs = t.obs;
        ctx_journals = t.journals;
      }
      ~site
  in
  Hashtbl.replace t.shells site shell;
  Hashtbl.replace t.site_to_shell site shell;
  Shell.install_strategy shell t.strategy_rules;
  Shell.on_failure_notice shell (fun ~origin kind -> note_failure t ~origin kind);
  Shell.on_reset_notice shell (fun ~origin -> note_reset t ~origin);
  Option.iter (fun r -> Recovery.register_shell r shell) t.recovery;
  refresh_routing t;
  shell

let shell t ~site =
  match Hashtbl.find_opt t.site_to_shell site with
  | Some s -> s
  | None -> raise Not_found

(* Every declared copy's report is a function of the program: re-derive
   them all whenever the program changes. *)
let derive t ~source ~target =
  Derive.copy_guarantees ~interfaces:t.interface_rules ~strategy:t.strategy_rules
    ~source:(Interface.family source [ "n" ])
    ~target:(Interface.family target [ "n" ])

(* A copy's κ lives in its report; the live metric handle and the
   monitor family follow every re-derivation.  An unprovable copy's
   handle says κ 0.0, which routing skips as "unprovable" first. *)
let copy_metric ~source ~target report =
  Guarantee.Metric_follows
    ( { Guarantee.leader = Item.make source; follower = Item.make target },
      Option.value (Derive.kappa report) ~default:0.0 )

let set_report t cp report =
  cp.cp_report <- report;
  cp.cp_handle.guarantee <-
    copy_metric ~source:cp.cp_source ~target:cp.cp_target report;
  Option.iter
    (fun m ->
      Monitor.watch_copy m ~source:cp.cp_source ~target:cp.cp_target
        ~kappa:(Derive.kappa report))
    t.monitor

let rederive t =
  Hashtbl.iter
    (fun _ cp -> set_report t cp (derive t ~source:cp.cp_source ~target:cp.cp_target))
    t.copies

let register_translator t ~shell (cmi : Cmi.t) =
  Shell.attach_translator shell cmi;
  Hashtbl.replace t.site_to_shell cmi.Cmi.site shell;
  t.interface_rules <- t.interface_rules @ cmi.Cmi.interface_rules;
  refresh_routing t;
  rederive t

let declare_interfaces t rules =
  t.interface_rules <- t.interface_rules @ rules;
  rederive t

let interface_rules t = t.interface_rules

let period_of_rule rule =
  match rule.Rule.lhs.Template.name, rule.Rule.lhs.Template.args with
  | "P", [ Expr.Const v ] -> Some (Value.to_float v)
  | _ -> None

(* Strategy plumbing shared between config-time install and a runtime
   epoch cutover: where the auxiliary-item writes and the P-rules'
   periodic timers land.  They are resolved before anything changes, so
   an install or cutover refused for a placement leaves the system as it
   was; [Ok place] applies them.  A partitioned system skips what
   another shard owns: that shard writes the aux item and ticks the
   timer. *)
let placements t (strategy : Strategy.t) =
  let exception Unplaced of string in
  let shell_at site = Hashtbl.find_opt t.site_to_shell site in
  let unplaced msg = raise (Unplaced msg) in
  match
    let aux =
      List.filter_map
        (fun (item, v) ->
          let site = t.locator item in
          match shell_at site with
          | Some shell -> Some (shell, item, v)
          | None when t.partitioned -> None
          | None ->
            unplaced
              (Printf.sprintf "no shell handles site %s for aux item %s" site
                 (Item.to_string item)))
        strategy.Strategy.aux_init
    in
    let timers =
      List.filter_map
        (fun rule ->
          match period_of_rule rule with
          | None -> None
          | Some period -> (
            match Rule.lhs_site rule t.locator with
            | Some site -> (
              match shell_at site with
              | Some shell -> Some (shell, site, period)
              | None when t.partitioned -> None
              | None -> unplaced ("no shell for polling rule site " ^ site))
            | None -> unplaced ("polling rule " ^ rule.Rule.id ^ " has no resolvable site")))
        strategy.Strategy.rules
    in
    (aux, timers)
  with
  | exception Unplaced msg -> Error msg
  | aux, timers ->
    Ok
      (fun () ->
        List.iter (fun (shell, item, v) -> Shell.write_aux shell item v) aux;
        List.iter
          (fun (shell, site, period) -> Shell.register_periodic shell ~site ~period ())
          timers)

let placeable t strategy = Result.map ignore (placements t strategy)

let placements_exn ~caller t strategy =
  match placements t strategy with
  | Ok place -> place
  | Error msg -> invalid_arg (caller ^ ": " ^ msg)

(* §4.1 in one pass, so that no shell scans the whole program: each
   rule goes to the shell of its LHS site, a site-free rule to every
   shell, each shell's rules in program order.  A rule whose site has no
   shell yet goes nowhere: [add_shell] hands the new shell its share of
   the running strategy. *)
let distribute t rules =
  let shares = Hashtbl.create 16 in
  let give shell rule =
    let share = Option.value (Hashtbl.find_opt shares (Shell.site shell)) ~default:[] in
    Hashtbl.replace shares (Shell.site shell) (rule :: share)
  in
  List.iter
    (fun rule ->
      match Rule.lhs_site rule t.locator with
      | None -> Hashtbl.iter (fun _ shell -> give shell rule) t.shells
      | Some s -> Option.iter (fun shell -> give shell rule) (Hashtbl.find_opt t.site_to_shell s))
    rules;
  Hashtbl.iter
    (fun site share -> Shell.install_strategy (Hashtbl.find t.shells site) (List.rev share))
    shares

let install t (strategy : Strategy.t) =
  let program = t.strategy_rules @ strategy.Strategy.rules in
  Option.iter
    (fun id -> invalid_arg ("System.install: duplicate rule id " ^ id))
    (Rule.duplicate_id program);
  let place = placements_exn ~caller:"System.install" t strategy in
  Obs.incr t.obs "system_strategy_installs"
    ~labels:[ ("strategy", strategy.Strategy.strategy_name) ];
  t.strategy_rules <- program;
  distribute t strategy.Strategy.rules;
  place ();
  rederive t

let shells t =
  Hashtbl.fold (fun site shell acc -> (site, shell) :: acc) t.shells []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let strategy_rules t = t.strategy_rules
let all_rules t = t.interface_rules @ t.strategy_rules

let declare_guarantee t ~sites guarantee =
  let site_set = Hashtbl.create (max 1 (List.length sites)) in
  List.iter (fun s -> Hashtbl.replace site_set s ()) sites;
  let entry = { guarantee; invalidated_by = Hashtbl.create 4 } in
  (* Bucket under each distinct declared site, appended in declaration
     order (iterate the deduplicated set, not the raw list, so a site
     repeated in [sites] buckets the entry once). *)
  Hashtbl.iter
    (fun site () ->
      match Hashtbl.find_opt t.guarantees_by_site site with
      | Some bucket -> bucket := !bucket @ [ entry ]
      | None -> Hashtbl.replace t.guarantees_by_site site (ref [ entry ]))
    site_set;
  entry

let guarantee_valid entry = Hashtbl.length entry.invalidated_by = 0
let guarantee_of entry = entry.guarantee

let invalidations entry =
  (* Sorted keys: the hashtable's iteration order must not leak. *)
  Hashtbl.fold (fun inv () acc -> inv :: acc) entry.invalidated_by []
  |> List.sort compare

let declare_copies t pairs =
  List.iter
    (fun (source, target) ->
      let key = (source, target) in
      if not (Hashtbl.mem t.copies key) then begin
        let master_site = t.locator (Item.make source) in
        let site = t.locator (Item.make target) in
        let report = derive t ~source ~target in
        let cp =
          {
            cp_source = source;
            cp_target = target;
            cp_master_site = master_site;
            cp_site = site;
            cp_report = report;
            (* The live handle is the metric guarantee: it is what §5
               failures invalidate (metric guarantees fall to both
               failure kinds), and what the read router polls per
               decision. *)
            cp_handle =
              declare_guarantee t ~sites:[ master_site; site ]
                (copy_metric ~source ~target report);
            cp_cutover = None;
          }
        in
        Hashtbl.replace t.copies key cp;
        t.copy_order <- t.copy_order @ [ key ];
        (* Under a monitored configuration every declared copy gets
           streaming §3.3 monitors: the three logical forms per
           parameter vector, plus metric-follows and the live staleness
           verdict while κ is proved. *)
        set_report t cp report
      end)
    pairs

let declared_copies t = List.map (fun key -> Hashtbl.find t.copies key) t.copy_order

let cutover t ~epoch (strategy : Strategy.t) =
  let place = placements_exn ~caller:"System.cutover" t strategy in
  List.iter (fun (_, shell) -> Shell.cutover_epoch shell ~epoch) (shells t);
  (* The incoming strategy starts from its own auxiliary state: a stale
     cache inherited across epochs could wrongly skip a forward (an
     actual leads violation), so aux items are re-initialized. *)
  place ();
  t.strategy_rules <- strategy.Strategy.rules;
  List.map
    (fun cp ->
      let before = cp.cp_report in
      let after = derive t ~source:cp.cp_source ~target:cp.cp_target in
      set_report t cp after;
      cp.cp_cutover <- Some (epoch, before.Derive.metric_follows);
      (cp.cp_source, cp.cp_target, before, after))
    (declared_copies t)

let entry_of_copy cp =
  {
    Guarantee_view.gv_source = cp.cp_source;
    gv_target = cp.cp_target;
    gv_master_site = cp.cp_master_site;
    gv_site = cp.cp_site;
    gv_report = cp.cp_report;
    gv_kappa = Derive.kappa cp.cp_report;
    gv_valid = guarantee_valid cp.cp_handle;
    gv_invalidations = invalidations cp.cp_handle;
    gv_epoch_survival =
      Option.map
        (fun (epoch, metric_before) ->
          (epoch, Derive.survival metric_before cp.cp_report.Derive.metric_follows))
        cp.cp_cutover;
  }

let copy_view t ~source ~target =
  Option.map entry_of_copy (Hashtbl.find_opt t.copies (source, target))

let guarantee_view t = List.map entry_of_copy (declared_copies t)

(* The skip-reason vocabulary is part of the routing contract: the
   router exports it as the [route_replica_skips] reason label and the
   fallback-matrix tests assert on it.  Router hot path, per routed
   read: no entry record, no sorted invalidation list. *)
let copy_qualifies ?slo t ~source ~target =
  match Hashtbl.find_opt t.copies (source, target) with
  | None -> Error "undeclared"
  | Some cp -> (
    match cp.cp_report.Derive.metric_follows, cp.cp_cutover with
    (* After a cutover an unprovable metric guarantee is the epoch's
       doing, and "epoch-lost" is the reason that explains it. *)
    | Derive.Unprovable _, Some _ -> Error "epoch-lost"
    | Derive.Unprovable _, None | Derive.Proved { kappa = None; _ }, _ ->
      Error "unprovable"
    | Derive.Proved { kappa = Some kappa; _ }, _ ->
      if not (guarantee_valid cp.cp_handle) then Error "invalidated"
      else (
        (* Inclusive on the boundary: a copy whose derived κ equals the
           SLO satisfies "within κ" — Derive's Sampled-channel κ already
           includes the sampling period, so both sides of the comparison
           are in the same end-to-end-seconds units. *)
        match slo with
        | Some s when not (kappa <= s) -> Error "over-slo"
        | _ -> Ok kappa))

let run t ~until = Sim.run ~until t.sim

let timeline ?initial t = Timeline.of_trace ?initial t.trace

let check_guarantee ?initial ?ignore_after t guarantee =
  let tl = timeline ?initial t in
  Guarantee.check ?ignore_after ~horizon:(Sim.now t.sim) tl guarantee

let check_validity ?initial t =
  Validity.check ?initial ~rules:(all_rules t) ~locator:t.locator t.trace
