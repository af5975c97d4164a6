(* Experiment harness: regenerates every reproduced result of the paper.

   The ICDE'96 paper has no quantitative tables — its "results" are the
   architecture and the qualitative claims about which guarantees hold
   under which interface/strategy combinations (§4.2.3, §5, §6).  Each
   experiment below is the executable form of one such claim (see
   DESIGN.md §6 and EXPERIMENTS.md); the harness prints one table per
   experiment.  Timing the toolkit itself is perf/cmbench's job.

   Usage:  dune exec bench/main.exe                 (all experiments)
           dune exec bench/main.exe -- --exp e4     (one experiment)
           dune exec bench/main.exe -- --smoke      (reduced E17/E20 sweeps) *)

open Cm_rule
module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Guarantee = Cm_core.Guarantee
module Strategy = Cm_core.Strategy
module Interface = Cm_core.Interface
module Tr_rel = Cm_core.Tr_relational
module Db = Cm_relational.Database
module Health = Cm_sources.Health
module Payroll = Cm_workload.Payroll
module Bank = Cm_workload.Bank
module Banking_day = Cm_workload.Banking_day
module Stanford = Cm_workload.Stanford
module Table = Cm_util.Table
module Stats = Cm_util.Stats
module Obs = Cm_core.Obs
module Fabric = Cm_shard.Shard.Fabric

let yes_no b = Table.cell_bool b

(* Registry snapshots collected while experiments run; written out as one
   JSON array by --json FILE (CI uploads it as an artifact). *)
let json_snapshots : (string * string) list ref = ref []

let record_snapshot label obs =
  json_snapshots := !json_snapshots @ [ (label, Obs.snapshot_to_json obs) ]

let write_snapshots path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (label, json) ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc "{\"experiment\":\"%s\",\"snapshot\":%s}" label
        (String.trim json))
    !json_snapshots;
  output_string oc "\n]\n";
  close_out oc

let check ?ignore_after ~horizon tl g = Guarantee.check ?ignore_after ~horizon tl g

(* Set by --smoke: reduced E17/E20 sweeps sized for CI. *)
let smoke_mode = ref false

(* ------------------------------------------------------------------ *)
(* E1: propagation validates guarantees (1)-(4)  (§4.2.3, first part) *)
(* ------------------------------------------------------------------ *)

let exp_e1 () =
  let p = Payroll.create ~config:(Cm_core.System.Config.seeded 101) ~employees:20 () in
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:10.0 ~until:3000.0;
  Sys_.run p.Payroll.system ~until:3600.0;
  let tl = Sys_.timeline ~initial:p.Payroll.initial p.Payroll.system in
  let table =
    Table.create
      ~title:
        "E1: notify+write propagation, 20 employees, Poisson updates (paper: all hold)"
      ~columns:[ "guarantee"; "paper"; "measured"; "obligations" ]
  in
  let all_hold g =
    List.fold_left
      (fun (ok, points) emp ->
        let r =
          check ~horizon:3600.0 ~ignore_after:3000.0 tl
            (List.nth (Payroll.guarantees p ~emp) g)
        in
        (ok && r.Guarantee.holds, points + r.Guarantee.checked_points))
      (true, 0) p.Payroll.employees
  in
  List.iteri
    (fun i name ->
      let ok, points = all_hold i in
      Table.add_row table [ name; "holds"; yes_no ok; string_of_int points ])
    [ "(1) follows"; "(2) leads"; "(3) strictly-follows"; "(4) metric-follows" ];
  let violations = Sys_.check_validity p.Payroll.system in
  Table.add_row table
    [ "appendix-A validity"; "0 violations";
      string_of_int (List.length violations) ^ " violations"; "-" ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E2: polling misses updates  (§4.2.3, second part)                   *)
(* ------------------------------------------------------------------ *)

let exp_e2 () =
  let table =
    Table.create
      ~title:
        "E2: polling strategy — guarantee (2) fails; miss rate grows with \
         update rate x poll period (paper: (2) invalid under polling)"
      ~columns:
        [ "poll period (s)"; "update interval (s)"; "(1)"; "(2)"; "(3)"; "miss rate" ]
  in
  List.iter
    (fun period ->
      List.iter
        (fun interarrival ->
          let p =
            Payroll.create
              ~config:
                (Sys_.Config.seeded
                   (200 + int_of_float (period +. interarrival)))
              ~employees:1 ~mode:Payroll.Read_only ()
          in
          Payroll.install_polling ~period p;
          Payroll.random_updates p ~mean_interarrival:interarrival ~until:3000.0;
          Sys_.run p.Payroll.system ~until:3600.0;
          let tl = Sys_.timeline ~initial:p.Payroll.initial p.Payroll.system in
          let src = Payroll.source_item "e1" and tgt = Payroll.target_item "e1" in
          let pair = { Guarantee.leader = src; follower = tgt } in
          let g1 = check ~horizon:3600.0 tl (Guarantee.Follows pair) in
          let g2 =
            check ~horizon:3600.0 ~ignore_after:3000.0 tl (Guarantee.Leads pair)
          in
          let g3 = check ~horizon:3600.0 tl (Guarantee.Strictly_follows pair) in
          (* Miss rate: fraction of source values (before the drain) never
             reflected at the target. *)
          let source_values =
            List.filter (fun (t, _) -> t <= 3000.0) (Timeline.values_taken tl src)
          in
          let target_values = Timeline.values_taken tl tgt in
          let missed =
            List.filter
              (fun (t1, v) ->
                not
                  (List.exists
                     (fun (t2, v') -> t2 > t1 && Value.equal v v')
                     target_values))
              source_values
          in
          let rate =
            if source_values = [] then 0.0
            else float_of_int (List.length missed) /. float_of_int (List.length source_values)
          in
          Table.add_row table
            [
              Table.cell_f ~digits:0 period;
              Table.cell_f ~digits:0 interarrival;
              yes_no g1.Guarantee.holds;
              yes_no g2.Guarantee.holds;
              yes_no g3.Guarantee.holds;
              Table.cell_pct rate;
            ])
        [ 10.0; 60.0 ])
    [ 30.0; 120.0; 300.0 ];
  Table.print table;
  print_endline
    "Shape check: (1) and (3) always hold; (2) fails whenever several updates\n\
     land in one polling interval, and the miss rate rises with period/rate.\n"

(* ------------------------------------------------------------------ *)
(* E3: metric bound kappa follows from the interface deltas (§3.3.1)   *)
(* ------------------------------------------------------------------ *)

(* The κ Derive proves for a payroll world's salary copy, once the
   copy's target is declared free of spontaneous writes. *)
let proved_kappa what (p : Payroll.t) =
  Sys_.declare_interfaces p.Payroll.system
    [ Interface.no_spontaneous_write Payroll.target_pattern ];
  Sys_.declare_copies p.Payroll.system [ ("Salary1", "Salary2") ];
  match Sys_.copy_qualifies p.Payroll.system ~source:"Salary1" ~target:"Salary2" with
  | Ok k -> k
  | Error e -> failwith (what ^ ": notify copy has no kappa: " ^ e)

let exp_e3 () =
  let table =
    Table.create
      ~title:
        "E3: observed staleness vs derived kappa (kappa = notify + rule + write \
         bounds; paper: metric guarantee (4) holds for appropriate kappa)"
      ~columns:
        [ "notify lat (s)"; "net lat (s)"; "kappa bound"; "max staleness"; "(4) holds" ]
  in
  List.iter
    (fun notify_latency ->
      List.iter
        (fun net_base ->
          let p =
            Payroll.create
              ~config:
                Sys_.Config.(
                  seeded (300 + int_of_float (notify_latency *. 10.0))
                  |> with_latency
                       { Net.base = net_base; jitter = net_base /. 5.0 })
              ~employees:3 ~notify_latency ~notify_delta:(notify_latency *. 2.0)
              ()
          in
          Payroll.install_propagation ~delta:(5.0 +. (2.0 *. net_base)) p;
          Payroll.random_updates p ~mean_interarrival:30.0 ~until:2000.0;
          Sys_.run p.Payroll.system ~until:2500.0;
          let tl = Sys_.timeline ~initial:p.Payroll.initial p.Payroll.system in
          let kappa = proved_kappa "E3" p in
          (* measured staleness per source change *)
          let staleness =
            List.concat_map
              (fun emp ->
                let src = Payroll.source_item emp and tgt = Payroll.target_item emp in
                List.filter_map
                  (fun (t1, v) ->
                    List.find_map
                      (fun (t2, v') ->
                        if t2 >= t1 && Value.equal v v' then Some (t2 -. t1) else None)
                      (Timeline.values_taken tl tgt)
                    |> fun x -> if t1 <= 2000.0 then x else None)
                  (Timeline.values_taken tl src))
              p.Payroll.employees
          in
          let max_staleness = snd (Stats.min_max staleness) in
          let holds =
            List.for_all
              (fun emp ->
                let r =
                  check ~horizon:2500.0 tl
                    (Guarantee.Metric_follows
                       ( {
                           Guarantee.leader = Payroll.source_item emp;
                           follower = Payroll.target_item emp;
                         },
                         kappa ))
                in
                r.Guarantee.holds)
              p.Payroll.employees
          in
          Table.add_row table
            [
              Table.cell_f notify_latency;
              Table.cell_f net_base;
              Table.cell_f kappa;
              Table.cell_f max_staleness;
              yes_no holds;
            ])
        [ 0.05; 0.5 ])
    [ 0.5; 1.0; 2.0; 5.0 ];
  Table.print table;
  print_endline
    "Shape check: measured staleness is always below the derived kappa, and\n\
     both scale with the interface latencies.\n"

(* ------------------------------------------------------------------ *)
(* E4: Demarcation Protocol vs centralized coordination (§6.1)         *)
(* ------------------------------------------------------------------ *)

(* Baseline: a central coordinator validates every X update globally.
   Two messages and a round trip per operation, no locality at all. *)
type coord_msg = Coord_req of int * float | Coord_reply of float

let centralized_run ~seed ~ops =
  let sim = Sim.create ~seed () in
  let net = Net.create ~sim () in
  let x = ref 0 and y = ref 100 in
  let violations = ref 0 in
  let completed = ref 0 in
  let latencies = ref [] in
  Net.register net ~site:"coordinator" (fun msg ->
      match msg with
      | Coord_req (v, started) ->
        if v <= !y then begin
          x := v;
          if !x > !y then incr violations
        end;
        Net.send net ~from_site:"coordinator" ~to_site:"branch" (Coord_reply started)
      | Coord_reply _ -> ());
  Net.register net ~site:"branch" (fun msg ->
      match msg with
      | Coord_reply started ->
        incr completed;
        latencies := (Sim.now sim -. started) :: !latencies
      | Coord_req _ -> ());
  let rng = Cm_util.Prng.split (Sim.rng sim) in
  for i = 1 to ops do
    Sim.schedule_at sim (float_of_int i *. 10.0) (fun () ->
        let v = Cm_util.Prng.int rng 100 in
        Net.send net ~from_site:"branch" ~to_site:"coordinator"
          (Coord_req (v, Sim.now sim)))
  done;
  Sim.run sim;
  (Net.messages_sent net, !completed, Stats.mean !latencies, !violations)

let demarcation_run ~seed ~policy ~ops =
  let obs = Obs.create () in
  let b =
    Bank.create ~config:Sys_.Config.(seeded seed |> with_obs obs) ~policy ()
  in
  let sim = Sys_.sim b.Bank.system in
  let rng = Cm_util.Prng.split (Sim.rng sim) in
  let requested = ref 0 in
  let completed = ref 0 in
  let latencies = ref [] in
  for i = 1 to ops do
    Sim.schedule_at sim (float_of_int i *. 10.0) (fun () ->
        let v = Cm_util.Prng.int rng 100 in
        let started = Sim.now sim in
        match Bank.try_set_x b v with
        | Bank.Applied ->
          incr completed;
          latencies := (Sim.now sim -. started) :: !latencies
        | Bank.Requested ->
          incr requested;
          (* Retry once after the limit-change round. *)
          Sim.schedule sim ~delay:5.0 (fun () ->
              match Bank.try_set_x b v with
              | Bank.Applied ->
                incr completed;
                latencies := (Sim.now sim -. started) :: !latencies
              | Bank.Requested -> ()))
  done;
  Sys_.run b.Bank.system ~until:(float_of_int ops *. 10.0 +. 100.0) ;
  let tl = Sys_.timeline ~initial:(Bank.initial b) b.Bank.system in
  let g = check ~horizon:(float_of_int ops *. 10.0 +. 100.0) tl Bank.always_leq_guarantee in
  ( Obs.counter_total obs "net_sent",
    !completed,
    Stats.mean !latencies,
    !requested,
    g.Guarantee.holds )

let exp_e4 () =
  let ops = 200 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E4: X <= Y over %d random X updates — Demarcation vs centralized \
            (paper: constraint always valid, local ops need no communication)"
           ops)
      ~columns:
        [ "scheme"; "msgs"; "msgs/op"; "mean latency (s)"; "limit reqs"; "X<=Y always" ]
  in
  let msgs_c, _done_c, lat_c, viol_c = centralized_run ~seed:41 ~ops in
  Table.add_row table
    [
      "centralized coordinator";
      string_of_int msgs_c;
      Table.cell_f (float_of_int msgs_c /. float_of_int ops);
      Table.cell_f ~digits:3 lat_c;
      "n/a";
      yes_no (viol_c = 0);
    ];
  List.iter
    (fun (policy, name) ->
      let msgs, _completed, lat, requested, holds =
        demarcation_run ~seed:42 ~policy ~ops
      in
      Table.add_row table
        [
          name;
          string_of_int msgs;
          Table.cell_f (float_of_int msgs /. float_of_int ops);
          Table.cell_f ~digits:3 lat;
          string_of_int requested;
          yes_no holds;
        ])
    [
      (Cm_core.Demarcation.Conservative, "demarcation (conservative)");
      (Cm_core.Demarcation.Eager, "demarcation (eager)");
    ];
  Table.print table;
  print_endline
    "Shape check: demarcation sends far fewer messages per operation (most\n\
     updates stay inside the local limit) and eager grants need fewer\n\
     limit-change rounds than conservative ones; the constraint never breaks.\n"

(* ------------------------------------------------------------------ *)
(* E5: referential integrity violated at most `bound` seconds (§6.2)   *)
(* ------------------------------------------------------------------ *)

let exp_e5 () =
  let table =
    Table.create
      ~title:
        "E5: referential integrity — orphan windows stay within the bound \
         (paper: violation tolerated for a bounded period only)"
      ~columns:
        [ "papers"; "churn interval (s)"; "max orphan window (s)"; "bound"; "holds" ]
  in
  List.iter
    (fun (papers, interval) ->
      let s = Stanford.create ~config:(Cm_core.System.Config.seeded (500 + papers)) ~people:2 () in
      let sim = Sys_.sim s.Stanford.system in
      let rng = Cm_util.Prng.split (Sim.rng sim) in
      let keys = List.init papers (fun i -> "paper" ^ string_of_int i) in
      List.iteri
        (fun i key ->
          let at = 10.0 +. (float_of_int i *. interval) in
          Sim.schedule_at sim at (fun () ->
              Stanford.publish_paper s ~key ~title:("T" ^ key) ~authors:[ "widom" ]);
          if Cm_util.Prng.bool rng then
            Sim.schedule_at sim (at +. (interval /. 2.0)) (fun () ->
                Stanford.withdraw_paper s ~key))
        keys;
      let horizon = 10.0 +. (float_of_int papers *. interval) +. 300.0 in
      Sys_.run s.Stanford.system ~until:horizon;
      let tl = Sys_.timeline s.Stanford.system in
      let bound = 60.0 in
      let holds, max_window =
        List.fold_left
          (fun (ok, worst) key ->
            let r =
              check ~horizon tl (Stanford.refint_guarantee ~key ~bound)
            in
            (* crude measured window: find first INS -> first GPaper write *)
            let ant = Item.make "BibPaper" ~params:[ Value.Str key ] in
            let con = Item.make "GPaper" ~params:[ Value.Str key ] in
            let window =
              match Timeline.changes tl ant, Timeline.changes tl con with
              | (t1, Some _) :: _, (t2, Some _) :: _ -> t2 -. t1
              | _ -> 0.0
            in
            (ok && r.Guarantee.holds, Float.max worst window))
          (true, 0.0) keys
      in
      Table.add_row table
        [
          string_of_int papers;
          Table.cell_f ~digits:0 interval;
          Table.cell_f max_window;
          Table.cell_f ~digits:0 bound;
          yes_no holds;
        ])
    [ (10, 120.0); (20, 60.0); (40, 30.0) ];
  Table.print table

(* ------------------------------------------------------------------ *)
(* E6: monitor strategy's Flag/Tb guarantee (§6.3)                     *)
(* ------------------------------------------------------------------ *)

let monitor_run ~seed ~notify_latency ~moves =
  let locator item =
    match item.Item.base with
    | "RobotPos" -> "field"
    | "PlotPos" -> "plotter"
    | _ -> "console"
  in
  let system = Sys_.create ~config:(Cm_core.System.Config.seeded seed) locator in
  let sh_field = Sys_.add_shell system ~site:"field" in
  let sh_plot = Sys_.add_shell system ~site:"plotter" in
  let sh_console = Sys_.add_shell system ~site:"console" in
  let sim = Sys_.sim system in
  let make ~site ~shell ~base =
    let store = Cm_sources.Objstore.create () in
    Cm_sources.Objstore.put store ~cls:"pos" ~id:"r" [ ("coord", Value.Int 0) ];
    let tr =
      Cm_core.Tr_objstore.create ~sim ~store ~site
        ~emit:(Shell.emitter_for shell ~site)
        ~report:(fun k -> Shell.report_failure shell k)
        ~notify_latency ~notify_delta:(notify_latency *. 4.0)
        [
          {
            Cm_core.Tr_objstore.base;
            cls = "pos";
            attr = "coord";
            writable = false;
            notify = Cm_core.Tr_objstore.Plain;
          };
        ]
    in
    Sys_.register_translator system ~shell (Cm_core.Tr_objstore.cmi tr);
    tr
  in
  let tr_field = make ~site:"field" ~shell:sh_field ~base:"RobotPos" in
  let tr_plot = make ~site:"plotter" ~shell:sh_plot ~base:"PlotPos" in
  let x = Expr.Item ("RobotPos", [ Expr.Const (Value.Str "r") ]) in
  let y = Expr.Item ("PlotPos", [ Expr.Const (Value.Str "r") ]) in
  Sys_.install system (Strategy.monitor ~prefix:"m" ~delta:(notify_latency *. 4.0) ~x ~y ());
  let aux = Strategy.monitor_items ~prefix:"m" () in
  let rng = Cm_util.Prng.split (Sim.rng sim) in
  let move tr v =
    ignore
      (Cm_core.Tr_objstore.set_app tr
         (Item.make (if tr == tr_field then "RobotPos" else "PlotPos")
            ~params:[ Value.Str "r" ])
         (Value.Int v))
  in
  for i = 1 to moves do
    let t = float_of_int i *. 20.0 in
    let v = Cm_util.Prng.int rng 1000 in
    Sim.schedule_at sim t (fun () -> move tr_field v);
    Sim.schedule_at sim (t +. 1.0 +. Cm_util.Prng.float rng 2.0) (fun () ->
        move tr_plot v)
  done;
  (* Sample flag over time to compute coverage. *)
  let flag_true = ref 0 and samples = ref 0 in
  Sim.every sim ~period:0.5
    (fun () ->
      incr samples;
      match Shell.read_aux sh_console aux.Strategy.flag with
      | Some (Value.Bool true) -> incr flag_true
      | _ -> ())
    ~cancel:(fun () -> false);
  let horizon = float_of_int moves *. 20.0 +. 30.0 in
  Sys_.run system ~until:horizon;
  let tl =
    Sys_.timeline system
      ~initial:
        [
          (Item.make "RobotPos" ~params:[ Value.Str "r" ], Value.Int 0);
          (Item.make "PlotPos" ~params:[ Value.Str "r" ], Value.Int 0);
        ]
  in
  let kappa = (notify_latency *. 4.0) +. (notify_latency *. 4.0) +. 1.0 in
  let g =
    Guarantee.Monitor_window
      {
        flag = aux.Strategy.flag;
        tb = aux.Strategy.tb;
        x = Item.make "RobotPos" ~params:[ Value.Str "r" ];
        y = Item.make "PlotPos" ~params:[ Value.Str "r" ];
        kappa;
      }
  in
  let r = check ~horizon tl g in
  let coverage = float_of_int !flag_true /. float_of_int (max 1 !samples) in
  (r.Guarantee.holds, r.Guarantee.checked_points, coverage, kappa)

let exp_e6 () =
  let table =
    Table.create
      ~title:
        "E6: monitor strategy (read-only sources) — Flag/Tb guarantee \
         (paper §6.3: conditional guarantee via auxiliary CM data)"
      ~columns:
        [ "notify latency (s)"; "kappa"; "guarantee holds"; "obligations"; "flag uptime" ]
  in
  List.iter
    (fun notify_latency ->
      let holds, points, coverage, kappa =
        monitor_run ~seed:600 ~notify_latency ~moves:60
      in
      Table.add_row table
        [
          Table.cell_f notify_latency;
          Table.cell_f kappa;
          yes_no holds;
          string_of_int points;
          Table.cell_pct coverage;
        ])
    [ 0.25; 0.5; 1.0; 2.0 ];
  Table.print table;
  print_endline
    "Shape check: the guarantee holds at every latency; slower notifications\n\
     need a larger kappa and leave the flag down longer (lower uptime).\n"

(* ------------------------------------------------------------------ *)
(* E7: failure handling (§5)                                           *)
(* ------------------------------------------------------------------ *)

let exp_e7 () =
  let table =
    Table.create
      ~title:
        "E7: failure handling — metric failures invalidate only metric \
         guarantees; logical failures invalidate both; silent notify loss is \
         undetectable (§5)"
      ~columns:
        [
          "injected failure";
          "notices";
          "(1) status";
          "(4) status";
          "(2) actually holds";
        ]
  in
  let run mode =
    let config =
      let base = Cm_core.System.Config.seeded 700 in
      if mode = `Crash_recover then
        (* The recovery row needs the reliable transport (so undelivered
           firings are retransmitted) and a write-ahead journal (so the
           restarted site remembers them, §5). *)
        Cm_core.System.Config.(
          base
          |> with_reliable Cm_core.Reliable.default_config
          |> with_durability Cm_core.Journal.Journal_with_checkpoint)
      else base
    in
    let p = Payroll.create ~config ~employees:3 () in
    Payroll.install_propagation p;
    let pair =
      {
        Guarantee.leader = Payroll.source_item "e1";
        follower = Payroll.target_item "e1";
      }
    in
    let g1 =
      Sys_.declare_guarantee p.Payroll.system ~sites:[ "sf"; "ny" ]
        (Guarantee.Follows pair)
    in
    let g4 =
      Sys_.declare_guarantee p.Payroll.system ~sites:[ "sf"; "ny" ]
        (Guarantee.Metric_follows (pair, 10.0))
    in
    let notices = ref 0 in
    Shell.on_failure_notice p.Payroll.shell_a (fun ~origin:_ _ -> incr notices);
    (* Inject at t=50 on the source translator (notifications) or the
       target (writes), depending on the mode. *)
    Sim.schedule_at (Sys_.sim p.Payroll.system) 50.0 (fun () ->
        match mode with
        | `None | `Crash_recover -> ()
        | `Degraded ->
          Health.set (Tr_rel.health p.Payroll.tr_b)
            (Health.Degraded { extra_latency = 30.0 })
        | `Down -> Health.set (Tr_rel.health p.Payroll.tr_b) Health.Down
        | `Silent -> Health.set (Tr_rel.health p.Payroll.tr_a) Health.Silent_drop);
    Payroll.schedule_update p ~at:60.0 ~emp:"e1" ~salary:7777;
    Payroll.schedule_update p ~at:80.0 ~emp:"e1" ~salary:8888;
    if mode = `Crash_recover then begin
      (* The source site crashes after the last update but before its
         firing reaches the target.  The journal remembers the
         undelivered notification; the §5 restart protocol replays it,
         re-queues it under the new incarnation, and reports the crash
         as a metric failure. *)
      Sim.schedule_at (Sys_.sim p.Payroll.system) 80.5 (fun () ->
          Sys_.crash_site p.Payroll.system ~site:Payroll.site_a);
      Sim.schedule_at (Sys_.sim p.Payroll.system) 200.0 (fun () ->
          Sys_.restart_site p.Payroll.system ~site:Payroll.site_a)
    end;
    Sys_.run p.Payroll.system ~until:300.0;
    let tl = Sys_.timeline ~initial:p.Payroll.initial p.Payroll.system in
    let leads =
      check ~horizon:300.0 ~ignore_after:100.0 tl (Guarantee.Leads pair)
    in
    let status h = if Sys_.guarantee_valid h then "valid" else "invalidated" in
    ( string_of_int !notices,
      status g1,
      status g4,
      yes_no leads.Guarantee.holds )
  in
  List.iter
    (fun (mode, label) ->
      let notices, s1, s4, leads = run mode in
      Table.add_row table [ label; notices; s1; s4; leads ])
    [
      (`None, "none (baseline)");
      (`Degraded, "metric (writes +30 s)");
      (`Down, "logical (target down)");
      (`Silent, "silent notify loss");
      (`Crash_recover, "crash + journal recovery");
    ];
  Table.print table;
  print_endline
    "Shape check: the silent-drop row shows zero notices and 'valid' statuses\n\
     while guarantee (2) is in fact broken — the undetectable failure the\n\
     paper warns about: such sources should not be given notify interfaces.\n"

(* ------------------------------------------------------------------ *)
(* E8: periodic guarantee in the banking scenario (§6.4)               *)
(* ------------------------------------------------------------------ *)

let exp_e8 () =
  let table =
    Table.create
      ~title:
        "E8: end-of-day banking — copies equal 17:15-08:00 daily (§6.4)"
      ~columns:[ "configuration"; "days"; "accounts"; "guarantee holds" ]
  in
  let run ~degrade =
    let b = Banking_day.create ~config:(Cm_core.System.Config.seeded 800) ~accounts:4 () in
    if degrade then
      (* Head-office writes take an extra hour: propagation misses the
         17:15 window start and the periodic guarantee must fail. *)
      Sim.schedule_at (Sys_.sim b.Banking_day.system) 1.0 (fun () ->
          Health.set
            (Tr_rel.health b.Banking_day.tr_ho)
            (Health.Degraded { extra_latency = 3600.0 }));
    Banking_day.run_days b ~days:3 ~updates_per_day:15;
    let tl = Sys_.timeline ~initial:b.Banking_day.initial b.Banking_day.system in
    List.for_all
      (fun acct ->
        (check ~horizon:(3.0 *. Banking_day.day) tl (Banking_day.guarantee acct))
          .Guarantee.holds)
      b.Banking_day.accounts
  in
  Table.add_row table
    [ "normal (15 min propagation)"; "3"; "4"; yes_no (run ~degrade:false) ];
  Table.add_row table
    [ "degraded (+1 h writes)"; "3"; "4"; yes_no (run ~degrade:true) ];
  Table.print table;
  print_endline
    "Shape check: the periodic guarantee holds when propagation fits the\n\
     15-minute budget and fails when the head office is too slow — the\n\
     guarantee is a real claim, not a tautology.\n"

(* ------------------------------------------------------------------ *)
(* E10: conditional notify reduces message traffic (§3.1.1)            *)
(* ------------------------------------------------------------------ *)

let exp_e10 () =
  (* (4) is checked at the κ Derive proves for the unfiltered notify
     configuration: the bound a filtering source would have to keep to
     stand in for it. *)
  let kappa =
    let p = Payroll.create ~config:(Cm_core.System.Config.seeded 1000) ~employees:1 () in
    Payroll.install_propagation p;
    proved_kappa "E10" p
  in
  let table =
    Table.create
      ~title:
        "E10: conditional notify — in-source filtering cuts notifications \
         (paper §3.1.1: 'in addition to reducing communication costs')"
      ~columns:
        [ "threshold"; "updates"; "notifications"; "reduction"; "(1) holds"; "(2) holds";
          Printf.sprintf "(4) holds (kappa %g)" kappa ]
  in
  let updates = 300 in
  List.iter
    (fun threshold ->
      let mode =
        if threshold = 0.0 then Payroll.Notify else Payroll.Conditional threshold
      in
      let p = Payroll.create ~config:(Cm_core.System.Config.seeded 1000) ~employees:1 ~mode () in
      Payroll.install_propagation p;
      let sim = Sys_.sim p.Payroll.system in
      let rng = Cm_util.Prng.split (Sim.rng sim) in
      (* Random walk: mostly small moves, occasionally large ones. *)
      let current = ref 1000 in
      for i = 1 to updates do
        Sim.schedule_at sim (float_of_int i *. 10.0) (fun () ->
            let step = if Cm_util.Prng.int rng 10 = 0 then 500 else 20 in
            current := max 100 (Cm_workload.Gen.random_walk rng ~current:!current ~step);
            Payroll.update_salary p ~emp:"e1" ~salary:!current)
      done;
      Sys_.run p.Payroll.system ~until:(float_of_int updates *. 10.0 +. 100.0);
      let trace = Sys_.trace p.Payroll.system in
      let notifications = List.length (Trace.named trace "N") in
      let ws = List.length (Trace.named trace "Ws") in
      let tl = Sys_.timeline ~initial:p.Payroll.initial p.Payroll.system in
      let pair =
        {
          Guarantee.leader = Payroll.source_item "e1";
          follower = Payroll.target_item "e1";
        }
      in
      let horizon = float_of_int updates *. 10.0 +. 100.0 in
      let g1 = check ~horizon tl (Guarantee.Follows pair) in
      let g2 =
        check ~horizon ~ignore_after:(horizon -. 200.0) tl (Guarantee.Leads pair)
      in
      let g4 = check ~horizon tl (Guarantee.Metric_follows (pair, kappa)) in
      Table.add_row table
        [
          Table.cell_pct threshold;
          string_of_int ws;
          string_of_int notifications;
          Table.cell_pct
            (if ws = 0 then 0.0
             else 1.0 -. (float_of_int notifications /. float_of_int ws));
          yes_no g1.Guarantee.holds;
          yes_no g2.Guarantee.holds;
          yes_no g4.Guarantee.holds;
        ])
    [ 0.0; 0.01; 0.05; 0.1; 0.25 ];
  Table.print table;
  print_endline
    "Shape check: higher thresholds suppress more notifications; guarantee (1)\n\
     survives (the target only ever sees real source values) while (2) fails\n\
     as soon as any update is filtered, and so does (4): the target keeps a\n\
     value the source left more than kappa ago until a change passes the\n\
     filter.\n"

(* ------------------------------------------------------------------ *)
(* E11 (ablation): why in-order message processing matters (App. A.2)  *)
(* ------------------------------------------------------------------ *)

let exp_e11 () =
  let table =
    Table.create
      ~title:
        "E11 (ablation): in-order delivery disabled — the requirement \
         'discovered during the process of verification' (\xc2\xa74.2.3, App. A.2 p7)"
      ~columns:
        [ "network"; "(1)"; "(3) strictly-follows"; "out-of-order violations"; "converged" ]
  in
  let run ~fifo =
    let p =
      Payroll.create
        ~config:
          Sys_.Config.(
            seeded 1100 |> with_fifo fifo
            |> with_latency { Net.base = 0.3; jitter = 3.0 })
        ~employees:1 ()
    in
    Payroll.install_propagation ~delta:20.0 p;
    (* Rapid-fire updates so reordering has material to work with. *)
    for i = 1 to 60 do
      Payroll.schedule_update p ~at:(float_of_int i *. 2.0) ~emp:"e1"
        ~salary:(2000 + i)
    done;
    Sys_.run p.Payroll.system ~until:300.0;
    let tl = Sys_.timeline ~initial:p.Payroll.initial p.Payroll.system in
    let pair =
      { Guarantee.leader = Payroll.source_item "e1"; follower = Payroll.target_item "e1" }
    in
    let g1 = check ~horizon:300.0 tl (Guarantee.Follows pair) in
    let g3 = check ~horizon:300.0 tl (Guarantee.Strictly_follows pair) in
    let ooo =
      List.length
        (List.filter
           (function Validity.Out_of_order _ -> true | _ -> false)
           (Sys_.check_validity p.Payroll.system))
    in
    let converged =
      Value.equal (Payroll.salary_at p `A "e1") (Payroll.salary_at p `B "e1")
    in
    (g1, g3, ooo, converged)
  in
  List.iter
    (fun (fifo, label) ->
      let g1, g3, ooo, converged = run ~fifo in
      Table.add_row table
        [
          label;
          yes_no g1.Guarantee.holds;
          yes_no g3.Guarantee.holds;
          string_of_int ooo;
          yes_no converged;
        ])
    [ (true, "FIFO (paper's assumption)"); (false, "reordering allowed") ];
  Table.print table;
  print_endline
    "Shape check: without in-order processing, guarantee (3) breaks, the\n\
     validity checker pinpoints the out-of-order firings, and the copies can\n\
     end up permanently diverged — exactly the 'important detail discovered\n\
     during verification' the paper reports.\n"

(* ------------------------------------------------------------------ *)
(* E12 (ablation): cached propagation over a periodic-notify source    *)
(* ------------------------------------------------------------------ *)

let periodic_payroll ~seed ~cached ~changes =
  let locator item =
    match item.Item.base with "Src" -> "a" | _ -> "b"
  in
  let obs = Obs.create () in
  let system =
    Sys_.create ~config:Sys_.Config.(seeded seed |> with_obs obs) locator
  in
  let shell_a = Sys_.add_shell system ~site:"a" in
  let shell_b = Sys_.add_shell system ~site:"b" in
  let db_a = Db.create () and db_b = Db.create () in
  List.iter
    (fun db ->
      ignore (Db.exec db "CREATE TABLE t (id TEXT PRIMARY KEY, v INT NOT NULL)");
      ignore (Db.exec db "INSERT INTO t VALUES ('k', 0)"))
    [ db_a; db_b ];
  let binding base ~periodic =
    {
      Tr_rel.base;
      params = [];
      read_sql = Some "SELECT v FROM t";
      write_sql = Some "UPDATE t SET v = $b";
      delete_sql = None;
      notify =
        Some
          { Tr_rel.table = "t"; column = "v"; key_column = "id"; send = false;
            filter = None; filter_expr = None };
      no_spontaneous = false;
      periodic;
    }
  in
  let tr_a =
    Tr_rel.create ~sim:(Sys_.sim system) ~db:db_a ~site:"a"
      ~emit:(Shell.emitter_for shell_a ~site:"a")
      ~report:(fun k -> Shell.report_failure shell_a k)
      [ binding "Src" ~periodic:(Some 30.0) ]
  in
  let tr_b =
    Tr_rel.create ~sim:(Sys_.sim system) ~db:db_b ~site:"b"
      ~emit:(Shell.emitter_for shell_b ~site:"b")
      ~report:(fun k -> Shell.report_failure shell_b k)
      [ binding "Tgt" ~periodic:None ]
  in
  Sys_.register_translator system ~shell:shell_a (Tr_rel.cmi tr_a);
  Sys_.register_translator system ~shell:shell_b (Tr_rel.cmi tr_b);
  let src = Interface.plain "Src" and tgt = Interface.plain "Tgt" in
  (if cached then
     Sys_.install system
       (Strategy.propagate_cached ~delta:10.0 ~source:src ~target:tgt ~cache:"CSrc" ())
   else Sys_.install system (Strategy.propagate ~delta:10.0 ~source:src ~target:tgt ()));
  (* A handful of real changes over an hour of periodic reports. *)
  for i = 1 to changes do
    Sim.schedule_at (Sys_.sim system) (float_of_int i *. 600.0) (fun () ->
        ignore
          (Tr_rel.exec_app tr_a "UPDATE t SET v = $b"
             ~params:[ ("b", Value.Int (100 * i)) ]))
  done;
  Sys_.run system ~until:3600.0;
  let trace = Sys_.trace system in
  let notifications = List.length (Trace.named trace "N") in
  let write_requests = List.length (Trace.named trace "WR") in
  let fire_messages = Obs.counter_total obs "net_sent" in
  let tl =
    Sys_.timeline system
      ~initial:[ (Item.make "Src", Value.Int 0); (Item.make "Tgt", Value.Int 0) ]
  in
  let pair = { Guarantee.leader = Item.make "Src"; follower = Item.make "Tgt" } in
  let g1 = check ~horizon:3600.0 tl (Guarantee.Follows pair) in
  (notifications, write_requests, fire_messages, g1.Guarantee.holds)

let exp_e12 () =
  let table =
    Table.create
      ~title:
        "E12 (ablation): periodic-notify source, 5 real changes in 1 h of \
         30 s reports — plain vs cached propagation (\xc2\xa73.2's Cx cache)"
      ~columns:[ "strategy"; "notifications"; "write requests"; "messages"; "(1) holds" ]
  in
  List.iter
    (fun (cached, label) ->
      let n, wr, msgs, g1 = periodic_payroll ~seed:1200 ~cached ~changes:5 in
      Table.add_row table
        [ label; string_of_int n; string_of_int wr; string_of_int msgs; yes_no g1 ])
    [ (false, "propagate"); (true, "propagate-cached") ];
  Table.print table;
  print_endline
    "Shape check: both receive ~120 periodic notifications, but the cached\n\
     strategy only issues a write request when the reported value differs\n\
     from its Cx cache — the communication saving of the paper's \xc2\xa73.2 cache\n\
     example, without weakening guarantee (1).\n"

(* ------------------------------------------------------------------ *)
(* E13: retransmission overhead vs loss rate (§5, App. A.2 property 7) *)
(* ------------------------------------------------------------------ *)

let exp_e13 () =
  let module Reliable = Cm_core.Reliable in
  let run config =
    let p = Payroll.create ~config ~employees:3 () in
    Payroll.install_propagation p;
    Payroll.random_updates p ~mean_interarrival:20.0 ~until:500.0;
    Sys_.run p.Payroll.system ~until:700.0;
    p
  in
  let finals p =
    List.map
      (fun emp -> (Payroll.salary_at p `A emp, Payroll.salary_at p `B emp))
      p.Payroll.employees
  in
  let clean = finals (run (Sys_.Config.seeded 1300)) in
  let table =
    Table.create
      ~title:
        "E13: reliable delivery over a lossy network — retransmission \
         overhead vs loss rate (duplication fixed at 0.10, same seed \
         throughout; 'final = clean' compares against the zero-fault run)"
      ~columns:
        [ "drop"; "raw msgs"; "data"; "retransmits"; "acks"; "dups suppressed";
          "(1)"; "final = clean" ]
  in
  List.iter
    (fun drop ->
      (* All message counts below come from the Obs registry — the same
         counters the Net/Reliable accessors read, and the single source
         the `cmtool stats` command and EXPERIMENTS.md tables share. *)
      let obs = Obs.create () in
      let p =
        run
          Sys_.Config.(
            seeded 1300
            |> with_faults { Net.drop_prob = drop; dup_prob = 0.1 }
            |> with_reliable Reliable.default_config
            |> with_obs obs)
      in
      record_snapshot (Printf.sprintf "e13-drop-%.2f" drop) obs;
      let c name = Obs.counter_total obs name in
      let g1 =
        Sys_.check_guarantee ~initial:p.Payroll.initial p.Payroll.system
          (Guarantee.Follows
             {
               Guarantee.leader = Payroll.source_item "e1";
               follower = Payroll.target_item "e1";
             })
      in
      Table.add_row table
        [
          Printf.sprintf "%.2f" drop;
          string_of_int (c "net_sent");
          string_of_int (c "reliable_data_sent");
          string_of_int (c "reliable_retransmits");
          string_of_int (c "reliable_acks_sent");
          string_of_int (c "reliable_dup_suppressed");
          yes_no g1.Guarantee.holds;
          yes_no (finals p = clean);
        ])
    [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.5 ];
  Table.print table;
  print_endline
    "Shape check: the application-level outcome is identical at every loss\n\
     rate — same final stores as the zero-fault run, guarantee (1) intact —\n\
     while the raw message count grows with the loss rate: the cost of\n\
     re-earning Appendix A.2's property 7 is paid entirely in\n\
     retransmissions and acks, never in correctness.\n"

(* ------------------------------------------------------------------ *)
(* E14: crash recovery — journal overhead, §5's crash→metric mapping   *)
(* ------------------------------------------------------------------ *)

let exp_e14 () =
  let module Journal = Cm_core.Journal in
  let module Chaos = Cm_chaos.Chaos in
  (* One schedule, three durability modes.  Crash windows of up to 120 s
     deliberately outlast the reliable layer's ~85 s retransmission
     chain: those are exactly the crashes a journal-free configuration
     cannot ride out. *)
  let spec durability =
    {
      Chaos.seed = 1400;
      events = 300;
      durability;
      mode =
        Chaos.Payroll_faults
          { plan = { crashes = 8; crash_min_len = 20.0; crash_max_len = 120.0 }; churn = 0 };
    }
  in
  let table =
    Table.create
      ~title:
        "E14: crash recovery under a randomized 8-crash payroll schedule \
         (seed 1400, 300 events, crash windows 20-120 s, identical \
         schedule throughout) — journal overhead vs what it buys"
      ~columns:
        [ "durability"; "appends"; "ckpts"; "replayed"; "requeued";
          "give-ups"; "lost"; "dup"; "logical"; "metric"; "final = oracle" ]
  in
  List.iter
    (fun (durability, label) ->
      match (Chaos.run (spec durability)).Chaos.result with
      | Chaos.Recovered r ->
        let c = r.Chaos.chaos in
        Table.add_row table
          [
            label;
            string_of_int c.Chaos.journal_appends;
            string_of_int c.Chaos.journal_checkpoints;
            string_of_int c.Chaos.replayed_records;
            string_of_int c.Chaos.requeued;
            string_of_int c.Chaos.give_ups;
            string_of_int r.Chaos.lost_firings;
            string_of_int r.Chaos.duplicate_firings;
            string_of_int c.Chaos.logical_notices;
            string_of_int c.Chaos.metric_notices;
            yes_no r.Chaos.final_state_matches;
          ]
      | Chaos.Healed _ | Chaos.Sharded _ -> assert false)
    [
      (Journal.None, "none");
      (Journal.Journal, "journal");
      (Journal.Journal_with_checkpoint, "journal+ckpt");
    ];
  Table.print table;
  print_endline
    "Shape check: without a journal the >85 s crashes exhaust the\n\
     retransmission chains and updates are lost for good — logical\n\
     failures, diverged final state.  With one, every crash is re-queued\n\
     on restart: zero lost or duplicated firings, the final state equals\n\
     the fault-free oracle's, and crashes surface only as *metric*\n\
     failure notices — the paper's \xc2\xa75 claim that \"crashes can be\n\
     mapped to metric failures if the database can remember messages\n\
     that need to be sent out upon recovery\".  Checkpoints trade a few\n\
     extra appends for a shorter replay.\n"

(* ------------------------------------------------------------------ *)
(* E16: runtime evolution — guarantee survival across the §4.2.3       *)
(* interface change, and incremental cutover cost vs full rebuild      *)
(* ------------------------------------------------------------------ *)

let exp_e16 () =
  let module Evolution = Cm_core.Evolution in
  let module Derive = Cm_core.Derive in
  let module Rule_index = Cm_rule.Rule_index in
  (* Part 1: the survival matrix.  Both epochs' programs come from
     really-built payroll systems — the notify+propagate configuration
     and the §4.2.3 read-only+polling replacement (one employee, so the
     single representative poller keeps strictly-follows provable).  The
     target's no-spontaneous-write statement is administrative knowledge
     in both worlds, as in the shipped interfaces.rules. *)
  let before =
    Payroll.create ~config:(Sys_.Config.seeded 1600) ~employees:1 ()
  in
  Payroll.install_propagation before;
  let after =
    Payroll.create ~config:(Sys_.Config.seeded 1601) ~employees:1
      ~mode:Payroll.Read_only ()
  in
  Payroll.install_polling ~period:120.0 after;
  let nsw = Interface.no_spontaneous_write Payroll.target_pattern in
  let survivals =
    Evolution.compare_programs
      ~interfaces_before:(Sys_.interface_rules before.Payroll.system @ [ nsw ])
      ~interfaces_after:(Sys_.interface_rules after.Payroll.system @ [ nsw ])
      ~strategy_before:(Sys_.strategy_rules before.Payroll.system)
      ~strategy_after:(Sys_.strategy_rules after.Payroll.system)
      ~constraints:[ ("Salary1", "Salary2") ]
  in
  let table =
    Table.create
      ~title:
        "E16: guarantee survival across the \xc2\xa74.2.3 interface change \
         (notify+propagate -> read-only+poll every 120 s)"
      ~columns:[ "guarantee"; "before"; "after"; "survival" ]
  in
  (* First line of the prover's explanation only — the full argument is
     what `cmtool evolve` prints. *)
  let short v =
    let s = Derive.verdict_to_string v in
    match String.index_opt s '\n' with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  List.iter
    (fun cs ->
      List.iter
        (fun gs ->
          Table.add_row table
            [
              gs.Evolution.gs_name;
              short gs.Evolution.gs_before;
              short gs.Evolution.gs_after;
              Derive.survival_status gs.Evolution.gs_survival;
            ])
        cs.Evolution.cs_guarantees)
    survivals;
  Table.print table;
  (* Part 2: what a cutover costs at the dispatch layer.  A shell with R
     installed background rules churns through K propose/cutover/retire
     cycles; each epoch's program restates the R background rules and
     replaces 4 others.  The alternative is building a fresh
     discrimination index from that same rule list. *)
  let table =
    Table.create
      ~title:
        "E16b: cutover cost under churn — incremental epoch switch vs \
         full index rebuild"
      ~columns:
        [ "installed rules"; "cycles"; "epoch switch (us)"; "rebuild (us)";
          "ratio" ]
  in
  let cycles = 200 in
  List.iter
    (fun background ->
      let locator _ = "s0" in
      let system = Sys_.create ~config:(Sys_.Config.seeded 1602) locator in
      let shell = Sys_.add_shell system ~site:"s0" in
      let step v =
        {
          Rule.guard = Expr.Const (Value.Bool true);
          template = Template.make "Done" [ Expr.Var v ];
        }
      in
      let bg_rules =
        List.init background (fun k ->
            Rule.make
              ~id:(Printf.sprintf "bg%d" k)
              ~lhs:
                (Template.make "Upd"
                   [ Expr.Item ("X" ^ string_of_int k, []); Expr.Var "v" ])
              (Rule.Steps [ step "v" ]))
      in
      Shell.install_strategy shell bg_rules;
      let epoch_program i =
        bg_rules
        @ List.init 4 (fun k ->
            Rule.make
              ~id:(Printf.sprintf "v%d_%d" i k)
              ~lhs:
                (Template.make "Upd"
                   [ Expr.Item ("Y" ^ string_of_int k, []); Expr.Var "v" ])
              (Rule.Steps [ step "v" ]))
      in
      let t0 = Sys.time () in
      for i = 1 to cycles do
        Shell.propose_epoch shell ~epoch:i (epoch_program i);
        Shell.cutover_epoch shell ~epoch:i;
        Shell.retire_epoch shell ~epoch:(i - 1)
      done;
      let incremental = Sys.time () -. t0 in
      let t0 = Sys.time () in
      for i = 1 to cycles do
        let index = Rule_index.create () in
        List.iter
          (fun r -> Rule_index.add index ~lhs:r.Rule.lhs ~site:None (r.Rule.id, r))
          (epoch_program i)
      done;
      let rebuild = Sys.time () -. t0 in
      let per t = t /. float_of_int cycles *. 1e6 in
      Table.add_row table
        [
          string_of_int background;
          string_of_int cycles;
          Printf.sprintf "%.1f" (per incremental);
          Printf.sprintf "%.1f" (per rebuild);
          (if incremental > 0.0 then
             Printf.sprintf "%.1fx" (rebuild /. incremental)
           else "inf");
        ])
    [ 64; 256; 1024 ];
  Table.print table;
  print_endline
    "Shape check: the matrix reproduces \xc2\xa74.2.3 — (1), (3), (4) survive \
     the\nchange (with a larger kappa), (2) is lost because sampling can miss\n\
     values.  E16b times one propose/cutover/retire cycle of a program that\n\
     restates the R installed rules and replaces 4, against indexing the\n\
     same R + 4 rules afresh; both grow with R.\n"

(* ------------------------------------------------------------------ *)
(* E17: constraint-aware read routing — SLO sweep, 10^5-10^6 clients   *)
(* ------------------------------------------------------------------ *)

(* A star federation: four feeds mastered at the hub, one κ-bounded copy
   of each at its consumer site (κ ladder 5/10/20/40 s via the strategy's
   propagation delay), client populations co-located with the copies.
   Each client reads its local feed under a staleness SLO; the router
   serves the local replica iff its κ qualifies (κ ≤ SLO inclusive) and
   falls back to the master over the WAN link otherwise — so master
   offload grows monotonically as the SLO loosens, one rung per replica.
   Load comes from Readers.open_loop, whose Poisson-superposition trick
   makes the cost proportional to reads, not clients: the full run
   simulates 10^6 clients, --smoke 10^5.  Every decision is audited post
   hoc from the on_decision stream: served κ must be ≤ the SLO. *)
let exp_e17 () =
  let module Route = Cm_route.Route in
  let module Readers = Cm_workload.Readers in
  let replicas =
    (* (index, κ): κ = notify δ2 + propagation δ + write δ1 *)
    [ (0, 5.0); (1, 10.0); (2, 20.0); (3, 40.0) ]
  in
  let feed k = Printf.sprintf "Feed%d" k in
  let copy k = Printf.sprintf "Copy%d" k in
  let rsite k = Printf.sprintf "r%d" k in
  let program =
    String.concat "\n"
      (List.concat_map
         (fun (k, kappa) ->
           [
             Printf.sprintf "n%d: Ws(%s(n), b) ->[2] N(%s(n), b)" k (feed k)
               (feed k);
             Printf.sprintf "w%d: WR(%s(n), b) ->[1] W(%s(n), b)" k (copy k)
               (copy k);
             Printf.sprintf "q%d: Ws(%s(n), b) -> FALSE" k (copy k);
             Printf.sprintf "p%d: N(%s(n), b) ->[%g] WR(%s(n), b)" k (feed k)
               (kappa -. 3.0) (copy k);
           ])
         replicas)
  in
  let rules = Parser.parse_rules program in
  let interfaces, strategy =
    List.partition (fun r -> Interface.classify r <> None) rules
  in
  let locator (item : Item.t) =
    (* Feedk -> hub, Copyk -> rk *)
    if String.length item.Item.base > 4 && String.sub item.Item.base 0 4 = "Feed"
    then "hub"
    else "r" ^ String.sub item.Item.base 4 (String.length item.Item.base - 4)
  in
  let obs = Obs.create () in
  let system =
    Sys_.create ~config:Sys_.Config.(seeded 1700 |> with_obs obs) locator
  in
  let net = Sys_.net system in
  List.iter
    (fun (k, _) ->
      (* WAN ladder: farther consumers pay more to reach the hub. *)
      let l = { Net.base = 0.02 +. (0.01 *. float_of_int k); jitter = 0.0 } in
      Net.set_latency net ~from_site:(rsite k) ~to_site:"hub" l;
      Net.set_latency net ~from_site:"hub" ~to_site:(rsite k) l)
    replicas;
  Sys_.declare_interfaces system interfaces;
  Sys_.install system
    { Strategy.strategy_name = "kappa-ladder";
      description = "one propagation rule per feed";
      rules = strategy;
      aux_init = [] };
  let route =
    Route.create system
      ~constraints:(List.map (fun (k, _) -> (feed k, copy k)) replicas)
  in
  let clients_total = if !smoke_mode then 100_000 else 1_000_000 in
  let per_site = clients_total / List.length replicas in
  let clients = List.map (fun (k, _) -> (rsite k, per_site)) replicas in
  let rate_per_client = if !smoke_mode then 1e-4 else 5e-5 in
  let duration = if !smoke_mode then 200.0 else 400.0 in
  let rng = Cm_util.Prng.create ~seed:1700 in
  (* Per-sweep-point collector, swapped under one decision subscriber. *)
  let sink = ref (fun (_ : Route.decision) -> ()) in
  Route.on_decision route (fun d -> !sink d);
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E17: κ-SLO read routing, %d clients at 4 replica sites (κ \
            ladder 5/10/20/40 s)"
           clients_total)
      ~columns:
        [ "slo (s)"; "reads"; "replica"; "master"; "forced poll"; "offload";
          "p99 latency (s)"; "served κ ≤ slo" ]
  in
  let feed_of_site site =
    int_of_string (String.sub site 1 (String.length site - 1))
  in
  let offloads =
    List.map
      (fun slo ->
        let n_replica = ref 0 and n_master = ref 0 and n_poll = ref 0 in
        let latencies = ref [] and violations = ref 0 in
        sink :=
          (fun d ->
            (match d.Route.d_outcome with
             | Route.Replica -> incr n_replica
             | Route.Master -> incr n_master
             | Route.Forced_poll -> incr n_poll);
            latencies := d.Route.d_latency :: !latencies;
            match slo with
            | Some s when d.Route.d_served_kappa > s -> incr violations
            | _ -> ());
        let stop = Sim.now (Sys_.sim system) +. duration in
        Readers.open_loop (Sys_.sim system) ~rng ~clients ~rate_per_client
          ~until:stop (fun ~site ->
            ignore
              (Route.read ?within_kappa:slo route ~client_site:site
                 (feed (feed_of_site site))));
        Sys_.run system ~until:stop;
        let reads = !n_replica + !n_master + !n_poll in
        let offload =
          if reads = 0 then 0.0 else float_of_int !n_replica /. float_of_int reads
        in
        Table.add_row table
          [
            (match slo with Some s -> Printf.sprintf "%g" s | None -> "none");
            string_of_int reads;
            string_of_int !n_replica;
            string_of_int !n_master;
            string_of_int !n_poll;
            Printf.sprintf "%.1f%%" (100.0 *. offload);
            Printf.sprintf "%.3f" (Stats.percentile 0.99 !latencies);
            (if !violations = 0 then "ok"
             else Printf.sprintf "VIOLATED (%d)" !violations);
          ];
        offload)
      [ Some 3.0; Some 5.0; Some 10.0; Some 20.0; Some 40.0; None ]
  in
  sink := (fun _ -> ());
  Table.print table;
  let monotone =
    let rec check = function
      | a :: (b :: _ as rest) -> a <= b +. 1e-9 && check rest
      | _ -> true
    in
    check offloads
  in
  record_snapshot "e17" obs;
  Printf.printf
    "Shape check: master offload monotone in SLO: %s; κ ≤ SLO audited on \
     every routed read.\nThe κ = 5 copy is served at slo = 5 — the bound is \
     inclusive: both κ and SLO\nare end-to-end seconds.\n\n"
    (if monotone then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* E20: sharded multi-domain fabric — near-linear domain scaling      *)
(* ------------------------------------------------------------------ *)

(* A ring federation at "millions of users" scale: [sites] shells, each
   owning [constraints] rules U(Xs_k, v) -> W(X(s+1)_k, v) — every
   firing crosses a site boundary, so at [shards] > 1 a fixed fraction
   of the traffic crosses domains too.  One constraint instance =
   (site, k) rule; the full sweep is 1024 x 1024 = 1,048,576 instances
   over 1024 sites.  All links run at base latency 1.0 with zero jitter
   (the conservative lookahead), injections are a pure function of the
   event index (no RNG), and each shard's driver injects exactly the
   events of its own sites at the same absolute instants regardless of
   layout — so the canonical trace digest must match the 1-shard run
   bit for bit while wall-clock drops with domains. *)

let e20_run ~sites ~constraints ~events ~rate ~shards =
  assert (sites mod shards = 0);
  let site_of s = "s" ^ string_of_int s in
  let base_of s k = Printf.sprintf "X%d_%d" s k in
  let locator item =
    let base = item.Item.base in
    match String.index_opt base '_' with
    | Some i -> "s" ^ String.sub base 1 (i - 1)
    | None -> site_of 0
  in
  let assign site =
    match int_of_string_opt (String.sub site 1 (String.length site - 1)) with
    | Some s -> s mod shards
    | None -> 0
  in
  let config =
    Sys_.Config.(seeded 2000 |> with_latency { Net.base = 1.0; jitter = 0.0 })
  in
  let fab = Fabric.create ~config ~shards ~assign locator in
  let shells =
    Array.init sites (fun s -> Fabric.add_shell fab ~site:(site_of s))
  in
  let rules = ref [] in
  for s = sites - 1 downto 0 do
    for k = constraints - 1 downto 0 do
      rules :=
        Rule.make
          ~id:(Printf.sprintf "r%d_%d" s k)
          ~delta:5.0
          ~lhs:(Template.make "U" [ Expr.Item (base_of s k, []); Expr.Var "v" ])
          (Rule.Steps
             [
               {
                 Rule.guard = Expr.Const (Value.Bool true);
                 template =
                   Template.make "W"
                     [
                       Expr.Item (base_of ((s + 1) mod sites) k, []);
                       Expr.Var "v";
                     ];
               };
             ])
        :: !rules
    done
  done;
  Fabric.install fab
    {
      Strategy.strategy_name = "e20-ring";
      description = "cross-site propagation ring";
      rules = !rules;
      aux_init = [];
    };
  let emitters =
    Array.init sites (fun s -> Shell.emitter_for shells.(s) ~site:(site_of s))
  in
  let interval = 1.0 /. rate in
  (* Event j is injected at time j * interval at site j mod sites with
     value j.  [sites mod shards = 0], so event j belongs to shard
     [j mod shards]: each shard drives its own arithmetic subsequence
     on its own wheel (self-rescheduling, so the heap stays shallow). *)
  for p = 0 to shards - 1 do
    if p < events then begin
      let sim = Sys_.sim (Fabric.system fab p) in
      let j = ref p in
      let rec drive () =
        if !j < events then begin
          let s = !j mod sites in
          let k = !j / sites mod constraints in
          let desc =
            {
              Event.name = "U";
              args =
                [ Event.Ai (Item.make (base_of s k)); Event.Av (Value.Int !j) ];
            }
          in
          j := !j + shards;
          ignore (emitters.(s) desc ~kind:Event.Spontaneous);
          Sim.schedule sim ~delay:(float_of_int shards *. interval) drive
        end
      in
      Fabric.at fab ~site:(site_of p) (float_of_int p *. interval) drive
    end
  done;
  let t0 = Unix.gettimeofday () in
  Fabric.run fab ~until:((float_of_int events *. interval) +. 50.0);
  let wall = Unix.gettimeofday () -. t0 in
  let processed = Fabric.events_processed fab in
  let digest = Fabric.trace_digest fab in
  (processed, wall, digest, Fabric.messages_forwarded fab)

let exp_e20 () =
  let sites, constraints, events, rate =
    if !smoke_mode then (64, 16, 4_000, 200.0) else (1024, 1024, 50_000, 200.0)
  in
  let shard_counts = if !smoke_mode then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E20: sharded fabric — %d sites x %d constraints/site = %d \
            instances, domain sweep"
           sites constraints (sites * constraints))
      ~columns:
        [ "shards"; "events"; "processed"; "wall s"; "ev/s"; "speedup";
          "x-shard msgs"; "digest" ]
  in
  let obs = Obs.create () in
  let base = ref None in
  let speedups = ref [] in
  List.iter
    (fun shards ->
      let processed, wall, digest, msgs =
        e20_run ~sites ~constraints ~events ~rate ~shards
      in
      let tput =
        if wall > 0.0 then float_of_int processed /. wall else infinity
      in
      let d1, t1 =
        match !base with
        | None ->
          base := Some (digest, tput);
          (digest, tput)
        | Some b -> b
      in
      (* The acceptance cross-check: every layout reproduces the
         sequential oracle's canonical trace, byte for byte. *)
      if not (String.equal digest d1) then
        failwith
          (Printf.sprintf "E20: digest diverged at %d shards (%s vs %s)"
             shards digest d1);
      let speedup = tput /. t1 in
      speedups := (shards, speedup) :: !speedups;
      let labels = [ ("shards", string_of_int shards) ] in
      Obs.gauge obs "e20_events_per_sec" ~labels tput;
      Obs.gauge obs "e20_speedup" ~labels speedup;
      Obs.gauge obs "e20_wall_seconds" ~labels wall;
      Obs.gauge obs "e20_messages_forwarded" ~labels (float_of_int msgs);
      Obs.gauge obs "e20_digest_match" ~labels 1.0;
      Table.add_row table
        [
          string_of_int shards;
          string_of_int events;
          string_of_int processed;
          Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" tput;
          Printf.sprintf "%.2fx" speedup;
          string_of_int msgs;
          (if String.equal digest d1 then "= 1-shard" else "DIVERGED");
        ])
    shard_counts;
  Obs.gauge obs "e20_constraint_instances" (float_of_int (sites * constraints));
  Obs.gauge obs "e20_cores"
    (float_of_int (Domain.recommended_domain_count ()));
  record_snapshot "e20" obs;
  Table.print table;
  let cores = Domain.recommended_domain_count () in
  let best_shards, best =
    List.fold_left
      (fun (bs, b) (s, sp) -> if sp > b then (s, sp) else (bs, b))
      (1, 1.0) !speedups
  in
  Printf.printf
    "Digest check: every shard count reproduced the 1-shard canonical trace.\n";
  if cores >= 8 && List.mem_assoc 8 !speedups then
    Printf.printf
      "Shape check: >= 3x at 8 domains: %s (best %.2fx at %d shards, %d cores)\n"
      (if List.assoc 8 !speedups >= 3.0 then "yes"
       else Printf.sprintf "NO (%.2fx)" (List.assoc 8 !speedups))
      best best_shards cores
  else
    Printf.printf
      "Shape check: >= 3x at 8 domains is hardware-gated — this host \
       recommends %d domain(s); best observed %.2fx at %d shards.\n"
      cores best best_shards

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", exp_e1);
    ("e2", exp_e2);
    ("e3", exp_e3);
    ("e4", exp_e4);
    ("e5", exp_e5);
    ("e6", exp_e6);
    ("e7", exp_e7);
    ("e8", exp_e8);
    ("e10", exp_e10);
    ("e11", exp_e11);
    ("e12", exp_e12);
    ("e13", exp_e13);
    ("e14", exp_e14);
    ("e16", exp_e16);
    ("e17", exp_e17);
    ("e20", exp_e20);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let rec find_opt_arg flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: rest -> find_opt_arg flag rest
    | [] -> None
  in
  let wanted =
    Option.map String.lowercase_ascii (find_opt_arg "--exp" args)
  in
  let json_out = find_opt_arg "--json" args in
  smoke_mode := List.mem "--smoke" args;
  (match wanted with
   | Some name -> (
     match List.assoc_opt name experiments with
     | Some f -> f ()
     | None ->
       Printf.eprintf "unknown experiment %s (%s)\n" name
         (String.concat " " (List.map fst experiments));
       exit 1)
   | None ->
     List.iter
       (fun (name, f) ->
         Printf.printf "---------------------------------------------------------- %s\n"
           (String.uppercase_ascii name);
         f ())
       experiments);
  match json_out with
  | Some path ->
    write_snapshots path;
    Printf.printf "wrote %d registry snapshots to %s\n"
      (List.length !json_snapshots) path
  | None -> ()
