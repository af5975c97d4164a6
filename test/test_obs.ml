(* Observability layer: registry semantics, span tracing across a
   two-site firing, snapshot determinism, and the no-op mode. *)

module Obs = Cm_core.Obs
module Sys_ = Cm_core.System
module Net = Cm_net.Net
module Sim = Cm_sim.Sim
module Reliable = Cm_core.Reliable
module Journal = Cm_core.Journal
module Evolution = Cm_core.Evolution
module Strategy = Cm_core.Strategy
module Interface = Cm_core.Interface
module Msg = Cm_core.Msg
module Payroll = Cm_workload.Payroll
module Recovery = Cm_core.Recovery
module Shell = Cm_core.Shell
module Monitor = Cm_core.Monitor
module Route = Cm_route.Route
module Fabric = Cm_shard.Shard.Fabric
open Cm_rule

(* ---- registry ---- *)

let label_merging () =
  let t = Obs.create () in
  Obs.incr t "hits" ~labels:[ ("site", "sf"); ("rule", "r1") ];
  Obs.incr t "hits" ~labels:[ ("rule", "r1"); ("site", "sf") ];
  Alcotest.(check int) "order-insensitive" 2
    (Obs.counter_value t "hits" ~labels:[ ("site", "sf"); ("rule", "r1") ]);
  Obs.incr t "hits" ~labels:[ ("site", "ny"); ("rule", "r1") ] ~by:3;
  Alcotest.(check int) "distinct label set" 3
    (Obs.counter_value t "hits" ~labels:[ ("rule", "r1"); ("site", "ny") ]);
  Alcotest.(check int) "total sums label sets" 5 (Obs.counter_total t "hits");
  Alcotest.(check int) "absent counter is 0" 0
    (Obs.counter_value t "misses")

let instruments () =
  let t = Obs.create () in
  Obs.gauge t "depth" 3.0;
  Obs.gauge t "depth" 7.0;
  Alcotest.(check (option (float 1e-9))) "gauge keeps latest" (Some 7.0)
    (Obs.gauge_value t "depth");
  List.iter (Obs.observe t "lat") [ 1.0; 3.0; 2.0 ];
  Alcotest.(check (list (float 1e-9))) "series chronological" [ 1.0; 3.0; 2.0 ]
    (Obs.series_values t "lat");
  let rows = Obs.snapshot t in
  Alcotest.(check int) "snapshot has both" 2 (List.length rows);
  let names = List.map (fun r -> r.Obs.name) rows in
  Alcotest.(check (list string)) "sorted by name" [ "depth"; "lat" ] names

(* ---- spans across a two-site firing ---- *)

(* Payroll over a lossy network with the reliable layer: the sf shell
   opens "fire" roots, the span id rides the Fire envelope, retransmits
   attach to it, and the ny shell adds "execute" -> "step" children. *)
let traced_payroll ?(obs = Obs.create ()) ?(drop = 0.2) ?(until = 300.0) seed =
  let config =
    Sys_.Config.(
      seeded seed
      |> with_faults { Net.drop_prob = drop; dup_prob = 0.1 }
      |> with_reliable Reliable.default_config
      |> with_obs obs)
  in
  let p = Payroll.create ~config ~employees:3 () in
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:20.0 ~until;
  Sys_.run p.Payroll.system ~until:(until +. 200.0);
  (obs, p)

let span_invariants () =
  let obs, _ = traced_payroll 1300 in
  let spans = Obs.spans obs in
  Alcotest.(check bool) "spans recorded" true (List.length spans > 0);
  let by_id id = List.find (fun s -> s.Obs.id = id) spans in
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun i s ->
      Alcotest.(check int) "ids sequential from 1" (i + 1) s.Obs.id;
      Hashtbl.add seen s.Obs.id ())
    spans;
  List.iter
    (fun s ->
      if s.Obs.parent <> 0 then begin
        Alcotest.(check bool) "parent exists" true (Hashtbl.mem seen s.Obs.parent);
        Alcotest.(check bool) "parent opened first" true (s.Obs.parent < s.Obs.id);
        let p = by_id s.Obs.parent in
        Alcotest.(check bool) "parent started no later" true
          (p.Obs.started <= s.Obs.started);
        match s.Obs.span_name with
        | "execute" | "retransmit" ->
          Alcotest.(check string) "child of a fire" "fire" p.Obs.span_name
        | "step" ->
          Alcotest.(check string) "step under execute" "execute" p.Obs.span_name
        | other -> Alcotest.failf "unexpected child span %s" other
      end
      else
        Alcotest.(check string) "only fires are roots" "fire" s.Obs.span_name)
    spans;
  let fires = List.filter (fun s -> s.Obs.span_name = "fire") spans in
  let executes = List.filter (fun s -> s.Obs.span_name = "execute") spans in
  Alcotest.(check bool) "some firings traced" true (List.length fires > 0);
  Alcotest.(check int) "every fire executed exactly once (reliable net)"
    (List.length fires) (List.length executes);
  (* Cross-site: fire opens at sf, execute at ny. *)
  List.iter
    (fun s ->
      Alcotest.(check (option string)) "fire at source site" (Some "sf")
        (List.assoc_opt "site" s.Obs.span_labels))
    fires;
  List.iter
    (fun s ->
      Alcotest.(check (option string)) "execute at target site" (Some "ny")
        (List.assoc_opt "site" s.Obs.span_labels))
    executes;
  let retrans = List.filter (fun s -> s.Obs.span_name = "retransmit") spans in
  Alcotest.(check bool) "lossy run has retransmit spans" true
    (List.length retrans > 0)

let counters_wired () =
  let obs, _ = traced_payroll 1300 in
  Alcotest.(check bool) "net sends counted" true
    (Obs.counter_total obs "net_sent" > 0);
  Alcotest.(check bool) "drops counted" true
    (Obs.counter_total obs "net_dropped" > 0);
  Alcotest.(check bool) "retransmits counted" true
    (Obs.counter_total obs "reliable_retransmits" > 0);
  Alcotest.(check bool) "shell events counted" true
    (Obs.counter_total obs "shell_events" > 0);
  Alcotest.(check int) "fires sent = fires executed"
    (Obs.counter_total obs "shell_fires_sent")
    (Obs.counter_total obs "shell_fires_executed");
  Alcotest.(check bool) "latency series populated" true
    (Obs.series_values obs "net_latency" ~labels:[ ("from", "sf"); ("to", "ny") ]
     <> [])

(* ---- determinism ---- *)

let snapshot_determinism () =
  let obs1, _ = traced_payroll 1300 in
  let obs2, _ = traced_payroll 1300 in
  Alcotest.(check string) "snapshot JSON byte-identical"
    (Obs.snapshot_to_json obs1) (Obs.snapshot_to_json obs2);
  Alcotest.(check string) "spans JSON byte-identical"
    (Obs.spans_to_json obs1) (Obs.spans_to_json obs2);
  Alcotest.(check string) "snapshot CSV byte-identical"
    (Obs.snapshot_to_csv obs1) (Obs.snapshot_to_csv obs2);
  let obs3, _ = traced_payroll 1301 in
  Alcotest.(check bool) "different seed, different snapshot" true
    (Obs.snapshot_to_json obs1 <> Obs.snapshot_to_json obs3)

(* Observability must not perturb the simulation: the same seed with
   and without a registry ends in the same application state. *)
let observation_transparent () =
  let finals p =
    List.map
      (fun emp -> (Payroll.salary_at p `A emp, Payroll.salary_at p `B emp))
      p.Payroll.employees
  in
  let run config =
    let p = Payroll.create ~config ~employees:3 () in
    Payroll.install_propagation p;
    Payroll.random_updates p ~mean_interarrival:20.0 ~until:300.0;
    Sys_.run p.Payroll.system ~until:500.0;
    p
  in
  let base =
    Sys_.Config.(
      seeded 1300
      |> with_faults { Net.drop_prob = 0.2; dup_prob = 0.1 }
      |> with_reliable Reliable.default_config)
  in
  let plain = run base in
  let observed = run (Sys_.Config.with_obs (Obs.create ()) base) in
  Alcotest.(check bool) "same final salaries" true
    (finals plain = finals observed)

(* ---- pinned outputs ---- *)

(* The payroll run behind `cmtool stats` and `cmtool spans` at their
   defaults (seed 1300). *)
let stats_run ~obs = snd (traced_payroll ~obs ~drop:0.1 ~until:500.0 1300)

let stats_payroll () =
  let obs = Obs.create () in
  ignore (stats_run ~obs);
  obs

(* Payroll propagation made to touch every instrument of the durable
   path: a lossy, duplicating, reordering network under the reliable
   layer with heartbeats and a checkpointed journal.  A partition
   outlasts the retransmission chain (give-ups, suspicion, recovery); a
   rollout that loses the required guarantee is rolled back and its
   drained epochs retired; and the sender crashes for a millisecond with
   a frame in flight, so its restart re-queues the frame under a new
   epoch while the old copy is still on the wire.  [unroutable] adds one
   send to a site nobody registered. *)
let durable_run ?(unroutable = false) ~obs () =
  let config =
    Sys_.Config.(
      seeded 1300
      |> with_latency { Net.base = 0.04; jitter = 0.02 }
      |> with_fifo false
      |> with_faults { Net.drop_prob = 0.2; dup_prob = 0.1 }
      |> with_reliable { Reliable.default_config with heartbeat_period = 2.0 }
      |> with_durability Journal.Journal_with_checkpoint
      |> with_obs obs)
  in
  let p = Payroll.create ~config ~employees:3 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  let sim = Sys_.sim system and net = Sys_.net system in
  Sys_.declare_interfaces system
    [ Interface.no_spontaneous_write Payroll.target_pattern ];
  let pair = ("Salary1", "Salary2") in
  Sys_.declare_copies system [ pair ];
  let evo = Evolution.create ~required:[ pair ] system in
  Payroll.random_updates p ~mean_interarrival:5.0 ~until:400.0;
  Sim.schedule_at sim 60.0 (fun () ->
      Net.partition_pair net ~site_a:Payroll.site_a ~site_b:Payroll.site_b
        ~until:200.0);
  Sim.schedule_at sim 250.0 (fun () ->
      ignore
        (Evolution.evolve evo
           { Strategy.strategy_name = "noop"; description = "no rules";
             rules = []; aux_init = [ (Item.make "Flag", Value.Int 1) ] }));
  let crashed = ref false in
  let reliable = Option.get (Sys_.reliable system) in
  Net.on_send net (fun ~from_site ~to_site:_ ->
      if (not !crashed) && Sim.now sim > 320.0
         && String.equal from_site Payroll.site_a
         && Reliable.pending reliable > 0
      then begin
        crashed := true;
        Sim.schedule sim ~delay:0.001 (fun () ->
            Sys_.crash_site system ~site:Payroll.site_a);
        Sim.schedule sim ~delay:0.002 (fun () ->
            Sys_.restart_site system ~site:Payroll.site_a)
      end);
  if unroutable then
    Sim.schedule_at sim 100.0 (fun () ->
        Net.send net ~from_site:Payroll.site_a ~to_site:"nowhere"
          (Msg.Reset_notice { origin_site = Payroll.site_a }));
  Sys_.run system ~until:600.0;
  (system, evo)

let durable_propagate () =
  let obs = Obs.create () in
  ignore (durable_run ~obs ());
  obs

let md5 s = Digest.to_hex (Digest.string s)

(* MD5 of [snapshot_to_json] and [spans_to_json] for each run, recorded
   before Journal, Reliable, Shell and System's Net hooks moved to
   pre-resolved handles: the move must leave every export
   byte-identical.  To re-record after an *intentional* change:
   GOLDEN_PRINT=1 dune exec test/test_obs.exe *)
let golden_runs =
  [
    ("payroll seed 1300 (cmtool stats/spans)", stats_payroll,
     "7db3caa3bcd2e491b6098a160fb852c0", "abf5c6854320e1ec1268d827c48e6529");
    ("durable propagate, one crash", durable_propagate,
     "e2d04654ea8d88e29d088b0c29485a4f", "86fd2265ee25c0762d37e95295c525ca");
  ]

let golden_digests () =
  List.iter
    (fun (name, run, snapshot, spans) ->
      let obs = run () in
      Alcotest.(check string) (name ^ " snapshot") snapshot
        (md5 (Obs.snapshot_to_json obs));
      Alcotest.(check string) (name ^ " spans") spans
        (md5 (Obs.spans_to_json obs)))
    golden_runs

(* The durable pin is only as strong as what the run exercises: every
   instrument the handles serve must have a row in it. *)
let durable_run_covers_handles () =
  let rows = Obs.snapshot (durable_propagate ()) in
  let has ?kind name =
    List.exists
      (fun r ->
        String.equal r.Obs.name name
        && (kind = None || List.assoc_opt "kind" r.Obs.labels = kind))
      rows
  in
  Array.iter
    (fun kind ->
      Alcotest.(check bool) ("journal_appends " ^ kind) true
        (has "journal_appends" ~kind))
    [| "event"; "fire_sent"; "store_write"; "outbound"; "acked"; "delivered";
       "restarted"; "epoch_proposed"; "epoch_cutover"; "epoch_retired";
       "epoch_rollback"; "checkpoint" |];
  List.iter
    (fun name -> Alcotest.(check bool) name true (has name))
    [ "journal_checkpoint_bytes"; "reliable_data_sent"; "reliable_retransmits";
      "reliable_give_ups"; "reliable_requeued"; "reliable_delivered";
      "reliable_dup_suppressed"; "reliable_reordered";
      "reliable_epoch_rejections"; "reliable_acks_sent";
      "reliable_heartbeats_sent"; "reliable_suspects"; "reliable_recoveries";
      "net_sent"; "net_dropped"; "net_duplicated"; "net_latency";
      "shell_events"; "shell_fires_sent"; "shell_fires_executed";
      "sim_queue_depth" ]

(* ---- one tally per fact ---- *)

(* A layer's statistics accessors read the same counter handles the
   registry exports.  Each scenario yields (fact, accessor value,
   registry total) triples; with a registry the two must agree, and the
   same seed with no registry must give the same accessor values. *)

(* Sum of a counter's rows whose labels include every one of [labels]. *)
let total ?(labels = []) obs name =
  List.fold_left
    (fun n r ->
      match r.Obs.sample with
      | Obs.Counter_sample v
        when String.equal r.Obs.name name
             && List.for_all (fun l -> List.mem l r.Obs.labels) labels ->
        n + v
      | _ -> n)
    0 (Obs.snapshot obs)

(* Facts whose name starts with "link " or "site " are per link or per
   site; the rest are totals, each of which some scenario must make
   nonzero. *)
let system_facts sys =
  let obs = Sys_.obs sys and net = Sys_.net sys in
  let sites = List.map fst (Sys_.shells sys) in
  let net_facts =
    [ ("net sent", Net.messages_sent net, total obs "net_sent");
      ("net dropped", Net.messages_dropped net, total obs "net_dropped");
      ("net duplicated", Net.messages_duplicated net, total obs "net_duplicated");
      ( "net endpoint_down split",
        Net.endpoint_down_at_send net + Net.endpoint_down_in_flight net,
        total obs "net_dropped" ~labels:[ ("reason", "endpoint_down") ] ) ]
    @ List.map
        (fun reason ->
          let r = Net.drop_reason_to_string reason in
          ( "net dropped " ^ r,
            Net.drops_by net reason,
            total obs "net_dropped" ~labels:[ ("reason", r) ] ))
        [ Net.Unroutable; Net.Endpoint_down; Net.Partitioned; Net.Faulty ]
    @ List.concat_map
        (fun a ->
          List.concat_map
            (fun b ->
              let labels = [ ("from", a); ("to", b) ] in
              [ ( Printf.sprintf "link %s>%s sent" a b,
                  Net.messages_between net ~from_site:a ~to_site:b,
                  total obs "net_sent" ~labels );
                ( Printf.sprintf "link %s>%s dropped" a b,
                  Net.dropped_between net ~from_site:a ~to_site:b,
                  total obs "net_dropped" ~labels ) ])
            ("nowhere" :: sites))
        sites
  in
  let shell_facts =
    List.map
      (fun (site, sh) ->
        ( "site " ^ site ^ " events",
          Shell.events_seen sh,
          total obs "shell_events" ~labels:[ ("site", site) ] ))
      (Sys_.shells sys)
    @ [ ( "shell events",
          List.fold_left (fun n (_, sh) -> n + Shell.events_seen sh) 0 (Sys_.shells sys),
          total obs "shell_events" ) ]
  in
  let reliable_facts =
    match Sys_.reliable sys with
    | None -> []
    | Some r ->
      let s = Reliable.stats r in
      List.map
        (fun (name, v) -> ("reliable " ^ name, v, total obs ("reliable_" ^ name)))
        [ ("data_sent", s.Reliable.data_sent); ("retransmits", s.Reliable.retransmits);
          ("acks_sent", s.Reliable.acks_sent); ("delivered", s.Reliable.delivered);
          ("dup_suppressed", s.Reliable.dup_suppressed);
          ("reordered", s.Reliable.reordered);
          ("heartbeats_sent", s.Reliable.heartbeats_sent);
          ("give_ups", s.Reliable.give_ups); ("suspects", s.Reliable.suspects);
          ("recoveries", s.Reliable.recoveries);
          ("epoch_rejections", s.Reliable.epoch_rejections);
          ("requeued", s.Reliable.requeued) ]
  in
  let journal_facts =
    match Sys_.journals sys with
    | None -> []
    | Some reg ->
      let per_site =
        List.concat_map
          (fun site ->
            let st = Journal.stats (Journal.for_site reg ~site) in
            let labels = [ ("site", site) ] in
            [ ("site " ^ site ^ " journal appends", st.Journal.appends,
               total obs "journal_appends" ~labels);
              ("site " ^ site ^ " journal checkpoints", st.Journal.checkpoints,
               total obs "journal_appends" ~labels:(("kind", "checkpoint") :: labels)) ])
          (Journal.sites reg)
      in
      let sum f =
        List.fold_left
          (fun n site -> n + f (Journal.stats (Journal.for_site reg ~site)))
          0 (Journal.sites reg)
      in
      per_site
      @ [ ("journal appends", sum (fun st -> st.Journal.appends),
           total obs "journal_appends");
          ("journal checkpoints", sum (fun st -> st.Journal.checkpoints),
           total obs "journal_appends" ~labels:[ ("kind", "checkpoint") ]) ]
  in
  let recovery_facts =
    match Sys_.recovery sys with
    | None -> []
    | Some r ->
      let s = Recovery.stats r in
      List.map
        (fun (name, v) -> ("recovery " ^ name, v, total obs ("recovery_" ^ name)))
        [ ("crashes", s.Recovery.crashes); ("restarts", s.Recovery.restarts);
          ("replayed_records", s.Recovery.replayed_records);
          ("checkpoints", s.Recovery.checkpoints) ]
  in
  net_facts @ shell_facts @ reliable_facts @ journal_facts @ recovery_facts

let route_facts route =
  let obs = Sys_.obs (Route.system route) in
  [ ("route reads", Route.reads route, total obs "route_reads");
    ("route quarantines", Route.quarantines route, total obs "route_quarantines");
    ("route probes", Route.probes route, total obs "route_probes");
    ("route readmissions", Route.readmissions route, total obs "route_readmissions") ]
  @ List.map
      (fun o ->
        let label = Route.outcome_to_string o in
        ( "route reads " ^ label,
          Route.reads_by route o,
          total obs "route_reads" ~labels:[ ("outcome", label) ] ))
      [ Route.Replica; Route.Master; Route.Forced_poll ]

let evolution_facts system evo =
  [ ("evolution retirements", Evolution.retirements evo,
     total (Sys_.obs system) "evolution_retirements") ]

(* The E13 payroll run behind `cmtool stats`. *)
let stats_facts ~obs = system_facts (stats_run ~obs).Payroll.system

(* The durable run of the pinned digests, plus an unroutable send. *)
let durable_facts ~obs =
  let system, evo = durable_run ~unroutable:true ~obs () in
  system_facts system @ evolution_facts system evo

(* A monitored routed run: a silent drop gets the copy quarantined, a
   probe finds it still stale, a later probe readmits it, and a read
   under a partition from the master with an SLO no copy meets is a
   forced poll. *)
let routed_facts ~obs =
  let config =
    Sys_.Config.(seeded 1703 |> with_monitor true |> with_obs obs)
  in
  let p = Payroll.create ~config ~employees:1 () in
  Payroll.install_propagation p;
  let system = p.Payroll.system in
  let sim = Sys_.sim system in
  let nsw = Interface.no_spontaneous_write Payroll.target_pattern in
  Sys_.declare_interfaces system [ nsw ];
  let route = Route.create system ~constraints:[ ("Salary1", "Salary2") ] in
  Monitor.note_initial (Option.get (Sys_.monitor system)) p.Payroll.initial;
  let emp = List.hd p.Payroll.employees in
  let read ?within_kappa at =
    Sim.schedule_at sim at (fun () ->
        ignore (Route.read ?within_kappa route ~client_site:Payroll.site_b "Salary1"))
  in
  let health = Cm_core.Tr_relational.health p.Payroll.tr_a in
  Payroll.schedule_update p ~at:10.0 ~emp ~salary:1111;
  Sim.schedule_at sim 30.0 (fun () ->
      Cm_sources.Health.set health Cm_sources.Health.Silent_drop);
  Payroll.schedule_update p ~at:35.0 ~emp ~salary:2222;
  Sim.schedule_at sim 40.0 (fun () ->
      Cm_sources.Health.set health Cm_sources.Health.Healthy);
  Payroll.schedule_update p ~at:56.0 ~emp ~salary:3333;
  List.iter (fun at -> read at) [ 20.0; 48.0; 54.0; 62.0; 65.0 ];
  Sim.schedule_at sim 68.0 (fun () ->
      Net.partition_pair (Sys_.net system) ~site_a:Payroll.site_a
        ~site_b:Payroll.site_b ~until:75.0);
  read ~within_kappa:1.0 70.0;
  Sys_.run system ~until:80.0;
  system_facts system @ route_facts route

(* A 2-shard fabric: a four-site notification ring whose every hop
   crosses shards, over a lossy, duplicating network with a
   checkpointed journal, one crash and one partition. *)
let fabric_facts ~obs =
  let config =
    Sys_.Config.(
      seeded 77
      |> with_faults { Net.drop_prob = 0.1; dup_prob = 0.1 }
      |> with_durability Journal.Journal_with_checkpoint)
  in
  (* The fabric gives each shard a fresh registry when one is set. *)
  let config =
    if Obs.enabled obs then Sys_.Config.with_obs obs config else config
  in
  let index name = int_of_string (String.sub name 1 (String.length name - 1)) in
  let site i = Printf.sprintf "s%d" i and base i = Printf.sprintf "X%d" i in
  let fab =
    Fabric.create ~config ~shards:2
      ~assign:(fun s -> index s mod 2)
      (fun item -> site (index item.Item.base))
  in
  for i = 0 to 3 do
    ignore (Fabric.add_shell fab ~site:(site i))
  done;
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> j then
        Fabric.set_latency fab ~from_site:(site i) ~to_site:(site j)
          { Net.base = 0.4; jitter = 0.0 }
    done
  done;
  let rules =
    String.concat "\n"
      (List.init 4 (fun i ->
           Printf.sprintf "u%d: U(%s, v) ->[5] W(%s, v)" i (base i)
             (base ((i + 1) mod 4))))
  in
  Fabric.install fab
    { Strategy.strategy_name = "ring"; description = "cross-shard ring";
      rules = Parser.parse_rules rules; aux_init = [] };
  for k = 0 to 39 do
    let i = 2 * (k mod 2) in
    let s = site i in
    let emit = Shell.emitter_for (Fabric.shell_for fab ~site:s) ~site:s in
    Fabric.at fab ~site:s (1.0 +. (2.5 *. float_of_int k)) (fun () ->
        ignore
          (emit
             { Event.name = "U";
               args = [ Event.Ai (Item.make (base i)); Event.Av (Value.Int k) ] }
             ~kind:Event.Spontaneous))
  done;
  Fabric.schedule_crash fab ~site:(site 1) ~at:20.0;
  Fabric.schedule_restart fab ~site:(site 1) ~at:30.0;
  Fabric.schedule_partition fab ~from_site:(site 2) ~to_site:(site 3) ~at:50.0
    ~until:60.0;
  Fabric.run fab ~until:150.0;
  List.concat
    (List.init (Fabric.shard_count fab) (fun k ->
         List.map
           (fun (fact, v, reg) -> (Printf.sprintf "shard %d %s" k fact, v, reg))
           (system_facts (Fabric.system fab k))))

let scenarios =
  [ ("stats", stats_facts); ("durable", durable_facts); ("routed", routed_facts);
    ("fabric", fabric_facts) ]

let accessors_read_the_registry () =
  List.iter
    (fun (name, facts) ->
      List.iter
        (fun (fact, accessor, registry) ->
          Alcotest.(check int) (name ^ ": " ^ fact) registry accessor)
        (facts ~obs:(Obs.create ())))
    scenarios

let accessors_without_a_registry () =
  List.iter
    (fun (name, facts) ->
      let values fs = List.map (fun (fact, v, _) -> (fact, v)) fs in
      let with_registry = values (facts ~obs:(Obs.create ())) in
      let without = facts ~obs:Obs.noop in
      Alcotest.(check (list (pair string int)))
        (name ^ ": same values with no registry") with_registry (values without);
      List.iter
        (fun (fact, _, registry) ->
          Alcotest.(check int) (name ^ ": nothing exported for " ^ fact) 0 registry)
        without)
    scenarios

(* Together the scenarios make every converted counter count. *)
let scenarios_cover_every_tally () =
  let unshard fact =
    match String.split_on_char ' ' fact with
    | "shard" :: _ :: rest -> String.concat " " rest
    | _ -> fact
  in
  let facts =
    List.concat_map
      (fun (_, facts) ->
        List.map (fun (fact, v, _) -> (unshard fact, v)) (facts ~obs:Obs.noop))
      scenarios
  in
  List.iter
    (fun (fact, _) ->
      match String.split_on_char ' ' fact with
      | ("link" | "site") :: _ -> ()
      | _ ->
        Alcotest.(check bool) (fact ^ " counted somewhere") true
          (List.exists (fun (f, v) -> String.equal f fact && v > 0) facts))
    facts

(* ---- handles ---- *)

let unused_handle_adds_no_row () =
  let t = Obs.create () in
  let c = Obs.Counter.make t "c" ~labels:[ ("site", "sf") ] in
  let g = Obs.Gauge.make t "g" in
  let s = Obs.Series.make t "s" in
  Alcotest.(check int) "resolved, unused: no rows" 0
    (List.length (Obs.snapshot t));
  Obs.Counter.incr c;
  Alcotest.(check (list string)) "first use registers" [ "c" ]
    (List.map (fun r -> r.Obs.name) (Obs.snapshot t));
  Obs.Gauge.set g 2.0;
  Obs.Series.observe s 1.0;
  Alcotest.(check int) "one row per used handle" 3
    (List.length (Obs.snapshot t))

let handle_shares_cell_with_one_shot () =
  let t = Obs.create () in
  let h = Obs.Counter.make t "hits" ~labels:[ ("site", "sf"); ("rule", "r1") ] in
  Obs.Counter.incr h;
  Obs.incr t "hits" ~labels:[ ("rule", "r1"); ("site", "sf") ] ~by:2;
  Obs.Counter.incr h ~by:3;
  Alcotest.(check int) "one counter" 6
    (Obs.counter_value t "hits" ~labels:[ ("rule", "r1"); ("site", "sf") ]);
  let g = Obs.Gauge.make t "depth" ~labels:[ ("b", "2"); ("a", "1") ] in
  Obs.gauge t "depth" ~labels:[ ("a", "1"); ("b", "2") ] 5.0;
  Obs.Gauge.set g 7.0;
  Alcotest.(check (option (float 0.0))) "one gauge" (Some 7.0)
    (Obs.gauge_value t "depth" ~labels:[ ("a", "1"); ("b", "2") ]);
  let s = Obs.Series.make t "lat" ~labels:[ ("to", "ny"); ("from", "sf") ] in
  Obs.observe t "lat" ~labels:[ ("from", "sf"); ("to", "ny") ] 1.0;
  Obs.Series.observe s 2.0;
  Alcotest.(check (list (float 0.0))) "one series" [ 1.0; 2.0 ]
    (Obs.series_values t "lat" ~labels:[ ("from", "sf"); ("to", "ny") ]);
  Alcotest.(check int) "three rows" 3 (List.length (Obs.snapshot t))

let kind_mismatch_on_first_use () =
  let t = Obs.create () in
  Obs.incr t "x";
  Obs.gauge t "y" 1.0;
  (* Resolving is free of checks: the name may not be registered yet. *)
  let g = Obs.Gauge.make t "x" in
  let s = Obs.Series.make t "x" in
  let c = Obs.Counter.make t "y" in
  Alcotest.check_raises "gauge on a counter"
    (Invalid_argument "Obs.gauge: x is not a gauge") (fun () ->
      Obs.Gauge.set g 1.0);
  Alcotest.check_raises "series on a counter"
    (Invalid_argument "Obs.observe: x is not a series") (fun () ->
      Obs.Series.observe s 1.0);
  Alcotest.check_raises "counter on a gauge"
    (Invalid_argument "Obs.incr: y is not a counter") (fun () ->
      Obs.Counter.incr c);
  Alcotest.check_raises "one-shot shares the check"
    (Invalid_argument "Obs.incr: y is not a counter") (fun () ->
      Obs.incr t "y")

let noop_counter_counts_privately () =
  let c = Obs.Counter.make Obs.noop "c" ~labels:[ ("site", "sf") ] in
  for _ = 1 to 7 do
    Obs.Counter.incr c
  done;
  Obs.Counter.incr c ~by:3;
  Alcotest.(check int) "counts on noop" 10 (Obs.Counter.value c);
  let twin = Obs.Counter.make Obs.noop "c" ~labels:[ ("site", "sf") ] in
  Alcotest.(check int) "cell is private" 0 (Obs.Counter.value twin);
  Alcotest.(check int) "never exported" 0 (List.length (Obs.snapshot Obs.noop));
  let t = Obs.create () in
  let h = Obs.Counter.make t "hits" in
  Obs.incr t "hits" ~by:4;
  Alcotest.(check int) "unbumped handle reads the registry cell" 4
    (Obs.Counter.value h);
  Alcotest.(check int) "reading makes no row" 0
    (Obs.Counter.value (Obs.Counter.make t "misses"));
  Alcotest.(check (list string)) "only the bumped row" [ "hits" ]
    (List.map (fun r -> r.Obs.name) (Obs.snapshot t))

(* Words allocated by [f], net of the measurement itself. *)
let words f =
  let measure f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  measure f -. measure ignore

let noop_handles_allocate_nothing () =
  let c = Obs.Counter.make Obs.noop "c" ~labels:[ ("site", "sf") ] in
  let g = Obs.Gauge.make Obs.noop "g" in
  let s = Obs.Series.make Obs.noop "s" in
  let bumps () =
    for _ = 1 to 1000 do
      Obs.Counter.incr c;
      Obs.Gauge.set g 1.0;
      Obs.Series.observe s 1.0
    done
  in
  Alcotest.(check (float 0.0)) "1 000 noop bumps" 0.0 (words bumps)

(* ---- journal bytes and the noop path ---- *)

(* One record of every kind, checkpoints included, in a valid order. *)
let all_kinds =
  let rule =
    match Parser.parse_rules "r1: N(Salary1(n), b) ->[5] WR(Salary2(n), b)" with
    | [ r ] -> r
    | _ -> Alcotest.fail "rule text"
  in
  let item = Item.make "Flag" ~params:[ Value.Int 3 ] in
  let payload = Msg.Reset_notice { origin_site = "sf" } in
  let link =
    { Journal.peer = "ny"; next_mid = 4;
      unacked = [ (3, 1, 0, payload) ]; in_epoch = 1; in_expected = 2;
      delivered_mids = [ 0; 1 ] }
  in
  Journal.
    [
      Event { time = 0.5; site = "sf"; desc = "W(Flag(3), 1)" };
      Fire_sent { time = 0.5; rule_id = "r1"; to_site = "ny"; trigger_id = 1 };
      Store_write { time = 0.5; item; value = Value.Int 1 };
      Checkpoint
        { time = 1.0; incarnation = 0; store = [ (item, Value.Int 1) ];
          links = [ link ]; rule_epochs = []; active_epoch = 0 };
      Outbound
        { time = 1.25; to_site = "ny"; mid = 3; epoch = 0; seq = 2; payload };
      Acked { time = 1.5; to_site = "ny"; mid = 3 };
      Delivered
        { time = 1.5; from_site = "ny"; epoch = 0; seq = 0; mid = 0;
          applied = true };
      Restarted { time = 2.0; incarnation = 1 };
      Epoch_proposed { time = 3.0; epoch = 1; rules = [ rule ] };
      Epoch_cutover { time = 3.0; epoch = 1 };
      Epoch_rollback
        { time = 3.0; from_epoch = 1; to_epoch = 0; reason = "lost" };
      Epoch_retired { time = 4.0; epoch = 0 };
      Checkpoint
        { time = 5.0; incarnation = 1; store = [ (item, Value.Int 1) ];
          links = [ link ];
          rule_epochs =
            [ (0, Ep_retired, []); (1, Ep_active, [ rule ]) ];
          active_epoch = 1 };
    ]

let journal_bytes_on_read () =
  let obs = Obs.create () in
  let j = Journal.for_site (Journal.create_registry ~obs ()) ~site:"sf" in
  List.iter (Journal.append j) all_kinds;
  Alcotest.(check int) "all 12 kinds" 12
    (List.length
       (List.sort_uniq String.compare (List.map Journal.record_kind all_kinds)));
  Alcotest.(check int) "bytes = rendered journal"
    (String.length (Journal.to_string j))
    (Journal.stats j).Journal.bytes;
  let checkpoints =
    List.filter (function Journal.Checkpoint _ -> true | _ -> false) all_kinds
  in
  Alcotest.(check (list (float 0.0))) "checkpoint_bytes points"
    (List.map
       (fun c -> float_of_int (String.length (Journal.record_to_string c) + 1))
       checkpoints)
    (Obs.series_values obs "journal_checkpoint_bytes" ~labels:[ ("site", "sf") ])

let noop_journal_append_is_cheap () =
  let j = Journal.for_site (Journal.create_registry ()) ~site:"sf" in
  List.iter
    (fun r ->
      let w = words (fun () -> Journal.append j r) in
      if w >= 16.0 then
        Alcotest.failf "append of a %s record allocated %.0f words"
          (Journal.record_kind r) w)
    all_kinds

(* ---- CSV export ---- *)

(* An RFC 4180 record reader (no embedded newlines). *)
let csv_fields line =
  let n = String.length line in
  let fields = ref [] and buf = Buffer.create 16 in
  let push () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let rec field i = if i < n && line.[i] = '"' then quoted (i + 1) else plain i
  and plain i =
    if i >= n then push ()
    else if line.[i] = ',' then (push (); field (i + 1))
    else (Buffer.add_char buf line.[i]; plain (i + 1))
  and quoted i =
    if i >= n then Alcotest.failf "unterminated quote in %S" line
    else if line.[i] <> '"' then (Buffer.add_char buf line.[i]; quoted (i + 1))
    else if i + 1 < n && line.[i + 1] = '"' then (Buffer.add_char buf '"'; quoted (i + 2))
    else if i + 1 >= n then push ()
    else if line.[i + 1] = ',' then (push (); field (i + 2))
    else Alcotest.failf "text after a closing quote in %S" line
  in
  field 0;
  List.rev !fields

(* Every row has the header's column count; returns the rows. *)
let parse_csv csv =
  match List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) with
  | [] -> Alcotest.fail "empty CSV"
  | header :: lines ->
    let width = List.length (csv_fields header) in
    List.map
      (fun line ->
        let fields = csv_fields line in
        Alcotest.(check int) ("columns of " ^ line) width (List.length fields);
        fields)
      lines

let csv_quotes_label_values () =
  let t = Obs.create () in
  Obs.incr t "monitor_violations" ~labels:[ ("left", "Salary1(\"e1\")") ];
  let id = Obs.span t ~name:"fire" ~at:0.0 ~labels:[ ("rule", "r,1") ] in
  Obs.end_span t ~id ~at:1.0;
  (match parse_csv (Obs.snapshot_to_csv t) with
   | [ row ] ->
     Alcotest.(check string) "counter label" "left=Salary1(\"e1\")" (List.nth row 1)
   | rows -> Alcotest.failf "%d snapshot rows" (List.length rows));
  match parse_csv (Obs.spans_to_csv t) with
  | [ row ] -> Alcotest.(check string) "span label" "rule=r,1" (List.nth row 3)
  | rows -> Alcotest.failf "%d span rows" (List.length rows)

(* Closing by id: 0 and ids never issued are ignored, and closing a
   closed span moves its end to the later call's time. *)
let end_span_by_id () =
  let t = Obs.create () in
  let a = Obs.span t ~name:"fire" ~at:1.0 in
  let b = Obs.span t ~parent:a ~name:"execute" ~at:2.0 in
  let ends () = List.map (fun s -> s.Obs.ended) (Obs.spans t) in
  List.iter (fun id -> Obs.end_span t ~id ~at:9.0) [ 0; -1; 3; 1000 ];
  Alcotest.(check (list (option (float 0.0)))) "0 and unknown ids ignored"
    [ None; None ] (ends ());
  Obs.end_span t ~id:b ~at:3.0;
  Obs.end_span t ~id:a ~at:4.0;
  Alcotest.(check (list (option (float 0.0)))) "closed by id"
    [ Some 4.0; Some 3.0 ] (ends ());
  Obs.end_span t ~id:a ~at:5.0;
  Alcotest.(check (list (option (float 0.0)))) "closing again moves the end"
    [ Some 5.0; Some 3.0 ] (ends ());
  let c = Obs.span t ~name:"fire" ~at:6.0 in
  Alcotest.(check int) "ids continue" 3 c

(* Labels are canonical whatever order a call site passes them in. *)
let span_label_order () =
  let labels = [ ("rule", "r1"); ("site", "a"); ("to", "b"); ("trigger", "7") ] in
  let json order =
    let t = Obs.create () in
    for i = 0 to 99 do
      let id = Obs.span t ~name:"fire" ~at:(float_of_int i) ~labels:(order labels) in
      Obs.end_span t ~id ~at:(float_of_int (i + 1))
    done;
    Obs.spans_to_json t
  in
  let canonical = json Fun.id in
  List.iter
    (fun (what, order) -> Alcotest.(check string) what canonical (json order))
    [ ("reversed", List.rev);
      ("rotated", fun l -> List.tl l @ [ List.hd l ]);
      ("duplicate key, first wins", fun l -> l @ [ ("site", "z") ]) ]

(* An enabled span open and close, labels already canonical: the span
   record and its end time's option, 9 words.  Sorting the labels or
   walking a list to find the span would add to it. *)
let span_allocation () =
  let t = Obs.create () in
  let labels = [ ("rule", "r1"); ("site", "a") ] in
  let at = 1.0 in
  let spans = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to spans do
    let id = Obs.span t ~name:"fire" ~at ~labels in
    Obs.end_span t ~id ~at
  done;
  let per_span = (Gc.minor_words () -. before) /. float_of_int spans in
  if per_span > 12.0 then
    Alcotest.failf "span + end_span allocates %.1f words (bound 12)" per_span;
  Alcotest.(check int) "all recorded" spans (List.length (Obs.spans t))

(* ---- no-op mode ---- *)

let noop_mode () =
  Alcotest.(check bool) "noop disabled" false (Obs.enabled Obs.noop);
  Alcotest.(check bool) "create enabled" true (Obs.enabled (Obs.create ()));
  Obs.incr Obs.noop "x";
  Obs.gauge Obs.noop "g" 1.0;
  Obs.observe Obs.noop "s" 1.0;
  Alcotest.(check int) "span id is the 0 sentinel" 0
    (Obs.span Obs.noop ~name:"fire" ~at:0.0);
  Obs.end_span Obs.noop ~id:0 ~at:1.0;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.snapshot Obs.noop));
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans Obs.noop));
  (* Systems built without ?obs run on the shared noop registry. *)
  let p = Payroll.create ~config:(Sys_.Config.seeded 5) ~employees:1 () in
  Alcotest.(check bool) "default system is noop" false
    (Obs.enabled (Sys_.obs p.Payroll.system))

let () =
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    List.iter
      (fun (name, run, _, _) ->
        let obs = run () in
        Printf.printf "%s %s %s\n%!" (md5 (Obs.snapshot_to_json obs))
          (md5 (Obs.spans_to_json obs)) name)
      golden_runs;
    exit 0
  end;
  Alcotest.run "cm_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "label merging" `Quick label_merging;
          Alcotest.test_case "instruments" `Quick instruments;
        ] );
      ( "spans",
        [
          Alcotest.test_case "parent-child invariants" `Quick span_invariants;
          Alcotest.test_case "counters wired" `Quick counters_wired;
          Alcotest.test_case "end_span by id" `Quick end_span_by_id;
          Alcotest.test_case "label order" `Quick span_label_order;
          Alcotest.test_case "span allocation" `Quick span_allocation;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "snapshot determinism" `Quick snapshot_determinism;
          Alcotest.test_case "observation transparent" `Quick
            observation_transparent;
        ] );
      ("noop", [ Alcotest.test_case "zero-overhead mode" `Quick noop_mode ]);
      ( "golden",
        [
          Alcotest.test_case "snapshot and spans digests" `Quick golden_digests;
          Alcotest.test_case "durable run covers the handles" `Quick
            durable_run_covers_handles;
        ] );
      ( "handles",
        [
          Alcotest.test_case "unused handle adds no row" `Quick
            unused_handle_adds_no_row;
          Alcotest.test_case "handle and one-shot share a cell" `Quick
            handle_shares_cell_with_one_shot;
          Alcotest.test_case "kind mismatch on first use" `Quick
            kind_mismatch_on_first_use;
          Alcotest.test_case "noop bumps allocate nothing" `Quick
            noop_handles_allocate_nothing;
          Alcotest.test_case "noop counter counts privately" `Quick
            noop_counter_counts_privately;
        ] );
      ( "single tally",
        [
          Alcotest.test_case "accessors read the registry" `Quick
            accessors_read_the_registry;
          Alcotest.test_case "same accessors without a registry" `Quick
            accessors_without_a_registry;
          Alcotest.test_case "scenarios cover every tally" `Quick
            scenarios_cover_every_tally;
        ] );
      ( "csv",
        [ Alcotest.test_case "quoted label values" `Quick csv_quotes_label_values ] );
      ( "journal",
        [
          Alcotest.test_case "bytes computed on read" `Quick
            journal_bytes_on_read;
          Alcotest.test_case "noop append allocates < 16 words" `Quick
            noop_journal_append_is_cheap;
        ] );
    ]
