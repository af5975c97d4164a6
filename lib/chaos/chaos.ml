module Sim = Cm_sim.Sim
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Net = Cm_net.Net
module Reliable = Cm_core.Reliable
module Journal = Cm_core.Journal
module Recovery = Cm_core.Recovery
module Msg = Cm_core.Msg
module Guarantee = Cm_core.Guarantee
module Evolution = Cm_core.Evolution
module Strategy = Cm_core.Strategy
module Prng = Cm_util.Prng
module Monitor = Cm_core.Monitor
module Obs = Cm_core.Obs
module Tr_rel = Cm_core.Tr_relational
module Health = Cm_sources.Health
module Route = Cm_route.Route
module Fabric = Cm_shard.Shard.Fabric
module Pw = Cm_workload.Payroll
module Bw = Cm_workload.Bank
module Readers = Cm_workload.Readers

type workload = Payroll | Bank

let workload_to_string = function Payroll -> "payroll" | Bank -> "bank"

let workload_of_string s : workload option =
  match String.lowercase_ascii s with
  | "payroll" -> Some Payroll
  | "bank" -> Some Bank
  | _ -> None

type crash_plan = { crashes : int; crash_min_len : float; crash_max_len : float }

type mode =
  | Payroll_faults of { plan : crash_plan; churn : int }
  | Bank_faults of crash_plan
  | Heal
  | Ring of { sites : int; shards : int; crashes : int }

type spec = { seed : int; events : int; durability : Journal.durability; mode : mode }

let default_spec =
  {
    seed = 42;
    events = 200;
    durability = Journal.Journal_with_checkpoint;
    mode =
      Payroll_faults
        { plan = { crashes = 5; crash_min_len = 10.0; crash_max_len = 60.0 }; churn = 0 };
  }

(* Malformed specs are refused up front, naming the field, rather than
   escaping later from deep inside schedule derivation (or, for crash
   lengths, surfacing as a restart scheduled before its crash). *)
let refuse fmt = Printf.ksprintf (fun s -> invalid_arg ("Chaos.run: " ^ s)) fmt

let require_at_least field ~min v =
  if v < min then refuse "%s must be >= %d (got %d)" field min v

let require_length field v =
  if not (Float.is_finite v && v >= 0.0) then
    refuse "%s must be finite and >= 0 (got %g)" field v

let validate spec =
  require_at_least "events" ~min:0 spec.events;
  let plan p =
    require_at_least "crashes" ~min:0 p.crashes;
    require_length "crash_min_len" p.crash_min_len;
    require_length "crash_max_len" p.crash_max_len;
    if p.crash_min_len > p.crash_max_len then
      refuse "crash_min_len must be <= crash_max_len (got %g > %g)" p.crash_min_len
        p.crash_max_len
  in
  match spec.mode with
  | Payroll_faults { plan = p; churn } ->
    plan p;
    require_at_least "churn" ~min:0 churn
  | Bank_faults p -> plan p
  | Heal -> ()
  | Ring { sites; shards; crashes } ->
    require_at_least "sites" ~min:4 sites;
    require_at_least "shards" ~min:1 shards;
    require_at_least "crashes" ~min:0 crashes

type invariant = { inv_name : string; ok : bool; detail : string }

type observed = {
  fires : int;
  logical_notices : int;
  metric_notices : int;
  transport_pending : int;
  retransmits : int;
  epoch_rejections : int;
  requeued : int;
  give_ups : int;
  suspects : int;
  recoveries : int;
  endpoint_down_at_send : int;
  endpoint_down_in_flight : int;
  journal_appends : int;
  journal_checkpoints : int;
  replayed_records : int;
}

type evolution = {
  cutovers : int;
  epoch_retirements : int;
  stale_epoch_rejections : int;
  both_epoch_guarantees : string list;
  both_epoch_violations : string list;
}

type recovery = {
  oracle : observed;
  chaos : observed;
  lost_firings : int;
  duplicate_firings : int;
  final_state_matches : bool;
  safety_violations : int;
  evolution : evolution option;
}

type healing = {
  kappa : float;
  reads : int;
  replica_reads : int;
  master_reads : int;
  poll_reads : int;
  stale_serves : int;
  quarantines : int;
  probes : int;
  readmissions : int;
  stale_onsets : float list;
  stream_violations : int;
  rollbacks : int;
  rollback_journaled : bool;
  final_epoch : int;
  fold_mismatches : string list;
}

type sharded = {
  digest : string;
  trace_events : int;
  ring_fires : int;
  restarts : int;
  recovered_crashes : int;
  replayed : int;
  live_during_crash : int;
}

type result = Recovered of recovery | Healed of healing | Sharded of sharded

type report = {
  spec : spec;
  schedule : string list;
  horizon : float;
  result : result;
  invariants : invariant list;
}

(* ------------------------------------------------------------------ *)
(* Schedule derivation — a pure function of the spec                   *)
(* ------------------------------------------------------------------ *)

(* One workload operation; values are drawn up front so the oracle and
   the faulty run inject the exact same stream. *)
type op = { op_at : float; op_slot : int; op_value : int }

(* One timed injection, in absolute simulation time.  Crash, loss and
   partition windows are faults (the faulty run only); a cutover is
   rule churn (workload, so the oracle runs it too); the last three are
   the heal adversary. *)
type injection =
  | Crash of { site : string; at : float; restart_at : float }
  | Loss_window of { at : float; until : float; drop : float; dup : float }
  | Partition of { at : float; until : float }
  | Cutover of { at : float; variant : string }
  | Silent_drop of { at : float; until : float }
  | Bad_cutover of { at : float }
  | Flush of { at : float }

type schedule = {
  ops : op list;
  inject_end : float;
  injections : injection list;
  horizon : float;  (* the run quiesces here *)
  rng : Prng.t;
      (* the mode's stream past its up-front draws: heal's open-loop
         readers keep drawing from it during the run *)
}

(* (start, end) of an injection; instants start and end together. *)
let span = function
  | Crash { at; restart_at = e; _ }
  | Loss_window { at; until = e; _ }
  | Partition { at; until = e }
  | Silent_drop { at; until = e } ->
    (at, e)
  | Cutover { at; _ } | Bad_cutover { at } | Flush { at } -> (at, at)

let cutovers sched =
  List.filter_map
    (function Cutover { at; variant } -> Some (at, variant) | _ -> None)
    sched.injections

let employees = [| "e1"; "e2"; "e3"; "e4"; "e5" |]

let fault_sites = function
  | Payroll -> [ Pw.site_a; Pw.site_b ]
  | Bank -> [ "branch_a"; "branch_b" ]

(* Master stream is split once per concern, in a fixed order, so the op
   stream never shifts when the fault generator draws more or less.  The
   churn stream splits after faults for the same reason: a spec with
   churn = 0 derives the exact ops and faults it did before churn
   existed.  The heal stream (silent-drop windows, bad cutover, reader
   traffic) splits last, so pre-heal specs keep their exact schedules
   and reports. *)
let streams spec =
  let master = Prng.create ~seed:spec.seed in
  let ops = Prng.split master in
  let faults = Prng.split master in
  let churn = Prng.split master in
  let heal = Prng.split master in
  (ops, faults, churn, heal)

let derive_ops spec workload rng =
  let t = ref 5.0 in
  let ops =
    List.init spec.events (fun _ ->
        t := !t +. Prng.uniform_in rng ~lo:0.5 ~hi:2.5;
        let op_slot, op_value =
          match workload with
          | Payroll -> (Prng.int rng (Array.length employees), 1000 + Prng.int rng 9000)
          | Bank ->
            (* side 0 = X (constrained above), side 1 = Y (below). *)
            let side = Prng.int rng 2 in
            let v =
              if side = 0 then Prng.int rng 100 else 20 + Prng.int rng 180
            in
            (side, v)
        in
        { op_at = !t; op_slot; op_value })
  in
  (ops, !t)

(* A window duration drawn from [lo, hi] where hi shrinks with the slot:
   on a short injection span lo is capped at hi, so the window never
   outgrows its slot (and never starts before it). *)
let window_len rng ~lo ~hi = Prng.uniform_in rng ~lo:(Float.min lo hi) ~hi

let derive_faults spec plan rng ~inject_end ~sites =
  let sites = Array.of_list sites in
  let crashes =
    if plan.crashes = 0 then []
    else begin
      (* One crash per equal slot of the injection span: windows cannot
         overlap, so exactly one site is down at any time. *)
      let slot = inject_end /. float_of_int plan.crashes in
      List.init plan.crashes (fun i ->
          let s = float_of_int i *. slot in
          let dur =
            Float.min
              (Prng.uniform_in rng ~lo:plan.crash_min_len ~hi:plan.crash_max_len)
              (0.8 *. slot)
          in
          let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
          let site = Prng.pick rng sites in
          Crash { site; at; restart_at = at +. dur })
    end
  in
  let n_loss = 1 + (spec.events / 500) in
  let loss =
    let slot = inject_end /. float_of_int n_loss in
    List.init n_loss (fun i ->
        let s = float_of_int i *. slot in
        let dur = window_len rng ~lo:10.0 ~hi:(Float.min 50.0 (0.8 *. slot)) in
        let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
        let drop = 0.05 +. Prng.float rng 0.1 in
        let dup = Prng.float rng 0.05 in
        Loss_window { at; until = at +. dur; drop; dup })
  in
  let n_part = 1 + (spec.events / 1000) in
  let partitions =
    let slot = inject_end /. float_of_int n_part in
    List.init n_part (fun i ->
        let s = float_of_int i *. slot in
        let dur = window_len rng ~lo:5.0 ~hi:(Float.min 30.0 (0.5 *. slot)) in
        let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
        Partition { at; until = at +. dur })
  in
  List.stable_sort
    (fun a b -> Float.compare (fst (span a)) (fst (span b)))
    (crashes @ loss @ partitions)

(* The three strategy variants churned between; the base program is
   "propagate", and each draw picks a variant different from the one
   currently active, so every churn event is a real program change. *)
let churn_variants = [| "propagate"; "propagate-cached"; "poll" |]

let derive_churn churn rng ~inject_end =
  (* Times first, then variants, so neither draw shifts the other. *)
  let times =
    List.init churn (fun _ ->
        Prng.uniform_in rng ~lo:(0.15 *. inject_end) ~hi:(0.95 *. inject_end))
    |> List.sort Float.compare
  in
  let prev = ref "propagate" in
  List.map
    (fun at ->
      let others =
        Array.to_list churn_variants
        |> List.filter (fun v -> not (String.equal v !prev))
        |> Array.of_list
      in
      let variant = others.(Prng.int rng (Array.length others)) in
      prev := variant;
      Cutover { at; variant })
    times

(* Windows are long relative to κ (~10 s for the payroll program) so a
   write dropped early in a window is guaranteed to age out of the κ
   horizon before the window lifts — each window should produce a real
   staleness onset, not just a near miss. *)
let derive_drops spec rng ~inject_end =
  let n = 2 + (spec.events / 200) in
  let slot = inject_end /. float_of_int n in
  List.init n (fun i ->
      let s = float_of_int i *. slot in
      let hi = Float.min 45.0 (0.7 *. slot) in
      let dur = Prng.uniform_in rng ~lo:(Float.min 20.0 (0.5 *. hi)) ~hi in
      let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
      Silent_drop { at; until = at +. dur })

let latest injections ~from =
  List.fold_left (fun acc i -> Float.max acc (snd (span i))) from injections

(* Quiescence margin after the last injection: long enough for the full
   retransmission chain (~75 s) plus recovery re-queues to drain. *)
let drain = 300.0

let ring_site i = Printf.sprintf "s%d" i
let ring_base i = Printf.sprintf "X%d" i

(* Ring ops and faults come from keyed streams (never the run's own
   wheels), so the schedule is identical at every shard count.  Distinct
   fractional offsets keep op times, crash instants and deliveries off
   shared instants — cross-layout digest equality needs causally
   unrelated events to stay on distinct times. *)
let derive_ring spec ~sites ~crashes =
  let ops_rng = Prng.of_key ~seed:spec.seed "shard-chaos-ops" in
  let ops =
    List.init spec.events (fun idx ->
        let slot = 2 * Prng.int ops_rng ((sites + 1) / 2) in
        {
          op_at = 2.0 +. (0.83 *. float_of_int idx) +. (0.0019 *. float_of_int slot);
          op_slot = slot;
          op_value = 1000 + (idx * 13) + slot;
        })
  in
  let last_op = List.fold_left (fun acc o -> Float.max acc o.op_at) 0.0 ops in
  let rng = Prng.of_key ~seed:spec.seed "shard-chaos-faults" in
  let cursor = ref 8.0 in
  let crash_list =
    List.init crashes (fun _ ->
        let site = ring_site ((2 * Prng.int rng (sites / 2)) + 1) in
        let at = !cursor +. 2.0 +. float_of_int (Prng.int rng 4) +. 0.41 in
        let len = 6.0 +. float_of_int (Prng.int rng 10) +. 0.27 in
        cursor := at +. len +. 3.0;
        Crash { site; at; restart_at = at +. len })
  in
  let injections =
    if crashes = 0 then []
    else
      (* one partitioned ring edge (even source -> odd target) for
         mirrored-flag coverage *)
      let at = 5.0 +. float_of_int (Prng.int rng 6) +. 0.19 in
      crash_list @ [ Partition { at; until = at +. 6.0 } ]
  in
  let horizon = latest injections ~from:last_op +. 40.0 in
  { ops; inject_end = last_op; injections; horizon; rng }

let derive spec =
  let ops_rng, fault_rng, churn_rng, heal_rng = streams spec in
  let fault_schedule workload plan =
    let ops, inject_end = derive_ops spec workload ops_rng in
    let faults =
      derive_faults spec plan fault_rng ~inject_end ~sites:(fault_sites workload)
    in
    let horizon = latest faults ~from:inject_end +. drain in
    { ops; inject_end; injections = faults; horizon; rng = fault_rng }
  in
  match spec.mode with
  | Payroll_faults { plan; churn } ->
    let s = fault_schedule Payroll plan in
    let churns = derive_churn churn churn_rng ~inject_end:s.inject_end in
    { s with injections = s.injections @ churns }
  | Bank_faults plan -> fault_schedule Bank plan
  | Heal ->
    (* Drops first, then the bad-cutover instant, so neither draw shifts
       the other; the reader arrivals consume the same stream lazily
       during the run, after both up-front draws.  The flush lands one
       fresh value per employee after the last drop window. *)
    let ops, inject_end = derive_ops spec Payroll ops_rng in
    let drops = derive_drops spec heal_rng ~inject_end in
    let bad_at =
      Prng.uniform_in heal_rng ~lo:(0.3 *. inject_end) ~hi:(0.7 *. inject_end)
    in
    let flush_at = latest drops ~from:inject_end +. 10.0 in
    {
      ops;
      inject_end;
      injections = drops @ [ Bad_cutover { at = bad_at }; Flush { at = flush_at } ];
      horizon = flush_at +. 60.0;
      rng = heal_rng;
    }
  | Ring { sites; crashes; _ } -> derive_ring spec ~sites ~crashes

let injection_to_string = function
  | Crash { site; at; restart_at } ->
    Printf.sprintf "crash %s @ %.2f -> restart @ %.2f" site at restart_at
  | Loss_window { at; until; drop; dup } ->
    Printf.sprintf "loss drop=%.3f dup=%.3f @ %.2f -> %.2f" drop dup at until
  | Partition { at; until } -> Printf.sprintf "partition @ %.2f -> %.2f" at until
  | Cutover { at; variant } -> Printf.sprintf "cutover to %s @ %.2f" variant at
  | Silent_drop { at; until } -> Printf.sprintf "silent-drop @ %.2f -> %.2f" at until
  | Bad_cutover { at } -> Printf.sprintf "bad cutover (drop-propagation) @ %.2f" at
  | Flush { at } -> Printf.sprintf "flush @ %.2f" at

(* Rule churn is listed under its own heading after the faults. *)
let schedule_lines injections =
  let rec go churn_heading = function
    | [] -> []
    | (Cutover _ :: _) as rest when not churn_heading -> "rule churn:" :: go true rest
    | i :: rest -> ("  " ^ injection_to_string i) :: go churn_heading rest
  in
  go false injections

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let chaos_config (spec : spec) =
  Sys_.Config.(
    seeded spec.seed
    |> with_reliable Reliable.default_config
    |> with_durability spec.durability)

(* Schedule the fault injections on one system; the partition target
   depends on the workload's site names. *)
let apply_faults system ~site_pair injections =
  let sim = Sys_.sim system and net = Sys_.net system in
  let sa, sb = site_pair in
  List.iter
    (function
      | Crash { site; at; restart_at } ->
        Sim.schedule_at sim at (fun () -> Sys_.crash_site system ~site);
        Sim.schedule_at sim restart_at (fun () -> Sys_.restart_site system ~site)
      | Loss_window { at; until; drop; dup } ->
        Sim.schedule_at sim at (fun () ->
            Net.set_default_faults net { Net.drop_prob = drop; dup_prob = dup });
        Sim.schedule_at sim until (fun () -> Net.set_default_faults net Net.no_faults)
      | Partition { at; until } ->
        Sim.schedule_at sim at (fun () ->
            Net.partition_pair net ~site_a:sa ~site_b:sb ~until)
      | Cutover _ | Silent_drop _ | Bad_cutover _ | Flush _ -> ())
    injections

(* The observe step: arm the failure-notice counters now, and return
   the thunk that reads notice, transport, journal and recovery counters
   after quiescence. *)
let observer system ~sites shells =
  let logical = ref 0 and metric = ref 0 in
  List.iter
    (fun shell ->
      Shell.on_failure_notice shell (fun ~origin:_ -> function
        | Msg.Logical -> incr logical
        | Msg.Metric -> incr metric))
    shells;
  fun () ->
    let pending, stats =
      match Sys_.reliable system with
      | None -> (0, None)
      | Some r -> (Reliable.pending r, Some (Reliable.stats r))
    in
    let transport f = match stats with None -> 0 | Some s -> f s in
    let journal f =
      match Sys_.journals system with
      | None -> 0
      | Some reg ->
        List.fold_left
          (fun acc site -> acc + f (Journal.stats (Journal.for_site reg ~site)))
          0 sites
    in
    let net = Sys_.net system in
    {
      fires = List.fold_left (fun acc sh -> acc + Shell.fires_executed sh) 0 shells;
      logical_notices = !logical;
      metric_notices = !metric;
      transport_pending = pending;
      retransmits = transport (fun s -> s.Reliable.retransmits);
      epoch_rejections = transport (fun s -> s.Reliable.epoch_rejections);
      requeued = transport (fun s -> s.Reliable.requeued);
      give_ups = transport (fun s -> s.Reliable.give_ups);
      suspects = transport (fun s -> s.Reliable.suspects);
      recoveries = transport (fun s -> s.Reliable.recoveries);
      endpoint_down_at_send = Net.endpoint_down_at_send net;
      endpoint_down_in_flight = Net.endpoint_down_in_flight net;
      journal_appends = journal (fun s -> s.Journal.appends);
      journal_checkpoints = journal (fun s -> s.Journal.checkpoints);
      replayed_records =
        (match Sys_.recovery system with
        | None -> 0
        | Some r -> (Recovery.stats r).Recovery.replayed_records);
    }

let copy_pair = ("Salary1", "Salary2")

type payroll_world = {
  p : Pw.t;
  evo : Evolution.t;
  observe : unit -> observed;
}

(* The payroll world both payroll modes run, with its ops scheduled and
   the copy declared.  The payroll bindings never declare a
   no-spontaneous-write interface on the target, but in this harness it
   is true by construction: the op stream only updates site A.  Without
   the declaration the prover (correctly, conservatively) refuses every
   follows-style guarantee — the both-epoch invariant would be vacuous
   and no κ could be proved. *)
let payroll_world ~config ?required sched =
  let p = Pw.create ~config ~employees:(Array.length employees) () in
  Pw.install_propagation p;
  let observe =
    observer p.Pw.system ~sites:(fault_sites Payroll) [ p.Pw.shell_a; p.Pw.shell_b ]
  in
  List.iter
    (fun op ->
      Pw.schedule_update p ~at:op.op_at ~emp:employees.(op.op_slot) ~salary:op.op_value)
    sched.ops;
  Sys_.declare_interfaces p.Pw.system
    [ Cm_core.Interface.no_spontaneous_write Pw.target_pattern ];
  Sys_.declare_copies p.Pw.system [ copy_pair ];
  { p; evo = Evolution.create ?required p.Pw.system; observe }

let cutover_at sim evo ~at strategy =
  Sim.schedule_at sim at (fun () ->
      match Evolution.evolve ~quiesce:false evo strategy with
      | Ok _ -> ()
      | Error e -> failwith ("Chaos: cutover failed: " ^ e))

(* Retire every drained epoch at one fixed instant, identical in the
   oracle and the faulty run, so neither still has old-epoch envelopes
   on the wire (stale rejection under adversarial timing is exercised by
   the unit tests, not here — a rejection on one side only would
   masquerade as message loss). *)
let retire_draining_at sim evo ~at =
  Sim.schedule_at sim at (fun () ->
      List.iter
        (fun epoch ->
          match Evolution.retire evo ~epoch with
          | Ok () -> ()
          | Error e -> failwith ("Chaos: retire failed: " ^ e))
        (Evolution.draining evo))

(* Build the i-th churned strategy.  Prefixes carry the epoch index so
   every epoch's rule ids are distinct in journals and traces; the cache
   of a cached epoch is likewise per-epoch (its aux_init re-initializes
   it at cutover anyway). *)
let churn_strategy i variant =
  let pfx = Printf.sprintf "churn%d" (i + 1) in
  match variant with
  | "propagate" ->
    Strategy.propagate ~prefix:pfx ~delta:5.0 ~source:Pw.source_pattern
      ~target:Pw.target_pattern ()
  | "propagate-cached" ->
    Strategy.propagate_cached ~prefix:pfx ~delta:5.0 ~source:Pw.source_pattern
      ~target:Pw.target_pattern
      ~cache:(Printf.sprintf "SalCache%d" (i + 1))
      ()
  | "poll" ->
    (* Read requests must name concrete items (cf. Payroll.install_polling). *)
    Strategy.combine
      (List.map
         (fun emp ->
           let concrete base =
             Cm_rule.Expr.Item (base, [ Cm_rule.Expr.Const (Cm_rule.Value.Str emp) ])
           in
           Strategy.poll
             ~prefix:(pfx ^ "_" ^ emp)
             ~period:20.0 ~delta:5.0 ~source:(concrete "Salary1")
             ~target:(concrete "Salary2") ())
         (Array.to_list employees))
  | v -> invalid_arg ("Chaos.churn_strategy: unknown variant " ^ v)

let guarantee_of_name name emp =
  let pair =
    { Guarantee.leader = Pw.source_item emp; follower = Pw.target_item emp }
  in
  match name with
  | "(1) follows" -> Some (Guarantee.Follows pair)
  | "(2) leads" -> Some (Guarantee.Leads pair)
  | "(3) strictly-follows" -> Some (Guarantee.Strictly_follows pair)
  | _ -> None  (* metric guarantees are excused under faults (§5) *)

(* Guarantees claimed Kept by BOTH epochs of EVERY transition — i.e.
   proved under every rule program that was ever active in the run.
   These must hold on the observed timeline despite churn and faults. *)
let both_epoch_kept transitions =
  match List.map Evolution.kept_names transitions with
  | [] -> []
  | first :: rest ->
    List.filter (fun n -> List.for_all (fun s -> List.mem n s) rest) first

(* What the invariants compare between the oracle and the faulty run. *)
type outcome = {
  observed : observed;
  final : (string * float) list;  (* canonical final state *)
  follows_valid : bool;
  violations : int;  (* bank: sampled X > Y instants *)
  evo_result : evolution option;
}

let run_payroll spec sched ~faulty =
  let w = payroll_world ~config:(chaos_config spec) sched in
  let p = w.p in
  let g_follows =
    Sys_.declare_guarantee p.Pw.system ~sites:(fault_sites Payroll)
      (Guarantee.Follows
         { Guarantee.leader = Pw.source_item "e1"; follower = Pw.target_item "e1" })
  in
  let sim = Sys_.sim p.Pw.system in
  if faulty then
    apply_faults p.Pw.system ~site_pair:(Pw.site_a, Pw.site_b) sched.injections;
  let churns = cutovers sched in
  List.iteri
    (fun i (at, variant) -> cutover_at sim w.evo ~at (churn_strategy i variant))
    churns;
  (* Well past the last fault window plus the full retransmission-and-
     requeue chain. *)
  if churns <> [] then retire_draining_at sim w.evo ~at:(sched.horizon -. (drain /. 2.0));
  Sys_.run p.Pw.system ~until:sched.horizon;
  let transitions = Evolution.transitions w.evo in
  let both_kept =
    List.filter
      (fun n -> Option.is_some (guarantee_of_name n "e1"))
      (both_epoch_kept transitions)
  in
  let both_violations =
    List.concat_map
      (fun name ->
        List.filter_map
          (fun emp ->
            match guarantee_of_name name emp with
            | None -> None
            | Some g ->
              let rep =
                Sys_.check_guarantee ~initial:p.Pw.initial
                  ~ignore_after:sched.inject_end p.Pw.system g
              in
              if rep.Guarantee.holds then None
              else
                Some
                  (Printf.sprintf "%s[%s]: %s" name emp
                     (String.concat "; " rep.Guarantee.counterexamples)))
          (Array.to_list employees))
      both_kept
  in
  {
    observed = w.observe ();
    final =
      List.map
        (fun emp -> (emp, Cm_rule.Value.to_float (Pw.salary_at p `B emp)))
        (Array.to_list employees);
    follows_valid = Sys_.guarantee_valid g_follows;
    violations = 0;
    evo_result =
      Some
        {
          cutovers = List.length transitions;
          epoch_retirements = Evolution.retirements w.evo;
          stale_epoch_rejections = Evolution.stale_rejections w.evo;
          both_epoch_guarantees = both_kept;
          both_epoch_violations = both_violations;
        };
  }

let run_bank spec sched ~faulty =
  let b =
    Bw.create ~config:(chaos_config spec) ~policy:Cm_core.Demarcation.Conservative ()
  in
  let observe =
    observer b.Bw.system ~sites:(fault_sites Bank) [ b.Bw.shell_a; b.Bw.shell_b ]
  in
  let sim = Sys_.sim b.Bw.system in
  List.iter
    (fun op ->
      Sim.schedule_at sim op.op_at (fun () ->
          if op.op_slot = 0 then ignore (Bw.try_set_x b op.op_value)
          else ignore (Bw.try_set_y b op.op_value)))
    sched.ops;
  (* The X <= Y safety claim is sampled rather than event-checked: the
     demarcation protocol must keep it true at every instant, crashes or
     not, because limits only ever move in the safe direction first. *)
  let violations = ref 0 in
  Sim.every sim ~period:1.0
    (fun () -> if Bw.x_bal b > Bw.y_bal b then incr violations)
    ~cancel:(fun () -> false);
  if faulty then
    apply_faults b.Bw.system ~site_pair:("branch_a", "branch_b") sched.injections;
  Sys_.run b.Bw.system ~until:sched.horizon;
  {
    observed = observe ();
    final =
      [ ("x_bal", Bw.x_bal b); ("y_bal", Bw.y_bal b);
        ("x_lim", Bw.x_lim b); ("y_lim", Bw.y_lim b) ];
    follows_valid = true;
    violations = !violations;
    evo_result = None;
  }

let inv inv_name ok detail = { inv_name; ok; detail }

let recovery_invariants spec sched ~plan ~oracle ~chaos =
  let durable = spec.durability <> Journal.None in
  let o = oracle.observed and c = chaos.observed in
  let lost = max 0 (o.fires - c.fires) in
  let dup = max 0 (c.fires - o.fires) in
  (* Under a poll epoch, firings are timer-driven self-sends at the
     polling site, and a crashed endpoint drops self-sends without
     journaling them (there is no reliable protocol on the loopback
     path).  So a crash of the source site overlapping a poll epoch's
     dispatch window eats that window's samples (§4.2.3 — sampling
     misses what happens while it is not looking), and if the epoch
     churns away before the site restarts, no later tick retakes them.
     Exactly those schedules are excused from firing-count and bytewise
     final-state equality with the oracle; the both-epoch-guarantee and
     follows checks still hold them to "stale, never wrong".  Every
     other fault keeps the full obligations: cross-site fires are
     journaled and requeued, so crashes elsewhere must lose nothing. *)
  let poll_crash_overlap =
    let rec poll_windows = function
      | (at, "poll") :: rest ->
        let stop = match rest with (next, _) :: _ -> next | [] -> sched.horizon in
        (at, stop) :: poll_windows rest
      | _ :: rest -> poll_windows rest
      | [] -> []
    in
    let windows = poll_windows (cutovers sched) in
    List.exists
      (function
        | Crash { site; at; restart_at } when String.equal site Pw.site_a ->
          List.exists (fun (lo, hi) -> at < hi && restart_at > lo) windows
        | _ -> false)
      sched.injections
  in
  let common =
    [
      inv "transport-drained" (c.transport_pending = 0)
        (Printf.sprintf "%d unacknowledged envelopes after quiescence"
           c.transport_pending);
      inv "crashes-are-metric-only" (c.logical_notices = 0)
        (Printf.sprintf "%d logical notices (want 0: a remembered crash is late, not lost)"
           c.logical_notices);
      inv "metric-notice-on-crash"
        (plan.crashes = 0 || c.metric_notices > 0)
        (Printf.sprintf "%d metric notices for %d crashes" c.metric_notices
           plan.crashes);
    ]
  in
  let specific =
    match spec.mode with
    | Payroll_faults { churn; _ } ->
      [
        inv "no-lost-firings"
          (lost = 0 || poll_crash_overlap)
          (if poll_crash_overlap then
             Printf.sprintf
               "oracle executed %d firings, chaos %d (source crash overlapped \
                a poll epoch: ticks are unjournaled self-sends; deferred to \
                guarantee checks)"
               o.fires c.fires
           else Printf.sprintf "oracle executed %d firings, chaos %d" o.fires c.fires);
        inv "no-duplicate-firings" (dup = 0)
          (Printf.sprintf "chaos executed %d firings beyond the oracle's" dup);
        inv "final-state-matches-oracle"
          (chaos.final = oracle.final || poll_crash_overlap)
          (if poll_crash_overlap && chaos.final <> oracle.final then
             "diverged, excused: a source crash overlapping a poll epoch \
              loses samples no later tick retakes (stale, never wrong — \
              the follows check below still binds)"
           else "target salaries after quiescence vs the fault-free run");
        inv "follows-guarantee-survives"
          ((not durable) || chaos.follows_valid)
          "metric failures must not invalidate the plain Follows guarantee";
      ]
      @ (match chaos.evo_result with
        | Some ev when churn > 0 ->
          [
            inv "epochs-drained-and-retired"
              (ev.epoch_retirements = ev.cutovers && ev.stale_epoch_rejections = 0)
              (Printf.sprintf
                 "%d cutovers, %d retirements, %d stale-epoch rejections (want 0: \
                  retirement waits out the drain here)"
                 ev.cutovers ev.epoch_retirements ev.stale_epoch_rejections);
            inv "both-epoch-guarantees-hold"
              (ev.both_epoch_violations = [])
              (Printf.sprintf
                 "guarantees kept by every epoch {%s}: %d violations%s"
                 (String.concat ", " ev.both_epoch_guarantees)
                 (List.length ev.both_epoch_violations)
                 (match ev.both_epoch_violations with
                 | [] -> ""
                 | v :: _ -> " — " ^ v));
          ]
        | _ -> [])
    | Bank_faults _ | Heal | Ring _ ->
      (* Asserted only on crash-free schedules, where delivery delay is
         bounded by the retransmission chain; see
         [recovery.safety_violations] in the interface for why crashes
         can legitimately cross the limits. *)
      if plan.crashes = 0 then
        [
          inv "x-leq-y-always" (chaos.violations = 0)
            (Printf.sprintf "%d sampled instants violated X <= Y" chaos.violations);
        ]
      else []
  in
  ( specific @ common,
    {
      oracle = o;
      chaos = c;
      lost_firings = lost;
      duplicate_firings = dup;
      final_state_matches =
        (match spec.mode with Bank_faults _ -> true | _ -> chaos.final = oracle.final);
      safety_violations = chaos.violations;
      evolution = chaos.evo_result;
    } )

let run_heal spec sched =
  let w =
    payroll_world ~config:(Sys_.Config.with_monitor true (chaos_config spec))
      ~required:[ copy_pair ] sched
  in
  let p = w.p in
  let sim = Sys_.sim p.Pw.system in
  let monitor = Option.get (Sys_.monitor p.Pw.system) in
  let route = Route.create p.Pw.system ~constraints:[ copy_pair ] in
  Monitor.note_initial monitor p.Pw.initial;
  let kappa =
    match Sys_.copy_qualifies p.Pw.system ~source:"Salary1" ~target:"Salary2" with
    | Ok k -> k
    | Error e -> failwith ("Chaos: heal copy does not qualify: " ^ e)
  in
  let health = Tr_rel.health p.Pw.tr_a in
  List.iter
    (function
      | Silent_drop { at; until } ->
        (* A §5 Silent_drop window on the source translator: writes keep
           landing in the ground-truth trace, but the notifications that
           would propagate them die without any failure notice. *)
        Sim.schedule_at sim at (fun () -> Health.set health Health.Silent_drop);
        Sim.schedule_at sim until (fun () -> Health.set health Health.Healthy)
      | Bad_cutover { at } ->
        (* The bad rollout: an empty program has no propagation chain to
           the copy, so Derive classifies every guarantee of the required
           pair as Lost and Evolution must roll the cutover back on the
           spot. *)
        cutover_at sim w.evo ~at
          {
            Strategy.strategy_name = "drop-propagation";
            description = "bad rollout: empty program, loses every guarantee";
            rules = [];
            aux_init = [];
          }
      | Flush { at } ->
        (* Values sit outside the op range (1000–9999): a same-value
           write takes nothing and fires no notification, so a PRNG-drawn
           flush could silently leave a copy stale forever. *)
        Array.iteri
          (fun idx emp ->
            Pw.schedule_update p ~at:(at +. (0.5 *. float_of_int idx)) ~emp
              ~salary:(20000 + idx))
          employees
      | Crash _ | Loss_window _ | Partition _ | Cutover _ -> ())
    sched.injections;
  let horizon = sched.horizon in
  retire_draining_at sim w.evo ~at:(horizon -. 30.0);
  (* Audits.  The router already refuses to serve a copy whose monitor
     reports it stale (quarantine plus a per-read re-check), so the
     stale-serve counter is 0 by construction — it is the tripwire that
     says so from outside the router. *)
  let stale_serves = ref 0 in
  Route.on_decision route (fun d ->
      match d.Route.d_outcome with
      | Route.Replica ->
        if
          Monitor.copy_stale monitor ~source:d.Route.d_base
            ~target:d.Route.d_served_base
        then incr stale_serves
      | Route.Master | Route.Forced_poll -> ());
  let onsets = ref [] in
  Monitor.on_staleness monitor (fun ~source:_ ~target:_ ~at ~stale ->
      if stale then onsets := at :: !onsets);
  let stream_violations = ref 0 in
  Monitor.on_violation monitor (fun _ -> incr stream_violations);
  Readers.open_loop sim ~rng:sched.rng
    ~clients:[ (Pw.site_a, 20); (Pw.site_b, 30) ]
    ~rate_per_client:0.02 ~until:horizon
    (fun ~site -> ignore (Route.read route ~client_site:site "Salary1"));
  (* One deterministic sweep near the horizon: even if the Poisson tail
     is quiet, a read considers (and so probes) every copy after the
     flush has landed. *)
  Sim.schedule_at sim (horizon -. 1.0) (fun () ->
      ignore (Route.plan route ~client_sites:[ Pw.site_b ]));
  Sys_.run p.Pw.system ~until:horizon;
  (* Post-run audits — live verdicts first, then finalize for the
     streaming-vs-fold comparison (finalize is one-shot). *)
  let copies_fresh =
    not (Monitor.copy_stale monitor ~source:"Salary1" ~target:"Salary2")
  in
  let q_final = Route.quarantined route in
  let rollbacks = List.length (Evolution.rollbacks w.evo) in
  let requalifies =
    Result.is_ok (Sys_.copy_qualifies p.Pw.system ~source:"Salary1" ~target:"Salary2")
  in
  (* Vacuously true without durability: nothing to check. *)
  let rollback_journaled =
    List.for_all
      (fun site ->
        match Sys_.journal p.Pw.system ~site with
        | None -> true
        | Some j ->
          List.exists
            (function Journal.Epoch_rollback _ -> true | _ -> false)
            (Journal.records j))
      (fault_sites Payroll)
  in
  Monitor.finalize monitor ~horizon;
  let fold_mismatches =
    List.filter_map
      (fun (g, v) ->
        let rep = Sys_.check_guarantee ~initial:p.Pw.initial p.Pw.system g in
        if
          Bool.equal v.Monitor.v_holds rep.Guarantee.holds
          && v.Monitor.v_points = rep.Guarantee.checked_points
        then None
        else
          Some
            (Printf.sprintf
               "%s: stream holds=%b points=%d, fold holds=%b points=%d"
               (Guarantee.to_string g) v.Monitor.v_holds v.Monitor.v_points
               rep.Guarantee.holds rep.Guarantee.checked_points))
      (Monitor.family_verdicts monitor ~source:"Salary1" ~target:"Salary2")
  in
  let pending = (w.observe ()).transport_pending in
  (* A window is only obliged to produce a staleness onset when some
     write was dropped early enough to age out of the κ horizon before
     the window lifts; the +2.0 covers the 1.0 s monitor tick plus
     scheduling slack.  The bound check is the remediation-latency
     contract: every onset the monitor reports must be attributable to a
     drop window, detected within κ + one tick of the window's end. *)
  let drops =
    List.filter_map
      (function Silent_drop { at; until } -> Some (at, until) | _ -> None)
      sched.injections
  in
  let expected_onset =
    List.exists
      (fun (at, until) ->
        List.exists (fun op -> op.op_at > at && op.op_at +. kappa +. 2.0 < until) sched.ops)
      drops
  in
  let out_of_bound =
    List.filter
      (fun t ->
        not (List.exists (fun (at, until) -> t >= at && t <= until +. kappa +. 2.0) drops))
      !onsets
  in
  let quarantines = Route.quarantines route in
  let master_reads = Route.reads_by route Route.Master in
  let invariants =
    [
      inv "no-stale-serve" (!stale_serves = 0)
        (Printf.sprintf
           "%d reads served from a copy its monitor reported stale (want 0)"
           !stale_serves);
      inv "silent-drop-detected"
        ((not expected_onset) || (List.length !onsets >= 1 && quarantines >= 1))
        (if expected_onset then
           Printf.sprintf
             "%d staleness onsets, %d quarantines for %d silent-drop windows"
             (List.length !onsets) quarantines (List.length drops)
         else
           "no window held a dropped write past the κ horizon; nothing to detect");
      inv "staleness-detected-within-bound" (out_of_bound = [])
        (match out_of_bound with
        | [] ->
          Printf.sprintf
            "every onset within [window start, window end + κ(%.2f) + tick + 1.0]"
            kappa
        | t :: _ ->
          Printf.sprintf "onset at %.2f is outside every drop window's bound" t);
      inv "required-rollback"
        (rollbacks = 1 && rollback_journaled && requalifies)
        (Printf.sprintf
           "%d rollbacks (want 1: the bad rollout), journaled=%b, copy \
            qualifies again=%b"
           rollbacks rollback_journaled requalifies);
      inv "reads-fail-over-to-master"
        (quarantines = 0 || master_reads >= 1)
        (Printf.sprintf "%d master reads while copies were quarantined" master_reads);
      inv "quarantine-cleared" (q_final = [])
        (Printf.sprintf "%d copies still quarantined at the horizon (want 0)"
           (List.length q_final));
      inv "copies-fresh-at-horizon" copies_fresh
        "the flush must converge every copy before the run ends";
      inv "streaming-equals-fold" (fold_mismatches = [])
        (match fold_mismatches with
        | [] -> "every streamed verdict equals the post-hoc fold"
        | m :: _ -> m);
      inv "transport-drained" (pending = 0)
        (Printf.sprintf "%d unacknowledged envelopes after quiescence" pending);
    ]
  in
  ( invariants,
    {
      kappa;
      reads = Route.reads route;
      replica_reads = Route.reads_by route Route.Replica;
      master_reads;
      poll_reads = Route.reads_by route Route.Forced_poll;
      stale_serves = !stale_serves;
      quarantines;
      probes = Route.probes route;
      readmissions = Route.readmissions route;
      stale_onsets = List.sort Float.compare !onsets;
      stream_violations = !stream_violations;
      rollbacks;
      rollback_journaled;
      final_epoch = Evolution.current_epoch w.evo;
      fold_mismatches;
    } )

(* Ring position of a site ("s3") or an item base ("X3"). *)
let ring_index name =
  Option.value ~default:0 (int_of_string_opt (String.sub name 1 (String.length name - 1)))

(* A notification ring: U at site i fires C at site i+1 (a cross-site,
   and — under [i mod shards] assignment — cross-shard message), which
   settles locally as a W.  Workload U events are injected only at even
   sites and crashes hit only odd sites, so an injection never lands on
   a crashed shell and "one shard keeps firing while another is down"
   holds by construction. *)
let ring_rules m =
  let buf = Buffer.create 256 in
  for i = 0 to m - 1 do
    Buffer.add_string buf
      (Printf.sprintf "u%d: U(%s, v) ->[5] C(%s, v)\n" i (ring_base i)
         (ring_base ((i + 1) mod m)));
    Buffer.add_string buf
      (Printf.sprintf "c%d: C(%s, v) ->[5] W(%s, v)\n" i (ring_base i)
         (ring_base i))
  done;
  Cm_rule.Parser.parse_rules (Buffer.contents buf)

(* The ring runs on the multi-domain fabric; crashes are mirrored
   across every shard's wheel and the crashed site replays its
   shard-local journal on restart. *)
let run_ring (spec : spec) sched ~sites:m ~shards ~crashes =
  let config =
    Sys_.Config.(
      seeded spec.seed |> with_durability spec.durability |> with_obs (Obs.create ()))
  in
  let fab =
    Fabric.create ~config ~shards
      ~assign:(fun site -> ring_index site mod shards)
      (fun item -> ring_site (ring_index item.Cm_rule.Item.base))
  in
  for i = 0 to m - 1 do
    ignore (Fabric.add_shell fab ~site:(ring_site i))
  done;
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j then
        Fabric.set_latency fab ~from_site:(ring_site i) ~to_site:(ring_site j)
          { Net.base = 0.4 +. (0.0071 *. float_of_int ((i * m) + j)); jitter = 0.0 }
    done
  done;
  Fabric.install fab
    {
      Strategy.strategy_name = "shard-chaos-ring";
      description = "cross-shard notification ring";
      rules = ring_rules m;
      aux_init = [];
    };
  List.iter
    (function
      | Crash { site; at; restart_at } ->
        Fabric.schedule_crash fab ~site ~at;
        Fabric.schedule_restart fab ~site ~at:restart_at
      | Partition { at; until } ->
        Fabric.schedule_partition fab ~from_site:(ring_site 0) ~to_site:(ring_site 1)
          ~at ~until
      | _ -> ())
    sched.injections;
  List.iter
    (fun op ->
      let s = ring_site op.op_slot in
      let emit = Shell.emitter_for (Fabric.shell_for fab ~site:s) ~site:s in
      Fabric.at fab ~site:s op.op_at (fun () ->
          ignore
            (emit
               {
                 Cm_rule.Event.name = "U";
                 args =
                   [
                     Cm_rule.Event.Ai (Cm_rule.Item.make (ring_base op.op_slot));
                     Cm_rule.Event.Av (Cm_rule.Value.Int op.op_value);
                   ];
               }
               ~kind:Cm_rule.Event.Spontaneous)))
    sched.ops;
  Fabric.run fab ~until:sched.horizon;
  let merged = Fabric.merged_events fab in
  let live_during_crash =
    List.length
      (List.filter
         (fun (e : Cm_rule.Event.t) ->
           List.exists
             (function
               | Crash { site; at; restart_at } ->
                 e.site <> site && e.time > at && e.time < restart_at
               | _ -> false)
             sched.injections)
         merged)
  in
  let restarts = Fabric.counter_total fab "recovery_restarts" in
  let crash_count = Fabric.counter_total fab "recovery_crashes" in
  let fires = Fabric.counter_total fab "shell_fires_executed" in
  let invariants =
    [
      inv "fires-executed"
        (spec.events = 0 || fires > 0)
        (Printf.sprintf "%d rule firings executed across shards" fires);
      inv "crashes-recovered"
        (spec.durability = Journal.None
        || (restarts = crashes && crash_count = crashes))
        (Printf.sprintf
           "%d crash(es) scheduled, %d recovery crash records, %d restarts"
           crashes crash_count restarts);
      inv "progress-during-crash"
        (crashes = 0 || live_during_crash > 0)
        (Printf.sprintf
           "%d events at live sites inside crash windows (other shards keep \
            firing while one site is down)"
           live_during_crash);
      inv "trace-nonempty"
        (spec.events = 0 || merged <> [])
        (Printf.sprintf "%d merged trace events" (List.length merged));
    ]
  in
  ( invariants,
    {
      digest = Fabric.trace_digest fab;
      trace_events = List.length merged;
      ring_fires = fires;
      restarts;
      recovered_crashes = crash_count;
      replayed = Fabric.counter_total fab "recovery_replayed_records";
      live_during_crash;
    } )

let static_rules w =
  (* A throwaway fault-free instance: workload constructors install the
     same rules every run, so its specifications are the workload's. *)
  let config = Sys_.Config.seeded 0 in
  let system =
    match w with
    | Payroll ->
      let p = Pw.create ~config ~employees:1 () in
      Pw.install_propagation p;
      p.Pw.system
    | Bank ->
      let b = Bw.create ~config ~policy:Cm_core.Demarcation.Conservative () in
      b.Bw.system
  in
  (Sys_.interface_rules system, Sys_.strategy_rules system, Sys_.locator system)

(* ------------------------------------------------------------------ *)
(* The pipeline: spec -> schedule -> run -> invariants -> report       *)
(* ------------------------------------------------------------------ *)

let run spec =
  validate spec;
  let sched = derive spec in
  let against_oracle plan run_world =
    let oracle = run_world spec sched ~faulty:false in
    let chaos = run_world spec sched ~faulty:true in
    let invs, r = recovery_invariants spec sched ~plan ~oracle ~chaos in
    (invs, Recovered r)
  in
  let invariants, result =
    match spec.mode with
    | Payroll_faults { plan; _ } -> against_oracle plan run_payroll
    | Bank_faults plan -> against_oracle plan run_bank
    | Heal ->
      let invs, h = run_heal spec sched in
      (invs, Healed h)
    | Ring { sites; shards; crashes } ->
      let invs, s = run_ring spec sched ~sites ~shards ~crashes in
      (invs, Sharded s)
  in
  {
    spec;
    schedule = schedule_lines sched.injections;
    horizon = sched.horizon;
    result;
    invariants;
  }

let passed report = List.for_all (fun i -> i.ok) report.invariants

let header spec =
  let durability = Journal.durability_to_string spec.durability in
  let faults workload plan churn =
    ( "chaos report",
      Printf.sprintf
        "workload=%s seed=%d events=%d crashes=%d crash_len=[%.1f,%.1f] durability=%s churn=%d"
        (workload_to_string workload) spec.seed spec.events plan.crashes
        plan.crash_min_len plan.crash_max_len durability churn )
  in
  match spec.mode with
  | Payroll_faults { plan; churn } -> faults Payroll plan churn
  | Bank_faults plan -> faults Bank plan 0
  | Heal ->
    ( "heal report",
      Printf.sprintf "workload=payroll seed=%d events=%d durability=%s monitor_tick=1.0"
        spec.seed spec.events durability )
  | Ring { sites; crashes; _ } ->
    (* The shard count is deliberately absent: one seed must print one
       report at every layout, and CI diffs the output across N
       literally. *)
    ( "sharded chaos report",
      Printf.sprintf "seed=%d sites=%d events=%d crashes=%d durability=%s" spec.seed
        sites spec.events crashes durability )

let result_lines spec = function
  | Recovered r ->
    let o = r.chaos in
    [
      Printf.sprintf "firings oracle=%d chaos=%d lost=%d duplicated=%d" r.oracle.fires
        o.fires r.lost_firings r.duplicate_firings;
      Printf.sprintf "notices logical=%d metric=%d" o.logical_notices o.metric_notices;
      Printf.sprintf "transport pending=%d retransmits=%d epoch_rejections=%d requeued=%d"
        o.transport_pending o.retransmits o.epoch_rejections o.requeued;
      Printf.sprintf "transport give_ups=%d suspects=%d recoveries=%d" o.give_ups
        o.suspects o.recoveries;
      Printf.sprintf "endpoint_down at_send=%d in_flight=%d" o.endpoint_down_at_send
        o.endpoint_down_in_flight;
      Printf.sprintf "journal appends=%d checkpoints=%d replayed=%d" o.journal_appends
        o.journal_checkpoints o.replayed_records;
    ]
    @ (match (spec.mode, r.evolution) with
      | Payroll_faults { churn; _ }, Some ev when churn > 0 ->
        [
          Printf.sprintf "evolution cutovers=%d retirements=%d stale_rejections=%d"
            ev.cutovers ev.epoch_retirements ev.stale_epoch_rejections;
          "both-epoch guarantees: "
          ^ (match ev.both_epoch_guarantees with
            | [] -> "(none claimed by every epoch)"
            | names -> String.concat ", " names);
        ]
      | _ -> [])
    @ [
        (match spec.mode with
        | Bank_faults _ -> Printf.sprintf "safety violations: %d" r.safety_violations
        | _ -> Printf.sprintf "final state matches oracle: %b" r.final_state_matches);
      ]
  | Healed h ->
    [
      Printf.sprintf "reads total=%d replica=%d master=%d forced_poll=%d stale_serves=%d"
        h.reads h.replica_reads h.master_reads h.poll_reads h.stale_serves;
      Printf.sprintf "quarantine entries=%d probes=%d readmissions=%d" h.quarantines
        h.probes h.readmissions;
      "staleness onsets: "
      ^ (match h.stale_onsets with
        | [] -> "(none)"
        | ts -> String.concat ", " (List.map (Printf.sprintf "%.2f") ts));
      Printf.sprintf "stream violations=%d" h.stream_violations;
      Printf.sprintf "rollbacks=%d journaled=%b final_epoch=%d" h.rollbacks
        h.rollback_journaled h.final_epoch;
      "fold mismatches: "
      ^ (match h.fold_mismatches with [] -> "(none)" | ms -> String.concat "; " ms);
    ]
  | Sharded s ->
    [
      "canonical digest " ^ s.digest;
      Printf.sprintf "trace events=%d firings=%d" s.trace_events s.ring_fires;
      Printf.sprintf "recovery crashes=%d restarts=%d replayed=%d" s.recovered_crashes
        s.restarts s.replayed;
      Printf.sprintf "live events during crash windows=%d" s.live_during_crash;
    ]

let report_to_string r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let title, spec_line = header r.spec in
  line "%s" title;
  line "%s" spec_line;
  line "schedule:";
  List.iter (line "%s") r.schedule;
  line "results (quiesced @ %.2f%s):" r.horizon
    (match r.result with
    | Healed h -> Printf.sprintf ", kappa=%.2f" h.kappa
    | Recovered _ | Sharded _ -> "");
  List.iter (line "  %s") (result_lines r.spec r.result);
  line "invariants:";
  List.iter
    (fun i -> line "  %s %s — %s" (if i.ok then "ok  " else "FAIL") i.inv_name i.detail)
    r.invariants;
  line "verdict: %s" (if passed r then "PASS" else "FAIL");
  Buffer.contents b
