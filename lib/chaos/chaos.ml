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
module Tr_rel = Cm_core.Tr_relational
module Health = Cm_sources.Health
module Route = Cm_route.Route
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

type spec = {
  seed : int;
  events : int;
  crashes : int;
  crash_min_len : float;
  crash_max_len : float;
  durability : Journal.durability;
  chaos_workload : workload;
  churn : int;
}

let default_spec =
  {
    seed = 42;
    events = 200;
    crashes = 5;
    crash_min_len = 10.0;
    crash_max_len = 60.0;
    durability = Journal.Journal_with_checkpoint;
    chaos_workload = Payroll;
    churn = 0;
  }

(* Malformed counts are refused up front, naming the field, rather than
   escaping later from deep inside schedule derivation. *)
let require_at_least fn field ~min v =
  if v < min then
    invalid_arg (Printf.sprintf "Chaos.%s: %s must be >= %d (got %d)" fn field min v)

let validate fn spec =
  require_at_least fn "events" ~min:0 spec.events;
  require_at_least fn "crashes" ~min:0 spec.crashes;
  require_at_least fn "churn" ~min:0 spec.churn

type fault =
  | Crash of { site : string; at : float; restart_at : float }
  | Loss_window of { at : float; until : float; drop : float; dup : float }
  | Partition of { at : float; until : float }

(* One live rule-program replacement (Evolution cutover), in absolute
   simulation time.  Injected into the oracle and the faulty run alike:
   churn is part of the workload being compared, not a fault. *)
type churn_event = { ch_at : float; ch_variant : string }

type invariant = { inv_name : string; ok : bool; detail : string }

type report = {
  spec : spec;
  faults : fault list;
  churns : churn_event list;
  horizon : float;
  oracle_fires : int;
  chaos_fires : int;
  lost_firings : int;
  duplicate_firings : int;
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
  safety_violations : int;
  cutovers : int;
  epoch_retirements : int;
  stale_epoch_rejections : int;
  both_epoch_guarantees : string list;
  both_epoch_violations : string list;
  final_state_matches : bool;
  invariants : invariant list;
}

(* ------------------------------------------------------------------ *)
(* Schedule derivation — a pure function of the spec                   *)
(* ------------------------------------------------------------------ *)

(* One workload operation; values are drawn up front so the oracle and
   the faulty run inject the exact same stream. *)
type op = { op_at : float; op_slot : int; op_value : int }

let sites = function
  | Payroll -> [| Pw.site_a; Pw.site_b |]
  | Bank -> [| "branch_a"; "branch_b" |]

let employees = [| "e1"; "e2"; "e3"; "e4"; "e5" |]

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

let derive_ops spec rng =
  let t = ref 5.0 in
  let ops =
    List.init spec.events (fun _ ->
        t := !t +. Prng.uniform_in rng ~lo:0.5 ~hi:2.5;
        let op_slot, op_value =
          match spec.chaos_workload with
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

let derive_faults spec rng ~inject_end ~sites =
  let crashes =
    if spec.crashes = 0 then []
    else begin
      (* One crash per equal slot of the injection span: windows cannot
         overlap, so exactly one site is down at any time. *)
      let slot = inject_end /. float_of_int spec.crashes in
      List.init spec.crashes (fun i ->
          let s = float_of_int i *. slot in
          let dur =
            Float.min
              (Prng.uniform_in rng ~lo:spec.crash_min_len ~hi:spec.crash_max_len)
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
        let dur = Prng.uniform_in rng ~lo:10.0 ~hi:(Float.min 50.0 (0.8 *. slot)) in
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
        let dur = Prng.uniform_in rng ~lo:5.0 ~hi:(Float.min 30.0 (0.5 *. slot)) in
        let at = s +. Prng.uniform_in rng ~lo:0.0 ~hi:(slot -. dur) in
        Partition { at; until = at +. dur })
  in
  let start = function
    | Crash { at; _ } | Loss_window { at; _ } | Partition { at; _ } -> at
  in
  List.stable_sort (fun a b -> Float.compare (start a) (start b))
    (crashes @ loss @ partitions)

(* The three strategy variants churned between; the base program is
   "propagate", and each draw picks a variant different from the one
   currently active, so every churn event is a real program change. *)
let churn_variants = [| "propagate"; "propagate-cached"; "poll" |]

let derive_churn spec rng ~inject_end =
  match spec.chaos_workload with
  | Bank -> []  (* churn is defined over the payroll copy constraint *)
  | Payroll ->
    if spec.churn = 0 then []
    else begin
      (* Times first, then variants, so neither draw shifts the other. *)
      let times =
        List.init spec.churn (fun _ ->
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
          let v = others.(Prng.int rng (Array.length others)) in
          prev := v;
          { ch_at = at; ch_variant = v })
        times
    end

let schedule spec =
  validate "schedule" spec;
  let ops_rng, fault_rng, _, _ = streams spec in
  let _, inject_end = derive_ops spec ops_rng in
  derive_faults spec fault_rng ~inject_end ~sites:(sites spec.chaos_workload)

let churn_schedule spec =
  validate "churn_schedule" spec;
  let ops_rng, _, churn_rng, _ = streams spec in
  let _, inject_end = derive_ops spec ops_rng in
  derive_churn spec churn_rng ~inject_end

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let chaos_config (spec : spec) =
  Sys_.Config.(
    seeded spec.seed
    |> with_reliable Reliable.default_config
    |> with_durability spec.durability)

let fault_end = function
  | Crash { restart_at; _ } -> restart_at
  | Loss_window { until; _ } | Partition { until; _ } -> until

(* Quiescence margin after the last injection: long enough for the full
   retransmission chain (~75 s) plus recovery re-queues to drain. *)
let drain = 300.0

let horizon_of ~inject_end faults =
  List.fold_left (fun acc f -> Float.max acc (fault_end f)) inject_end faults
  +. drain

(* The partition target depends on the workload's site names, so each
   runner passes its own pair. *)
let apply_faults system ~site_pair faults =
  let sim = Sys_.sim system and net = Sys_.net system in
  let sa, sb = site_pair in
  List.iter
    (fun f ->
      match f with
      | Crash { site; at; restart_at } ->
        Sim.schedule_at sim at (fun () -> Sys_.crash_site system ~site);
        Sim.schedule_at sim restart_at (fun () -> Sys_.restart_site system ~site)
      | Loss_window { at; until; drop; dup } ->
        Sim.schedule_at sim at (fun () ->
            Net.set_default_faults net { Net.drop_prob = drop; dup_prob = dup });
        Sim.schedule_at sim until (fun () -> Net.set_default_faults net Net.no_faults)
      | Partition { at; until } ->
        Sim.schedule_at sim at (fun () ->
            Net.partition_pair net ~site_a:sa ~site_b:sb ~until))
    faults

type notice_tally = { mutable logical : int; mutable metric : int }

let count_notices shells =
  let tally = { logical = 0; metric = 0 } in
  List.iter
    (fun shell ->
      Shell.on_failure_notice shell (fun ~origin:_ kind ->
          match kind with
          | Msg.Logical -> tally.logical <- tally.logical + 1
          | Msg.Metric -> tally.metric <- tally.metric + 1))
    shells;
  tally

type run_result = {
  r_fires : int;
  r_logical : int;
  r_metric : int;
  r_pending : int;
  r_retransmits : int;
  r_epoch_rejections : int;
  r_requeued : int;
  r_give_ups : int;
  r_suspects : int;
  r_recoveries : int;
  r_ep_down_send : int;
  r_ep_down_flight : int;
  r_journal_appends : int;
  r_journal_checkpoints : int;
  r_replayed : int;
  r_safety_violations : int;
  r_cutovers : int;
  r_epoch_retirements : int;
  r_stale_rejections : int;
  r_both_kept : string list;
  r_both_violations : string list;
  r_final : (string * float) list;  (* canonical final state *)
  r_follows_valid : bool;
}

let transport_stats system =
  match Sys_.reliable system with
  | None -> (0, 0, 0, 0, 0, 0, 0)
  | Some r ->
    let s = Reliable.stats r in
    ( Reliable.pending r,
      s.Reliable.retransmits,
      s.Reliable.epoch_rejections,
      s.Reliable.requeued,
      s.Reliable.give_ups,
      s.Reliable.suspects,
      s.Reliable.recoveries )

let journal_stats system site_list =
  match Sys_.journals system with
  | None -> (0, 0)
  | Some reg ->
    List.fold_left
      (fun (appends, cps) site ->
        let j = Journal.for_site reg ~site in
        let s = Journal.stats j in
        (appends + s.Journal.appends, cps + s.Journal.checkpoints))
      (0, 0) site_list

let recovery_replayed system =
  match Sys_.recovery system with
  | None -> 0
  | Some r -> (Recovery.stats r).Recovery.replayed_records

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

let run_payroll spec ~faulty =
  let p = Pw.create ~config:(chaos_config spec) ~employees:(Array.length employees) () in
  Pw.install_propagation p;
  let tally = count_notices [ p.Pw.shell_a; p.Pw.shell_b ] in
  let g_follows =
    Sys_.declare_guarantee p.Pw.system ~sites:[ Pw.site_a; Pw.site_b ]
      (Guarantee.Follows
         { Guarantee.leader = Pw.source_item "e1"; follower = Pw.target_item "e1" })
  in
  let ops_rng, fault_rng, churn_rng, _ = streams spec in
  let ops, inject_end = derive_ops spec ops_rng in
  let faults =
    derive_faults spec fault_rng ~inject_end ~sites:(sites Payroll)
  in
  let churns = derive_churn spec churn_rng ~inject_end in
  List.iter
    (fun op ->
      Pw.schedule_update p ~at:op.op_at ~emp:employees.(op.op_slot)
        ~salary:op.op_value)
    ops;
  if faulty then
    apply_faults p.Pw.system ~site_pair:(Pw.site_a, Pw.site_b) faults;
  let horizon = horizon_of ~inject_end faults in
  (* The payroll bindings never declare a no-spontaneous-write interface
     on the target, but in this harness it is true by construction: the
     op stream only updates site A.  Without the declaration the prover
     (correctly, conservatively) refuses every follows-style guarantee
     and the both-epoch invariant would be vacuous. *)
  let evo =
    Evolution.create
      ~constraints:[ ("Salary1", "Salary2") ]
      ~interfaces:
        (Sys_.interface_rules p.Pw.system
        @ [ Cm_core.Interface.no_spontaneous_write Pw.target_pattern ])
      p.Pw.system
  in
  let sim = Sys_.sim p.Pw.system in
  List.iteri
    (fun i ce ->
      Sim.schedule_at sim ce.ch_at (fun () ->
          match Evolution.evolve ~quiesce:false evo (churn_strategy i ce.ch_variant) with
          | Ok _ -> ()
          | Error e -> failwith ("Chaos: churn cutover failed: " ^ e)))
    churns;
  (* Retire every drained epoch at a fixed time well past the last fault
     window plus the full retransmission-and-requeue chain, so the oracle
     and the faulty run retire at the same instant and neither still has
     old-epoch envelopes on the wire (stale rejection under adversarial
     timing is exercised by the unit tests, not here — a rejection on one
     side only would masquerade as message loss). *)
  if churns <> [] then
    Sim.schedule_at sim (horizon -. (drain /. 2.0)) (fun () ->
        List.iter
          (fun epoch ->
            match Evolution.retire evo ~epoch with
            | Ok () -> ()
            | Error e -> failwith ("Chaos: churn retire failed: " ^ e))
          (Evolution.draining evo));
  Sys_.run p.Pw.system ~until:horizon;
  let transitions = Evolution.transitions evo in
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
                  ~ignore_after:inject_end p.Pw.system g
              in
              if rep.Guarantee.holds then None
              else
                Some
                  (Printf.sprintf "%s[%s]: %s" name emp
                     (String.concat "; " rep.Guarantee.counterexamples)))
          (Array.to_list employees))
      both_kept
  in
  let pending, retransmits, epoch_rejections, requeued, give_ups, suspects, recoveries =
    transport_stats p.Pw.system
  in
  let appends, checkpoints = journal_stats p.Pw.system [ Pw.site_a; Pw.site_b ] in
  let final =
    List.map
      (fun emp -> (emp, Cm_rule.Value.to_float (Pw.salary_at p `B emp)))
      (Array.to_list employees)
  in
  ( {
      r_fires = Shell.fires_executed p.Pw.shell_a + Shell.fires_executed p.Pw.shell_b;
      r_logical = tally.logical;
      r_metric = tally.metric;
      r_pending = pending;
      r_retransmits = retransmits;
      r_epoch_rejections = epoch_rejections;
      r_requeued = requeued;
      r_give_ups = give_ups;
      r_suspects = suspects;
      r_recoveries = recoveries;
      r_ep_down_send = Net.endpoint_down_at_send (Sys_.net p.Pw.system);
      r_ep_down_flight = Net.endpoint_down_in_flight (Sys_.net p.Pw.system);
      r_journal_appends = appends;
      r_journal_checkpoints = checkpoints;
      r_replayed = recovery_replayed p.Pw.system;
      r_safety_violations = 0;
      r_cutovers = List.length transitions;
      r_epoch_retirements = Evolution.retirements evo;
      r_stale_rejections = Evolution.stale_rejections evo;
      r_both_kept = both_kept;
      r_both_violations = both_violations;
      r_final = final;
      r_follows_valid = Sys_.guarantee_valid g_follows;
    },
    faults,
    churns,
    horizon )

let run_bank spec ~faulty =
  let b =
    Bw.create ~config:(chaos_config spec) ~policy:Cm_core.Demarcation.Conservative ()
  in
  let tally = count_notices [ b.Bw.shell_a; b.Bw.shell_b ] in
  let ops_rng, fault_rng, _, _ = streams spec in
  let ops, inject_end = derive_ops spec ops_rng in
  let faults = derive_faults spec fault_rng ~inject_end ~sites:(sites Bank) in
  let sim = Sys_.sim b.Bw.system in
  List.iter
    (fun op ->
      Sim.schedule_at sim op.op_at (fun () ->
          if op.op_slot = 0 then ignore (Bw.try_set_x b op.op_value)
          else ignore (Bw.try_set_y b op.op_value)))
    ops;
  (* The X <= Y safety claim is sampled rather than event-checked: the
     demarcation protocol must keep it true at every instant, crashes or
     not, because limits only ever move in the safe direction first. *)
  let violations = ref 0 in
  Sim.every sim ~period:1.0
    (fun () -> if Bw.x_bal b > Bw.y_bal b then incr violations)
    ~cancel:(fun () -> false);
  if faulty then
    apply_faults b.Bw.system ~site_pair:("branch_a", "branch_b") faults;
  let horizon = horizon_of ~inject_end faults in
  Sys_.run b.Bw.system ~until:horizon;
  let pending, retransmits, epoch_rejections, requeued, give_ups, suspects, recoveries =
    transport_stats b.Bw.system
  in
  let appends, checkpoints =
    journal_stats b.Bw.system [ "branch_a"; "branch_b" ]
  in
  ( {
      r_fires = Shell.fires_executed b.Bw.shell_a + Shell.fires_executed b.Bw.shell_b;
      r_logical = tally.logical;
      r_metric = tally.metric;
      r_pending = pending;
      r_retransmits = retransmits;
      r_epoch_rejections = epoch_rejections;
      r_requeued = requeued;
      r_give_ups = give_ups;
      r_suspects = suspects;
      r_recoveries = recoveries;
      r_ep_down_send = Net.endpoint_down_at_send (Sys_.net b.Bw.system);
      r_ep_down_flight = Net.endpoint_down_in_flight (Sys_.net b.Bw.system);
      r_journal_appends = appends;
      r_journal_checkpoints = checkpoints;
      r_replayed = recovery_replayed b.Bw.system;
      r_safety_violations = !violations;
      r_cutovers = 0;
      r_epoch_retirements = 0;
      r_stale_rejections = 0;
      r_both_kept = [];
      r_both_violations = [];
      r_final =
        [ ("x_bal", Bw.x_bal b); ("y_bal", Bw.y_bal b);
          ("x_lim", Bw.x_lim b); ("y_lim", Bw.y_lim b) ];
      r_follows_valid = true;
    },
    faults,
    [],
    horizon )

(* ------------------------------------------------------------------ *)
(* Invariants and report                                               *)
(* ------------------------------------------------------------------ *)

let check_invariants spec ~churns ~oracle ~chaos =
  let durable = spec.durability <> Journal.None in
  let lost = max 0 (oracle.r_fires - chaos.r_fires) in
  let dup = max 0 (chaos.r_fires - oracle.r_fires) in
  let inv name ok detail = { inv_name = name; ok; detail } in
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
    let ops_rng, _, _, _ = streams spec in
    let _, inject_end = derive_ops spec ops_rng in
    let faults = schedule spec in
    let horizon = horizon_of ~inject_end faults in
    let rec poll_windows = function
      | [] -> []
      | c :: rest ->
        let stop = match rest with c2 :: _ -> c2.ch_at | [] -> horizon in
        (if String.equal c.ch_variant "poll" then [ (c.ch_at, stop) ] else [])
        @ poll_windows rest
    in
    let windows = poll_windows churns in
    List.exists
      (function
        | Crash { site; at; restart_at } when String.equal site Pw.site_a ->
          List.exists (fun (lo, hi) -> at < hi && restart_at > lo) windows
        | _ -> false)
      faults
  in
  let common =
    [
      inv "transport-drained" (chaos.r_pending = 0)
        (Printf.sprintf "%d unacknowledged envelopes after quiescence"
           chaos.r_pending);
      inv "crashes-are-metric-only" (chaos.r_logical = 0)
        (Printf.sprintf "%d logical notices (want 0: a remembered crash is late, not lost)"
           chaos.r_logical);
      inv "metric-notice-on-crash"
        (spec.crashes = 0 || chaos.r_metric > 0)
        (Printf.sprintf "%d metric notices for %d crashes" chaos.r_metric
           spec.crashes);
    ]
  in
  let specific =
    match spec.chaos_workload with
    | Payroll ->
      [
        inv "no-lost-firings"
          (lost = 0 || poll_crash_overlap)
          (if poll_crash_overlap then
             Printf.sprintf
               "oracle executed %d firings, chaos %d (source crash overlapped \
                a poll epoch: ticks are unjournaled self-sends; deferred to \
                guarantee checks)"
               oracle.r_fires chaos.r_fires
           else
             Printf.sprintf "oracle executed %d firings, chaos %d" oracle.r_fires
               chaos.r_fires);
        inv "no-duplicate-firings" (dup = 0)
          (Printf.sprintf "chaos executed %d firings beyond the oracle's" dup);
        inv "final-state-matches-oracle"
          (chaos.r_final = oracle.r_final || poll_crash_overlap)
          (if poll_crash_overlap && chaos.r_final <> oracle.r_final then
             "diverged, excused: a source crash overlapping a poll epoch \
              loses samples no later tick retakes (stale, never wrong — \
              the follows check below still binds)"
           else "target salaries after quiescence vs the fault-free run");
        inv "follows-guarantee-survives"
          ((not durable) || chaos.r_follows_valid)
          "metric failures must not invalidate the plain Follows guarantee";
      ]
      @
      if spec.churn = 0 then []
      else
        [
          inv "epochs-drained-and-retired"
            (chaos.r_epoch_retirements = chaos.r_cutovers
            && chaos.r_stale_rejections = 0)
            (Printf.sprintf
               "%d cutovers, %d retirements, %d stale-epoch rejections (want 0: \
                retirement waits out the drain here)"
               chaos.r_cutovers chaos.r_epoch_retirements
               chaos.r_stale_rejections);
          inv "both-epoch-guarantees-hold"
            (chaos.r_both_violations = [])
            (Printf.sprintf
               "guarantees kept by every epoch {%s}: %d violations%s"
               (String.concat ", " chaos.r_both_kept)
               (List.length chaos.r_both_violations)
               (match chaos.r_both_violations with
               | [] -> ""
               | v :: _ -> " — " ^ v));
        ]
    | Bank ->
      (* With crashes the sampled X <= Y count is reported, not asserted:
         limit grants travel as absolute values, so a grant decided
         before a crash and delivered (exactly once) after it can be
         stale and cross the limits until the next redistribution — a
         pre-existing property of the demarcation encoding, not of the
         recovery layer.  On crash-free schedules delivery delay is
         bounded by the retransmission chain and the window never
         opens. *)
      if spec.crashes = 0 then
        [
          inv "x-leq-y-always" (chaos.r_safety_violations = 0)
            (Printf.sprintf "%d sampled instants violated X <= Y"
               chaos.r_safety_violations);
        ]
      else []
  in
  (specific @ common, lost, dup)

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

let run spec =
  validate "run" spec;
  let (oracle, _, _, _), (chaos, faults, churns, horizon) =
    match spec.chaos_workload with
    | Payroll -> (run_payroll spec ~faulty:false, run_payroll spec ~faulty:true)
    | Bank -> (run_bank spec ~faulty:false, run_bank spec ~faulty:true)
  in
  let invariants, lost, dup = check_invariants spec ~churns ~oracle ~chaos in
  {
    spec;
    faults;
    churns;
    horizon;
    oracle_fires = oracle.r_fires;
    chaos_fires = chaos.r_fires;
    lost_firings = lost;
    duplicate_firings = dup;
    logical_notices = chaos.r_logical;
    metric_notices = chaos.r_metric;
    transport_pending = chaos.r_pending;
    retransmits = chaos.r_retransmits;
    epoch_rejections = chaos.r_epoch_rejections;
    requeued = chaos.r_requeued;
    give_ups = chaos.r_give_ups;
    suspects = chaos.r_suspects;
    recoveries = chaos.r_recoveries;
    endpoint_down_at_send = chaos.r_ep_down_send;
    endpoint_down_in_flight = chaos.r_ep_down_flight;
    journal_appends = chaos.r_journal_appends;
    journal_checkpoints = chaos.r_journal_checkpoints;
    replayed_records = chaos.r_replayed;
    safety_violations = chaos.r_safety_violations;
    cutovers = chaos.r_cutovers;
    epoch_retirements = chaos.r_epoch_retirements;
    stale_epoch_rejections = chaos.r_stale_rejections;
    both_epoch_guarantees = chaos.r_both_kept;
    both_epoch_violations = chaos.r_both_violations;
    final_state_matches =
      (match spec.chaos_workload with
       | Payroll -> chaos.r_final = oracle.r_final
       | Bank -> true);
    invariants;
  }

let passed report = List.for_all (fun i -> i.ok) report.invariants

let fault_to_string = function
  | Crash { site; at; restart_at } ->
    Printf.sprintf "crash %s @ %.2f -> restart @ %.2f" site at restart_at
  | Loss_window { at; until; drop; dup } ->
    Printf.sprintf "loss drop=%.3f dup=%.3f @ %.2f -> %.2f" drop dup at until
  | Partition { at; until } ->
    Printf.sprintf "partition @ %.2f -> %.2f" at until

let report_to_string r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "chaos report";
  line
    "workload=%s seed=%d events=%d crashes=%d crash_len=[%.1f,%.1f] durability=%s churn=%d"
    (workload_to_string r.spec.chaos_workload)
    r.spec.seed r.spec.events r.spec.crashes r.spec.crash_min_len
    r.spec.crash_max_len
    (Journal.durability_to_string r.spec.durability)
    r.spec.churn;
  line "schedule:";
  List.iter (fun f -> line "  %s" (fault_to_string f)) r.faults;
  if r.churns <> [] then begin
    line "rule churn:";
    List.iter
      (fun c -> line "  cutover to %s @ %.2f" c.ch_variant c.ch_at)
      r.churns
  end;
  line "results (quiesced @ %.2f):" r.horizon;
  line "  firings oracle=%d chaos=%d lost=%d duplicated=%d" r.oracle_fires
    r.chaos_fires r.lost_firings r.duplicate_firings;
  line "  notices logical=%d metric=%d" r.logical_notices r.metric_notices;
  line "  transport pending=%d retransmits=%d epoch_rejections=%d requeued=%d"
    r.transport_pending r.retransmits r.epoch_rejections r.requeued;
  line "  transport give_ups=%d suspects=%d recoveries=%d" r.give_ups r.suspects
    r.recoveries;
  line "  endpoint_down at_send=%d in_flight=%d" r.endpoint_down_at_send
    r.endpoint_down_in_flight;
  line "  journal appends=%d checkpoints=%d replayed=%d" r.journal_appends
    r.journal_checkpoints r.replayed_records;
  if r.spec.churn > 0 then begin
    line "  evolution cutovers=%d retirements=%d stale_rejections=%d" r.cutovers
      r.epoch_retirements r.stale_epoch_rejections;
    line "  both-epoch guarantees: %s"
      (match r.both_epoch_guarantees with
      | [] -> "(none claimed by every epoch)"
      | names -> String.concat ", " names)
  end;
  (match r.spec.chaos_workload with
   | Payroll -> line "  final state matches oracle: %b" r.final_state_matches
   | Bank -> line "  safety violations: %d" r.safety_violations);
  line "invariants:";
  List.iter
    (fun i ->
      line "  %s %s — %s" (if i.ok then "ok  " else "FAIL") i.inv_name i.detail)
    r.invariants;
  line "verdict: %s" (if passed r then "PASS" else "FAIL");
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Self-healing (--heal): silent drops, a bad rollout, live monitors   *)
(* ------------------------------------------------------------------ *)

(* A §5 Silent_drop window on the source translator: writes keep landing
   in the ground-truth trace, but the notifications that would propagate
   them die without any failure notice.  The post-hoc fold only sees the
   damage at the end of the run; the streaming staleness verdict must
   see it within κ plus one monitor tick. *)
type drop_window = { dw_at : float; dw_until : float }

type heal_report = {
  h_spec : spec;
  h_drops : drop_window list;
  h_bad_cutover_at : float;
  h_flush_at : float;
  h_horizon : float;
  h_kappa : float;
  h_reads : int;
  h_replica_reads : int;
  h_master_reads : int;
  h_poll_reads : int;
  h_stale_serves : int;
  h_quarantines : int;
  h_probes : int;
  h_readmissions : int;
  h_stale_onsets : float list;
  h_stream_violations : int;
  h_rollbacks : int;
  h_rollback_journaled : bool;
  h_final_epoch : int;
  h_fold_mismatches : string list;
  h_invariants : invariant list;
}

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
      { dw_at = at; dw_until = at +. dur })

(* Drops first, then the bad-cutover instant, so neither draw shifts the
   other; the reader arrivals consume the same stream lazily during the
   run, after both up-front draws. *)
let heal_schedule spec =
  validate "heal_schedule" spec;
  let ops_rng, _, _, heal_rng = streams spec in
  let _, inject_end = derive_ops spec ops_rng in
  let drops = derive_drops spec heal_rng ~inject_end in
  let bad_at =
    Prng.uniform_in heal_rng ~lo:(0.3 *. inject_end) ~hi:(0.7 *. inject_end)
  in
  (drops, bad_at)

let run_heal spec =
  validate "run_heal" spec;
  if spec.chaos_workload <> Payroll then
    invalid_arg "Chaos.run_heal: heal schedules are defined over the payroll workload";
  let config = Sys_.Config.with_monitor true (chaos_config spec) in
  let p = Pw.create ~config ~employees:(Array.length employees) () in
  Pw.install_propagation p;
  let sim = Sys_.sim p.Pw.system in
  let monitor =
    match Sys_.monitor p.Pw.system with
    | Some m -> m
    | None -> failwith "Chaos.run_heal: monitor not enabled"
  in
  (* Same augmentation as run_payroll: the op stream only writes site A,
     so declaring no-spontaneous-write on the target is true by
     construction and is what lets Derive prove a κ at all. *)
  let interfaces =
    Sys_.interface_rules p.Pw.system
    @ [ Cm_core.Interface.no_spontaneous_write Pw.target_pattern ]
  in
  let route =
    Route.create ~interfaces p.Pw.system ~constraints:[ ("Salary1", "Salary2") ]
  in
  Monitor.note_initial monitor p.Pw.initial;
  let kappa =
    match Sys_.copy_qualifies p.Pw.system ~source:"Salary1" ~target:"Salary2" with
    | Ok k -> k
    | Error e -> failwith ("Chaos.run_heal: copy does not qualify: " ^ e)
  in
  let evo =
    Evolution.create
      ~constraints:[ ("Salary1", "Salary2") ]
      ~required:[ ("Salary1", "Salary2") ]
      ~interfaces p.Pw.system
  in
  let ops_rng, _, _, heal_rng = streams spec in
  let ops, inject_end = derive_ops spec ops_rng in
  let drops = derive_drops spec heal_rng ~inject_end in
  let bad_at =
    Prng.uniform_in heal_rng ~lo:(0.3 *. inject_end) ~hi:(0.7 *. inject_end)
  in
  List.iter
    (fun op ->
      Pw.schedule_update p ~at:op.op_at ~emp:employees.(op.op_slot)
        ~salary:op.op_value)
    ops;
  let health = Tr_rel.health p.Pw.tr_a in
  List.iter
    (fun w ->
      Sim.schedule_at sim w.dw_at (fun () -> Health.set health Health.Silent_drop);
      Sim.schedule_at sim w.dw_until (fun () -> Health.set health Health.Healthy))
    drops;
  (* The bad rollout: an empty program has no propagation chain to the
     copy, so Derive classifies every guarantee of the required pair as
     Lost and Evolution must roll the cutover back on the spot. *)
  let bad_strategy =
    {
      Strategy.strategy_name = "drop-propagation";
      description = "bad rollout: empty program, loses every guarantee";
      rules = [];
      aux_init = [];
    }
  in
  Sim.schedule_at sim bad_at (fun () ->
      match Evolution.evolve ~quiesce:false evo bad_strategy with
      | Ok _ -> ()
      | Error e -> failwith ("Chaos: bad cutover failed: " ^ e));
  (* Flush: one fresh value per employee after the last drop window, so
     every copy converges and every quarantine can probe back to
     service.  Values sit outside the op range (1000–9999): a same-value
     write takes nothing and fires no notification, so a PRNG-drawn
     flush could silently leave a copy stale forever. *)
  let flush_at =
    List.fold_left (fun acc w -> Float.max acc w.dw_until) inject_end drops
    +. 10.0
  in
  Array.iteri
    (fun idx emp ->
      Pw.schedule_update p
        ~at:(flush_at +. (0.5 *. float_of_int idx))
        ~emp ~salary:(20000 + idx))
    employees;
  let horizon = flush_at +. 60.0 in
  Sim.schedule_at sim (horizon -. 30.0) (fun () ->
      List.iter
        (fun epoch ->
          match Evolution.retire evo ~epoch with
          | Ok () -> ()
          | Error e -> failwith ("Chaos: heal retire failed: " ^ e))
        (Evolution.draining evo));
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
  Readers.open_loop sim ~rng:heal_rng
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
  let rollbacks = Evolution.rollbacks evo in
  let requalifies =
    match Sys_.copy_qualifies p.Pw.system ~source:"Salary1" ~target:"Salary2" with
    | Ok _ -> true
    | Error _ -> false
  in
  let rollback_journaled =
    match Sys_.journals p.Pw.system with
    | None -> true  (* durability None: nothing to check *)
    | Some _ ->
      List.for_all
        (fun site ->
          match Sys_.journal p.Pw.system ~site with
          | None -> true
          | Some j ->
            List.exists
              (function Journal.Epoch_rollback _ -> true | _ -> false)
              (Journal.records j))
        [ Pw.site_a; Pw.site_b ]
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
  let pending, _, _, _, _, _, _ = transport_stats p.Pw.system in
  (* A window is only obliged to produce a staleness onset when some
     write was dropped early enough to age out of the κ horizon before
     the window lifts; the +2.0 covers the 1.0 s monitor tick plus
     scheduling slack.  The bound check is the remediation-latency
     contract: every onset the monitor reports must be attributable to a
     drop window, detected within κ + one tick of the window's end. *)
  let expected_onset =
    List.exists
      (fun w ->
        List.exists
          (fun op -> op.op_at > w.dw_at && op.op_at +. kappa +. 2.0 < w.dw_until)
          ops)
      drops
  in
  let out_of_bound =
    List.filter
      (fun t ->
        not
          (List.exists
             (fun w -> t >= w.dw_at && t <= w.dw_until +. kappa +. 2.0)
             drops))
      !onsets
  in
  let quarantines = Route.quarantines route in
  let inv name ok detail = { inv_name = name; ok; detail } in
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
        (List.length rollbacks = 1 && rollback_journaled && requalifies)
        (Printf.sprintf
           "%d rollbacks (want 1: the bad rollout), journaled=%b, copy \
            qualifies again=%b"
           (List.length rollbacks) rollback_journaled requalifies);
      inv "reads-fail-over-to-master"
        (quarantines = 0 || Route.reads_by route Route.Master >= 1)
        (Printf.sprintf "%d master reads while copies were quarantined"
           (Route.reads_by route Route.Master));
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
  {
    h_spec = spec;
    h_drops = drops;
    h_bad_cutover_at = bad_at;
    h_flush_at = flush_at;
    h_horizon = horizon;
    h_kappa = kappa;
    h_reads = Route.reads route;
    h_replica_reads = Route.reads_by route Route.Replica;
    h_master_reads = Route.reads_by route Route.Master;
    h_poll_reads = Route.reads_by route Route.Forced_poll;
    h_stale_serves = !stale_serves;
    h_quarantines = quarantines;
    h_probes = Route.probes route;
    h_readmissions = Route.readmissions route;
    h_stale_onsets = List.sort Float.compare !onsets;
    h_stream_violations = !stream_violations;
    h_rollbacks = List.length rollbacks;
    h_rollback_journaled = rollback_journaled;
    h_final_epoch = Evolution.current_epoch evo;
    h_fold_mismatches = fold_mismatches;
    h_invariants = invariants;
  }

let heal_passed r = List.for_all (fun i -> i.ok) r.h_invariants

let heal_report_to_string r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "heal report";
  line "workload=payroll seed=%d events=%d durability=%s monitor_tick=1.0"
    r.h_spec.seed r.h_spec.events
    (Journal.durability_to_string r.h_spec.durability);
  line "schedule:";
  List.iter
    (fun w -> line "  silent-drop @ %.2f -> %.2f" w.dw_at w.dw_until)
    r.h_drops;
  line "  bad cutover (drop-propagation) @ %.2f" r.h_bad_cutover_at;
  line "  flush @ %.2f" r.h_flush_at;
  line "results (quiesced @ %.2f, kappa=%.2f):" r.h_horizon r.h_kappa;
  line "  reads total=%d replica=%d master=%d forced_poll=%d stale_serves=%d"
    r.h_reads r.h_replica_reads r.h_master_reads r.h_poll_reads r.h_stale_serves;
  line "  quarantine entries=%d probes=%d readmissions=%d" r.h_quarantines
    r.h_probes r.h_readmissions;
  line "  staleness onsets: %s"
    (match r.h_stale_onsets with
    | [] -> "(none)"
    | ts -> String.concat ", " (List.map (Printf.sprintf "%.2f") ts));
  line "  stream violations=%d" r.h_stream_violations;
  line "  rollbacks=%d journaled=%b final_epoch=%d" r.h_rollbacks
    r.h_rollback_journaled r.h_final_epoch;
  line "  fold mismatches: %s"
    (match r.h_fold_mismatches with
    | [] -> "(none)"
    | ms -> String.concat "; " ms);
  line "invariants:";
  List.iter
    (fun i ->
      line "  %s %s — %s" (if i.ok then "ok  " else "FAIL") i.inv_name i.detail)
    r.h_invariants;
  line "verdict: %s" (if heal_passed r then "PASS" else "FAIL");
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Sharded chaos (--shards): crashes under the multi-domain fabric    *)
(* ------------------------------------------------------------------ *)

module Fabric = Cm_shard.Shard.Fabric
module Obs = Cm_core.Obs

type shard_spec = {
  ss_seed : int;
  ss_sites : int;
  ss_shards : int;
  ss_events : int;
  ss_crashes : int;
  ss_durability : Journal.durability;
}

let default_shard_spec =
  {
    ss_seed = 42;
    ss_sites = 6;
    ss_shards = 2;
    ss_events = 60;
    ss_crashes = 2;
    ss_durability = Journal.Journal_with_checkpoint;
  }

type shard_report = {
  sr_spec : shard_spec;
  sr_faults : fault list;
  sr_horizon : float;
  sr_digest : string;
  sr_events : int;
  sr_fires : int;
  sr_restarts : int;
  sr_recovered_crashes : int;
  sr_replayed : int;
  sr_live_during_crash : int;
  sr_invariants : invariant list;
}

let shard_site i = Printf.sprintf "s%d" i
let shard_base i = Printf.sprintf "X%d" i

let shard_locator item =
  let b = item.Cm_rule.Item.base in
  if String.length b > 1 && b.[0] = 'X' then
    match int_of_string_opt (String.sub b 1 (String.length b - 1)) with
    | Some i -> shard_site i
    | None -> shard_site 0
  else shard_site 0

(* A notification ring: U at site i fires C at site i+1 (a cross-site,
   and — under [i mod shards] assignment — cross-shard message), which
   settles locally as a W.  Workload U events are injected only at even
   sites and crashes hit only odd sites, so an injection never lands on
   a crashed shell and "one shard keeps firing while another is down"
   holds by construction. *)
let shard_rules m =
  let buf = Buffer.create 256 in
  for i = 0 to m - 1 do
    Buffer.add_string buf
      (Printf.sprintf "u%d: U(%s, v) ->[5] C(%s, v)\n" i (shard_base i)
         (shard_base ((i + 1) mod m)));
    Buffer.add_string buf
      (Printf.sprintf "c%d: C(%s, v) ->[5] W(%s, v)\n" i (shard_base i)
         (shard_base i))
  done;
  Cm_rule.Parser.parse_rules (Buffer.contents buf)

(* Ops and faults are pure functions of the spec, derived from keyed
   streams (never the run's own wheels), so the schedule is identical at
   every shard count.  Distinct fractional offsets keep op times, crash
   instants and deliveries off shared instants — cross-layout digest
   equality needs causally unrelated events to stay on distinct
   times. *)
let validate_shard fn spec =
  require_at_least fn "ss_sites" ~min:4 spec.ss_sites;
  require_at_least fn "ss_shards" ~min:1 spec.ss_shards;
  require_at_least fn "ss_events" ~min:0 spec.ss_events;
  require_at_least fn "ss_crashes" ~min:0 spec.ss_crashes

let shard_schedule spec =
  let m = spec.ss_sites in
  let ops_rng = Prng.of_key ~seed:spec.ss_seed "shard-chaos-ops" in
  let ops =
    List.init spec.ss_events (fun idx ->
        let slot = 2 * Prng.int ops_rng ((m + 1) / 2) in
        {
          op_at = 2.0 +. (0.83 *. float_of_int idx) +. (0.0019 *. float_of_int slot);
          op_slot = slot;
          op_value = 1000 + (idx * 13) + slot;
        })
  in
  let last_op =
    List.fold_left (fun acc o -> Float.max acc o.op_at) 0.0 ops
  in
  let fault_rng = Prng.of_key ~seed:spec.ss_seed "shard-chaos-faults" in
  let faults = ref [] in
  let cursor = ref 8.0 in
  for _ = 1 to spec.ss_crashes do
    let odd_count = m / 2 in
    let site = shard_site ((2 * Prng.int fault_rng odd_count) + 1) in
    let at = !cursor +. 2.0 +. float_of_int (Prng.int fault_rng 4) +. 0.41 in
    let len = 6.0 +. float_of_int (Prng.int fault_rng 10) +. 0.27 in
    let restart_at = at +. len in
    cursor := restart_at +. 3.0;
    faults := Crash { site; at; restart_at } :: !faults
  done;
  let faults =
    if spec.ss_crashes > 0 then
      (* one partitioned ring edge (even source -> odd target) for
         mirrored-flag coverage *)
      let at = 5.0 +. float_of_int (Prng.int fault_rng 6) +. 0.19 in
      Partition { at; until = at +. 6.0 } :: !faults
    else !faults
  in
  let last_restart =
    List.fold_left
      (fun acc -> function
        | Crash { restart_at; _ } -> Float.max acc restart_at
        | Loss_window { until; _ } | Partition { until; _ } -> Float.max acc until)
      0.0 faults
  in
  let horizon = Float.max last_op last_restart +. 40.0 in
  (ops, List.rev faults, horizon)

let shard_schedule_faults spec =
  validate_shard "shard_schedule_faults" spec;
  let _, faults, _ = shard_schedule spec in
  faults

let run_sharded spec =
  validate_shard "run_sharded" spec;
  let m = spec.ss_sites in
  let ops, faults, horizon = shard_schedule spec in
  let config =
    Sys_.Config.(
      seeded spec.ss_seed
      |> with_durability spec.ss_durability
      |> with_obs (Obs.create ()))
  in
  let fab =
    Fabric.create ~config ~keyed_single:true ~shards:spec.ss_shards
      ~assign:(fun s ->
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some i -> i mod spec.ss_shards
        | None -> 0)
      shard_locator
  in
  for i = 0 to m - 1 do
    ignore (Fabric.add_shell fab ~site:(shard_site i))
  done;
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j then
        Fabric.set_latency fab ~from_site:(shard_site i) ~to_site:(shard_site j)
          { Net.base = 0.4 +. (0.0071 *. float_of_int ((i * m) + j)); jitter = 0.0 }
    done
  done;
  Fabric.install fab
    {
      Strategy.strategy_name = "shard-chaos-ring";
      description = "cross-shard notification ring";
      rules = shard_rules m;
      aux_init = [];
    };
  List.iter
    (function
      | Crash { site; at; restart_at } ->
        Fabric.schedule_crash fab ~site ~at;
        Fabric.schedule_restart fab ~site ~at:restart_at
      | Partition { at; until } ->
        Fabric.schedule_partition fab ~from_site:(shard_site 0)
          ~to_site:(shard_site 1) ~at ~until
      | Loss_window _ -> ())
    faults;
  List.iter
    (fun op ->
      let s = shard_site op.op_slot in
      let shell = Fabric.shell_for fab ~site:s in
      let emit = Shell.emitter_for shell ~site:s in
      Fabric.at fab ~site:s op.op_at (fun () ->
          ignore
            (emit
               {
                 Cm_rule.Event.name = "U";
                 args =
                   [
                     Cm_rule.Event.Ai (Cm_rule.Item.make (shard_base op.op_slot));
                     Cm_rule.Event.Av (Cm_rule.Value.Int op.op_value);
                   ];
               }
               ~kind:Cm_rule.Event.Spontaneous)))
    ops;
  Fabric.run fab ~until:horizon;
  let merged = Fabric.merged_events fab in
  let live_during_crash =
    List.fold_left
      (fun acc (e : Cm_rule.Event.t) ->
        let inside =
          List.exists
            (function
              | Crash { site; at; restart_at } ->
                e.Cm_rule.Event.site <> site
                && e.Cm_rule.Event.time > at
                && e.Cm_rule.Event.time < restart_at
              | _ -> false)
            faults
        in
        if inside then acc + 1 else acc)
      0 merged
  in
  let durable = spec.ss_durability <> Journal.None in
  let restarts = Fabric.counter_total fab "recovery_restarts" in
  let crash_count = Fabric.counter_total fab "recovery_crashes" in
  let replayed = Fabric.counter_total fab "recovery_replayed_records" in
  let fires = Fabric.counter_total fab "shell_fires_executed" in
  let inv inv_name ok detail = { inv_name; ok; detail } in
  let invariants =
    [
      inv "fires-executed"
        (spec.ss_events = 0 || fires > 0)
        (Printf.sprintf "%d rule firings executed across shards" fires);
      inv "crashes-recovered"
        ((not durable) || (restarts = spec.ss_crashes && crash_count = spec.ss_crashes))
        (Printf.sprintf
           "%d crash(es) scheduled, %d recovery crash records, %d restarts"
           spec.ss_crashes crash_count restarts);
      inv "progress-during-crash"
        (spec.ss_crashes = 0 || live_during_crash > 0)
        (Printf.sprintf
           "%d events at live sites inside crash windows (other shards keep \
            firing while one site is down)"
           live_during_crash);
      inv "trace-nonempty"
        (spec.ss_events = 0 || merged <> [])
        (Printf.sprintf "%d merged trace events" (List.length merged));
    ]
  in
  {
    sr_spec = spec;
    sr_faults = faults;
    sr_horizon = horizon;
    sr_digest = Fabric.trace_digest fab;
    sr_events = List.length merged;
    sr_fires = fires;
    sr_restarts = restarts;
    sr_recovered_crashes = crash_count;
    sr_replayed = replayed;
    sr_live_during_crash = live_during_crash;
    sr_invariants = invariants;
  }

let shard_passed r = List.for_all (fun i -> i.ok) r.sr_invariants

(* The shard count is deliberately absent: one seed must print one
   report at every layout, and CI diffs the output across N literally. *)
let shard_report_to_string r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "sharded chaos report";
  line "seed=%d sites=%d events=%d crashes=%d durability=%s" r.sr_spec.ss_seed
    r.sr_spec.ss_sites r.sr_spec.ss_events r.sr_spec.ss_crashes
    (Journal.durability_to_string r.sr_spec.ss_durability);
  line "schedule:";
  List.iter (fun f -> line "  %s" (fault_to_string f)) r.sr_faults;
  line "results (quiesced @ %.2f):" r.sr_horizon;
  line "  canonical digest %s" r.sr_digest;
  line "  trace events=%d firings=%d" r.sr_events r.sr_fires;
  line "  recovery crashes=%d restarts=%d replayed=%d" r.sr_recovered_crashes
    r.sr_restarts r.sr_replayed;
  line "  live events during crash windows=%d" r.sr_live_during_crash;
  line "invariants:";
  List.iter
    (fun i ->
      line "  %s %s — %s" (if i.ok then "ok  " else "FAIL") i.inv_name i.detail)
    r.sr_invariants;
  line "verdict: %s" (if shard_passed r then "PASS" else "FAIL");
  Buffer.contents b
