(* Crash-recovery manager: the protocol that makes Journal's memory
   actionable (paper §5, ISSUE 3).

   crash:    take the site's network endpoint down.  Volatile state is
             not touched yet — a real crash does not get to run code.
   restart:  bring the endpoint back, derive the site's state from the
             journal (checkpoint + replay of everything after it), hand
             the shell and the transport their parts — each wipes what
             the crash destroyed, restores, and the transport re-queues
             journal-unacked outbound messages under a fresh epoch —
             and report the crash as a *metric* failure: with the
             journal the site's updates arrive late, never never.

   The derived state is exactly a checkpoint's content, and taking a
   checkpoint appends it unchanged. *)

module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Item = Cm_rule.Item

type stats = {
  crashes : int;
  restarts : int;
  replayed_records : int;
  checkpoints : int;
}

(* One site's counters, labelled [site]: the manager's only tally, which
   [stats] sums. *)
type site_obs = {
  so_crashes : Obs.Counter.t;
  so_restarts : Obs.Counter.t;
  so_replayed : Obs.Counter.t;
  so_checkpoints : Obs.Counter.t;
}

type t = {
  sim : Sim.t;
  net : Msg.t Net.t;
  reliable : Reliable.t option;
  journals : Journal.registry;
  obs : Obs.t;
  mode : Journal.durability;
  shells : (string, Shell.t) Hashtbl.t;
  by_site : (string, site_obs) Hashtbl.t;
}

(* Simulated seconds between a site's checkpoints. *)
let checkpoint_period = 60.0

let create ~sim ~net ?reliable ~journals ?(obs = Obs.noop) mode =
  {
    sim;
    net;
    reliable;
    journals;
    obs;
    mode;
    shells = Hashtbl.create 8;
    by_site = Hashtbl.create 8;
  }

let site_obs t site =
  match Hashtbl.find_opt t.by_site site with
  | Some so -> so
  | None ->
    let counter name = Obs.Counter.make t.obs name ~labels:[ ("site", site) ] in
    let so =
      { so_crashes = counter "recovery_crashes";
        so_restarts = counter "recovery_restarts";
        so_replayed = counter "recovery_replayed_records";
        so_checkpoints = counter "recovery_checkpoints" }
    in
    Hashtbl.replace t.by_site site so;
    so

let mode t = t.mode
let journals t = t.journals

(* -- the recoverable state -- *)

(* One peer's link as the fold accumulates it: the sender half towards
   the peer and the receiver half from it. *)
type link_acc = {
  mutable next_mid : int;
  unacked : (int, int * int * Msg.t) Hashtbl.t;  (* mid -> epoch, seq, payload *)
  mutable in_epoch : int;
  mutable in_expected : int;
  delivered : (int, unit) Hashtbl.t;
}

let sorted_keys tbl =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort compare

(* The site's recoverable state: the journal — its newest checkpoint,
   then every record after it — folded into the Checkpoint record a
   checkpoint taken now appends, paired with the number of records
   folded (the base included).  Checkpoints and restarts both read the
   state here, which is what makes replay from a checkpoint and replay
   from the journal's origin agree. *)
let derive t j =
  let store = ref Item.Map.empty in
  let links : (string, link_acc) Hashtbl.t = Hashtbl.create 4 in
  let phases : (int, Journal.epoch_phase * Cm_rule.Rule.t list) Hashtbl.t =
    Hashtbl.create 4
  in
  let active = ref 0 in
  let incarnation = ref 0 in
  let replayed = ref 0 in
  let link peer =
    match Hashtbl.find_opt links peer with
    | Some l -> l
    | None ->
      let l =
        { next_mid = 0; unacked = Hashtbl.create 8; in_epoch = 0; in_expected = 0;
          delivered = Hashtbl.create 16 }
      in
      Hashtbl.replace links peer l;
      l
  in
  let rules_of e =
    match Hashtbl.find_opt phases e with Some (_, rules) -> rules | None -> []
  in
  let fold r =
    incr replayed;
    match r with
    | Journal.Store_write { item; value; _ } ->
      store := Item.Map.add item value !store
    | Journal.Outbound { to_site; mid; epoch; seq; payload; _ } ->
      let l = link to_site in
      l.next_mid <- max l.next_mid (mid + 1);
      Hashtbl.replace l.unacked mid (epoch, seq, payload)
    | Journal.Acked { to_site; mid; _ } -> Hashtbl.remove (link to_site).unacked mid
    | Journal.Delivered { from_site; epoch; seq; mid; applied = _; _ } ->
      let l = link from_site in
      l.in_epoch <- epoch;
      l.in_expected <- seq + 1;
      Hashtbl.replace l.delivered mid ()
    | Journal.Restarted { incarnation = n; _ } -> incarnation := max !incarnation n
    | Journal.Epoch_proposed { epoch; rules; _ } ->
      Hashtbl.replace phases epoch (Journal.Ep_proposed, rules)
    | Journal.Epoch_cutover { epoch; _ } ->
      (* Epoch 0's rules are configuration, never journaled: it enters
         the table with none. *)
      Hashtbl.replace phases !active (Journal.Ep_draining, rules_of !active);
      Hashtbl.replace phases epoch (Journal.Ep_active, rules_of epoch);
      active := epoch
    | Journal.Epoch_retired { epoch; _ } ->
      Hashtbl.replace phases epoch (Journal.Ep_retired, rules_of epoch)
    | Journal.Checkpoint
        { incarnation = n; store = st; links = frozen; rule_epochs; active_epoch; _ }
      ->
      (* The base: replace everything derived so far. *)
      incarnation := max !incarnation n;
      store := List.fold_left (fun m (it, v) -> Item.Map.add it v m) Item.Map.empty st;
      Hashtbl.reset links;
      List.iter
        (fun (f : Journal.link_state) ->
          let l = link f.peer in
          l.next_mid <- f.next_mid;
          List.iter
            (fun (mid, epoch, seq, payload) ->
              Hashtbl.replace l.unacked mid (epoch, seq, payload))
            f.unacked;
          l.in_epoch <- f.in_epoch;
          l.in_expected <- f.in_expected;
          List.iter (fun mid -> Hashtbl.replace l.delivered mid ()) f.delivered_mids)
        frozen;
      Hashtbl.reset phases;
      List.iter (fun (e, phase, rules) -> Hashtbl.replace phases e (phase, rules)) rule_epochs;
      active := active_epoch
    | Journal.Epoch_rollback _ ->
      (* Documentation only: the rollback's epoch-state effects replay
         via its own Epoch_proposed / Epoch_cutover records. *)
      ()
    | Journal.Event _ | Journal.Fire_sent _ -> ()
  in
  let base, rest = Journal.replay_base j in
  Option.iter fold base;
  List.iter fold rest;
  let link_state peer =
    let l = Hashtbl.find links peer in
    { Journal.peer;
      next_mid = l.next_mid;
      unacked =
        List.map
          (fun mid ->
            let epoch, seq, payload = Hashtbl.find l.unacked mid in
            (mid, epoch, seq, payload))
          (sorted_keys l.unacked);
      in_epoch = l.in_epoch;
      in_expected = l.in_expected;
      delivered_mids = sorted_keys l.delivered }
  in
  ( Journal.Checkpoint
      { time = Sim.now t.sim;
        incarnation = !incarnation;
        store = Item.Map.bindings !store;
        links = List.map link_state (sorted_keys links);
        rule_epochs =
          List.map
            (fun e ->
              let phase, rules = Hashtbl.find phases e in
              (e, phase, rules))
            (sorted_keys phases);
        active_epoch = !active },
    !replayed )

let checkpoint_now t ~site =
  let j = Journal.for_site t.journals ~site in
  Journal.append j (fst (derive t j));
  Obs.Counter.incr (site_obs t site).so_checkpoints

let register_shell t shell =
  let site = Shell.site shell in
  Hashtbl.replace t.shells site shell;
  match t.mode with
  | Journal.Journal_with_checkpoint ->
    Sim.every t.sim ~period:checkpoint_period
      (fun () ->
        (* A crashed site cannot write its own checkpoint. *)
        if not (Net.site_is_down t.net ~site) then checkpoint_now t ~site)
      ~cancel:(fun () -> false)
  | _ -> ()

(* -- crash / restart -- *)

let crash t ~site =
  Net.crash_site t.net ~site;
  Obs.Counter.incr (site_obs t site).so_crashes

let restart t ~site =
  let j = Journal.for_site t.journals ~site in
  Net.restart_site t.net ~site;
  Journal.append j
    (Journal.Restarted { time = Sim.now t.sim; incarnation = Journal.incarnation j + 1 });
  let shell = Hashtbl.find_opt t.shells site in
  (match derive t j with
   | Journal.Checkpoint { incarnation; store; links; rule_epochs; _ }, replayed ->
     Obs.Counter.incr (site_obs t site).so_replayed ~by:replayed;
     Option.iter (fun shell -> Shell.recover shell ~store ~epochs:rule_epochs) shell;
     Option.iter (fun r -> Reliable.recover r ~site ~incarnation links) t.reliable
   | _ -> assert false (* derive builds a checkpoint *));
  Obs.Counter.incr (site_obs t site).so_restarts;
  (* §5: with the journal the crash maps to a metric failure — the
     notice doubles as the sign of life that clears peers' suspicion of
     this site (what they owe it never left their wire: a durable frame
     keeps retransmitting past a give-up). *)
  Option.iter (fun shell -> Shell.report_failure shell Msg.Metric) shell

let stats t =
  let sum f = Hashtbl.fold (fun _ so n -> n + Obs.Counter.value (f so)) t.by_site 0 in
  {
    crashes = sum (fun so -> so.so_crashes);
    restarts = sum (fun so -> so.so_restarts);
    replayed_records = sum (fun so -> so.so_replayed);
    checkpoints = sum (fun so -> so.so_checkpoints);
  }
