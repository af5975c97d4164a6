(* Crash-recovery manager: the protocol that makes Journal's memory
   actionable (paper §5, ISSUE 3).

   crash:    take the site's network endpoint down.  Volatile state is
             not touched yet — a real crash does not get to run code.
   restart:  bring the endpoint back, wipe the volatile state the crash
             actually destroyed (shell store, reliable link state),
             derive the durable state from the journal (checkpoint +
             replay of everything after it), restore it, re-queue
             journal-unacked outbound messages under a fresh epoch, and
             report the crash as a *metric* failure — with the journal
             the site's updates arrive late, never never.

   The derived state is a pure function of the journal, which is also
   how checkpoints are taken: a checkpoint is derive() frozen into a
   record, so replay-from-checkpoint and replay-from-origin agree by
   construction. *)

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

(* -- journal folding -- *)

type out_state = {
  mutable next_mid : int;
  unacked : (int, int * int * Msg.t) Hashtbl.t;  (* mid -> epoch, seq, payload *)
}

type in_state = {
  mutable in_epoch : int;
  mutable in_expected : int;
  delivered : (int, unit) Hashtbl.t;
}

type derived = {
  d_incarnation : int;
  d_store : (Item.t * Cm_rule.Value.t) list;  (* in item order *)
  d_out : (string * out_state) list;  (* in peer order *)
  d_in : (string * in_state) list;  (* in peer order *)
  d_epoch_ops : Shell.epoch_op list;  (* rule-epoch transitions, in order *)
  d_replayed : int;  (* records folded, checkpoint base included *)
}

let derive j =
  let store = ref Item.Map.empty in
  let outs : (string, out_state) Hashtbl.t = Hashtbl.create 4 in
  let ins : (string, in_state) Hashtbl.t = Hashtbl.create 4 in
  let incarnation = ref 0 in
  let replayed = ref 0 in
  let rev_ops : Shell.epoch_op list ref = ref [] in
  let out_for peer =
    match Hashtbl.find_opt outs peer with
    | Some o -> o
    | None ->
      let o = { next_mid = 0; unacked = Hashtbl.create 8 } in
      Hashtbl.replace outs peer o;
      o
  in
  let in_for peer =
    match Hashtbl.find_opt ins peer with
    | Some i -> i
    | None ->
      let i = { in_epoch = 0; in_expected = 0; delivered = Hashtbl.create 16 } in
      Hashtbl.replace ins peer i;
      i
  in
  let fold r =
    incr replayed;
    match r with
    | Journal.Store_write { item; value; _ } ->
      store := Item.Map.add item value !store
    | Journal.Outbound { to_site; mid; epoch; seq; payload; _ } ->
      let o = out_for to_site in
      o.next_mid <- max o.next_mid (mid + 1);
      Hashtbl.replace o.unacked mid (epoch, seq, payload)
    | Journal.Acked { to_site; mid; _ } ->
      Hashtbl.remove (out_for to_site).unacked mid
    | Journal.Delivered { from_site; epoch; seq; mid; applied = _; _ } ->
      let i = in_for from_site in
      i.in_epoch <- epoch;
      i.in_expected <- seq + 1;
      Hashtbl.replace i.delivered mid ()
    | Journal.Restarted { incarnation = n; _ } ->
      incarnation := max !incarnation n
    | Journal.Epoch_proposed { epoch; rules; _ } ->
      rev_ops := Shell.Op_propose (epoch, rules) :: !rev_ops
    | Journal.Epoch_cutover { epoch; _ } ->
      rev_ops := Shell.Op_cutover epoch :: !rev_ops
    | Journal.Epoch_retired { epoch; _ } ->
      rev_ops := Shell.Op_retire epoch :: !rev_ops
    | Journal.Checkpoint
        { incarnation = n; store = st; links; rule_epochs; active_epoch = _; _ }
      ->
      (* Checkpoint base: replace everything derived so far.  The frozen
         epoch phases reconstruct canonically as an op sequence: all
         proposals ascending, then a cutover for every epoch past the
         proposed phase ascending (cutovers are monotonic, so the last
         one is the active epoch), then the retirements.  A retire of a
         merely proposed epoch is impossible, so phases determine the
         ops unambiguously. *)
      rev_ops := [];
      List.iter
        (fun (e, _, rules) ->
          if e > 0 then rev_ops := Shell.Op_propose (e, rules) :: !rev_ops)
        rule_epochs;
      List.iter
        (fun (e, phase, _) ->
          if e > 0 && phase <> Journal.Ep_proposed then
            rev_ops := Shell.Op_cutover e :: !rev_ops)
        rule_epochs;
      List.iter
        (fun (e, phase, _) ->
          if phase = Journal.Ep_retired then
            rev_ops := Shell.Op_retire e :: !rev_ops)
        rule_epochs;
      incarnation := max !incarnation n;
      store := List.fold_left (fun m (it, v) -> Item.Map.add it v m) Item.Map.empty st;
      Hashtbl.reset outs;
      Hashtbl.reset ins;
      List.iter
        (fun (l : Journal.link_state) ->
          let o = out_for l.Journal.peer in
          o.next_mid <- l.Journal.next_mid;
          List.iter
            (fun (mid, epoch, seq, payload) ->
              Hashtbl.replace o.unacked mid (epoch, seq, payload))
            l.Journal.unacked;
          let i = in_for l.Journal.peer in
          i.in_epoch <- l.Journal.in_epoch;
          i.in_expected <- l.Journal.in_expected;
          List.iter (fun mid -> Hashtbl.replace i.delivered mid ())
            l.Journal.delivered_mids)
        links
    | Journal.Epoch_rollback _ ->
      (* Documentation only: the rollback's epoch-state effects replay
         via its own Epoch_proposed / Epoch_cutover records. *)
      ()
    | Journal.Event _ | Journal.Fire_sent _ -> ()
  in
  let base, rest = Journal.replay_base j in
  Option.iter fold base;
  List.iter fold rest;
  let sorted_peers tbl =
    Hashtbl.fold (fun peer s acc -> (peer, s) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    d_incarnation = !incarnation;
    d_store = Item.Map.bindings !store;
    d_out = sorted_peers outs;
    d_in = sorted_peers ins;
    d_epoch_ops = List.rev !rev_ops;
    d_replayed = !replayed;
  }

(* Epoch state implied by a transition sequence — the checkpoint's
   frozen form of [d_epoch_ops].  Keeping this a function of the journal
   (rather than asking the shell) preserves the invariant that a
   checkpoint is derive() frozen into a record. *)
let epoch_summary ops =
  let phases :
      (int, Journal.epoch_phase * Cm_rule.Rule.t list) Hashtbl.t =
    Hashtbl.create 4
  in
  let active = ref 0 in
  List.iter
    (function
      | Shell.Op_propose (e, rules) ->
        Hashtbl.replace phases e (Journal.Ep_proposed, rules)
      | Shell.Op_cutover e ->
        let old_rules =
          match Hashtbl.find_opt phases !active with
          | Some (_, r) -> r
          | None -> []  (* epoch 0: configuration, no journaled rules *)
        in
        Hashtbl.replace phases !active (Journal.Ep_draining, old_rules);
        (match Hashtbl.find_opt phases e with
        | Some (_, rules) -> Hashtbl.replace phases e (Journal.Ep_active, rules)
        | None -> Hashtbl.replace phases e (Journal.Ep_active, []));
        active := e
      | Shell.Op_retire e ->
        let rules =
          match Hashtbl.find_opt phases e with Some (_, r) -> r | None -> []
        in
        Hashtbl.replace phases e (Journal.Ep_retired, rules))
    ops;
  let entries =
    Hashtbl.fold
      (fun e (phase, rules) acc ->
        (e, phase, (if e = 0 then [] else rules)) :: acc)
      phases []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  (entries, !active)

(* -- checkpoints -- *)

(* [(mid, epoch, seq, payload)] in mid (= original send) order. *)
let unacked_list o =
  Hashtbl.fold (fun mid (e, s, p) acc -> (mid, e, s, p) :: acc) o.unacked []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

let checkpoint_now t ~site =
  let j = Journal.for_site t.journals ~site in
  let d = derive j in
  let links =
    let peers =
      List.sort_uniq String.compare (List.map fst d.d_out @ List.map fst d.d_in)
    in
    List.map
      (fun peer ->
        let next_mid, unacked =
          match List.assoc_opt peer d.d_out with
          | Some o -> (o.next_mid, unacked_list o)
          | None -> (0, [])
        in
        let in_epoch, in_expected, delivered_mids =
          match List.assoc_opt peer d.d_in with
          | Some i ->
            ( i.in_epoch,
              i.in_expected,
              Hashtbl.fold (fun mid () acc -> mid :: acc) i.delivered []
              |> List.sort compare )
          | None -> (0, 0, [])
        in
        { Journal.peer; next_mid; unacked; in_epoch; in_expected;
          delivered_mids })
      peers
  in
  let rule_epochs, active_epoch = epoch_summary d.d_epoch_ops in
  Journal.append j
    (Journal.Checkpoint
       { time = Sim.now t.sim; incarnation = Journal.incarnation j;
         store = d.d_store; links; rule_epochs; active_epoch });
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
  let incarnation = Journal.incarnation j + 1 in
  Net.restart_site t.net ~site;
  Journal.append j (Journal.Restarted { time = Sim.now t.sim; incarnation });
  (* The crash destroyed volatile state; model that before restoring. *)
  (match Hashtbl.find_opt t.shells site with
   | Some shell -> Shell.reset_volatile shell
   | None -> ());
  (match t.reliable with
   | Some r -> Reliable.reset_endpoint r ~site
   | None -> ());
  (* Replay: checkpoint base plus everything after it. *)
  let d = derive j in
  Obs.Counter.incr (site_obs t site).so_replayed ~by:d.d_replayed;
  (match Hashtbl.find_opt t.shells site with
   | Some shell ->
     List.iter (fun (item, v) -> Shell.restore_aux shell item v) d.d_store;
     (* Replay the rule-epoch transitions so the site re-enters the
        epoch it had actually reached instead of resurrecting the
        retired base program (ISSUE 6: crash during cutover). *)
     Shell.restore_epoch_ops shell d.d_epoch_ops
   | None -> ());
  (match t.reliable with
   | Some r ->
     List.iter
       (fun (peer, (i : in_state)) ->
         Reliable.restore_receiver_state r ~from_site:peer ~to_site:site
           ~epoch:i.in_epoch ~expected:i.in_expected
           ~delivered_mids:
             (Hashtbl.fold (fun mid () acc -> mid :: acc) i.delivered []
             |> List.sort compare))
       d.d_in;
     List.iter
       (fun (peer, (o : out_state)) ->
         (* New incarnation: sequence space restarts under the bumped
            epoch, so retransmits from the previous life get rejected
            instead of mis-deduplicated. *)
         Reliable.restore_sender_state r ~from_site:site ~to_site:peer
           ~epoch:incarnation ~next_mid:o.next_mid;
         Reliable.requeue_unacked r ~from_site:site ~to_site:peer (unacked_list o))
       d.d_out
   | None -> ());
  Obs.Counter.incr (site_obs t site).so_restarts;
  (* §5: with the journal the crash maps to a metric failure — the
     notice doubles as the sign of life that clears peers' suspicion of
     this site (what they owe it never left their wire: a durable frame
     keeps retransmitting past a give-up). *)
  match Hashtbl.find_opt t.shells site with
  | Some shell -> Shell.report_failure shell Msg.Metric
  | None -> ()

let stats t =
  let sum f = Hashtbl.fold (fun _ so n -> n + Obs.Counter.value (f so)) t.by_site 0 in
  {
    crashes = sum (fun so -> so.so_crashes);
    restarts = sum (fun so -> so.so_restarts);
    replayed_records = sum (fun so -> so.so_replayed);
    checkpoints = sum (fun so -> so.so_checkpoints);
  }
