(* Runtime rule evolution (ISSUE 6): versioned rule epochs with
   drain-and-cutover semantics over a *running* system.

   §4.2.3 of the paper treats an interface change as an offline
   reconfiguration — stop the world, rewrite the rules, restart.  This
   module replaces that with a per-site state machine mirroring the
   reliable layer's incarnation-epoch framing: a proposed program is
   staged (journaled) at every shell, a cutover atomically switches new
   dispatch to it while firings already on the wire keep executing under
   the program that produced them (the old epoch "drains"), and
   retirement ends the drain — stale envelopes are rejected and counted
   from then on, never silently dropped and never re-interpreted under
   the new rules.

   On cutover the system re-derives every declared copy constraint from
   the running program to the incoming one, and each §3.3 guarantee is
   classified as kept / upgraded / lost{reason} — the formal residue of
   the paper's "which guarantees survive the change" question, surfaced
   through Obs and `cmtool evolve`. *)

module Sim = Cm_sim.Sim
module Json = Cm_util.Json
open Cm_rule

(* -- guarantee survival across one transition -- *)

type survival = Derive.survival = Kept | Upgraded | Lost of string | Never of string

type guarantee_survival = {
  gs_name : string;  (* Guarantee.name vocabulary: "(1) follows", ... *)
  gs_before : Derive.verdict;
  gs_after : Derive.verdict;
  gs_survival : survival;
}

type constraint_survival = {
  cs_source : string;
  cs_target : string;
  cs_guarantees : guarantee_survival list;  (* the four §3.3.1 forms *)
}

type transition = {
  tr_from : int;
  tr_to : int;
  tr_at : float;
  tr_strategy : string;
  tr_survivals : constraint_survival list;
}

type rollback = {
  rb_at : float;
  rb_from : int;  (* the regressing epoch, rolled back *)
  rb_to : int;  (* the epoch whose program was restored *)
  rb_via : int;  (* fresh epoch number carrying the restored program *)
  rb_strategy : string;  (* name of the rejected strategy *)
  rb_lost : (string * string * string) list;
}

(* The four §3.3.1 forms of one copy, before and after a change. *)
let constraint_survival ~source ~target (before : Derive.report)
    (after : Derive.report) =
  let pick name b a =
    { gs_name = name; gs_before = b; gs_after = a; gs_survival = Derive.survival b a }
  in
  {
    cs_source = source;
    cs_target = target;
    cs_guarantees =
      [
        pick "(1) follows" before.Derive.follows after.Derive.follows;
        pick "(2) leads" before.Derive.leads after.Derive.leads;
        pick "(3) strictly-follows" before.Derive.strictly_follows
          after.Derive.strictly_follows;
        pick "(4) metric-follows" before.Derive.metric_follows
          after.Derive.metric_follows;
      ];
  }

let compare_programs ~interfaces_before ~interfaces_after ~strategy_before
    ~strategy_after ~constraints =
  List.map
    (fun (source_base, target_base) ->
      let source = Interface.family source_base [ "n" ] in
      let target = Interface.family target_base [ "n" ] in
      constraint_survival ~source:source_base ~target:target_base
        (Derive.copy_guarantees ~interfaces:interfaces_before
           ~strategy:strategy_before ~source ~target)
        (Derive.copy_guarantees ~interfaces:interfaces_after
           ~strategy:strategy_after ~source ~target))
    constraints

let kept_names tr =
  List.concat_map
    (fun cs ->
      List.filter_map
        (fun g -> match g.gs_survival with Kept -> Some g.gs_name | _ -> None)
        cs.cs_guarantees)
    tr.tr_survivals

(* -- rendering (shared by cmtool evolve and the pinned goldens) -- *)

let verdict_short = function
  | Derive.Proved { kappa = Some k; _ } -> Printf.sprintf "proved (kappa = %g)" k
  | Derive.Proved _ -> "proved"
  | Derive.Unprovable _ -> "unprovable"

let survivals_to_text css =
  let buf = Buffer.create 256 in
  List.iter
    (fun cs ->
      Buffer.add_string buf
        (Printf.sprintf "guarantee survival: %s copies %s\n" cs.cs_target
           cs.cs_source);
      List.iter
        (fun g ->
          let after =
            match g.gs_survival with
            | Lost reason | Never reason -> "unprovable: " ^ reason
            | Kept | Upgraded -> verdict_short g.gs_after
          in
          Buffer.add_string buf
            (Printf.sprintf "  %-20s %-9s %s -> %s\n" g.gs_name
               (Derive.survival_status g.gs_survival)
               (verdict_short g.gs_before) after))
        cs.cs_guarantees)
    css;
  Buffer.contents buf

let verdict_json_fields prefix = function
  | Derive.Proved { kappa; _ } ->
    Printf.sprintf "\"%s\": \"proved\"" prefix
    ^
    (match kappa with
    | Some k -> Printf.sprintf ", \"%s_kappa\": %g" prefix k
    | None -> "")
  | Derive.Unprovable reason ->
    Printf.sprintf "\"%s\": \"unprovable\", \"%s_reason\": \"%s\"" prefix prefix
      (Json.escape reason)

let survivals_to_json css =
  let guarantee g =
    Printf.sprintf "      { \"name\": \"%s\", \"status\": \"%s\", %s, %s }"
      (Json.escape g.gs_name)
      (Derive.survival_status g.gs_survival)
      (verdict_json_fields "before" g.gs_before)
      (verdict_json_fields "after" g.gs_after)
  in
  let constraint_ cs =
    Printf.sprintf
      "  { \"source\": \"%s\", \"target\": \"%s\",\n    \"guarantees\": [\n%s\n    ] }"
      (Json.escape cs.cs_source) (Json.escape cs.cs_target)
      (String.concat ",\n" (List.map guarantee cs.cs_guarantees))
  in
  Printf.sprintf "{ \"constraints\": [\n%s\n] }\n"
    (String.concat ",\n" (List.map constraint_ css))

(* -- the runtime manager -- *)

type t = {
  system : System.t;
  required : (string * string) list;
  mutable current_epoch : int;
  mutable current_strategy : Strategy.t option;  (* set at each cutover *)
  mutable next_epoch : int;
  mutable proposed : (int * Strategy.t) option;
  mutable draining : int list;  (* ascending *)
  mutable rev_transitions : transition list;  (* newest first *)
  mutable rev_rollbacks : rollback list;  (* newest first *)
  mutable rolling_back : bool;  (* re-entrancy guard for auto-rollback *)
  retirements : Obs.Counter.t;
}

let create ?(required = []) system =
  let declared =
    List.map
      (fun e -> System.Guarantee_view.(e.gv_source, e.gv_target))
      (System.guarantee_view system)
  in
  List.iter
    (fun pair ->
      if not (List.mem pair declared) then
        invalid_arg
          (Printf.sprintf
             "Evolution.create: required pair %s->%s is not a declared copy"
             (fst pair) (snd pair)))
    required;
  {
    system;
    required;
    current_epoch = 0;
    current_strategy = None;
    next_epoch = 1;
    proposed = None;
    draining = [];
    rev_transitions = [];
    rev_rollbacks = [];
    rolling_back = false;
    retirements = Obs.Counter.make (System.obs system) "evolution_retirements";
  }

let current_epoch t = t.current_epoch
let draining t = t.draining
let transitions t = List.rev t.rev_transitions
let rollbacks t = List.rev t.rev_rollbacks

let stale_rejections t =
  List.fold_left
    (fun acc (_, shell) -> acc + Shell.stale_epoch_rejections shell)
    0 (System.shells t.system)

let propose t (strategy : Strategy.t) =
  match t.proposed with
  | Some (n, _) -> Error (Printf.sprintf "epoch %d is already proposed" n)
  | None -> (
    (* Refused before any shell stages it, so a proposal can always cut
       over: [System.add_shell] refuses a shell while one is
       outstanding, so its placements still hold then. *)
    match Rule.duplicate_id strategy.Strategy.rules with
    | Some id -> Error ("duplicate rule id in proposed program: " ^ id)
    | None -> (
      match System.placeable t.system strategy with
      | Error e -> Error e
      | Ok () ->
        let epoch = t.next_epoch in
        t.next_epoch <- epoch + 1;
        List.iter
          (fun (_, shell) -> Shell.propose_epoch shell ~epoch strategy.Strategy.rules)
          (System.shells t.system);
        t.proposed <- Some (epoch, strategy);
        let obs = System.obs t.system in
        if Obs.enabled obs then
          Obs.incr obs "evolution_proposals"
            ~labels:[ ("strategy", strategy.Strategy.strategy_name) ];
        Ok epoch))

let rec cutover t =
  match t.proposed with
  | None -> Error "no epoch is proposed"
  | Some (epoch, strategy) ->
    let old_epoch = t.current_epoch
    and old_rules = System.strategy_rules t.system in
    let old_strategy = t.current_strategy in
    let at = Sim.now (System.sim t.system) in
    (* The system switches every shell to the new epoch and re-derives
       every declared copy from the running program to the incoming
       one; the read router sees the new reports at once. *)
    let survivals =
      List.map
        (fun (source, target, before, after) ->
          constraint_survival ~source ~target before after)
        (System.cutover t.system ~epoch strategy)
    in
    let tr =
      {
        tr_from = old_epoch;
        tr_to = epoch;
        tr_at = at;
        tr_strategy = strategy.Strategy.strategy_name;
        tr_survivals = survivals;
      }
    in
    t.proposed <- None;
    t.draining <- t.draining @ [ old_epoch ];
    t.current_epoch <- epoch;
    t.current_strategy <- Some strategy;
    t.rev_transitions <- tr :: t.rev_transitions;
    let obs = System.obs t.system in
    if Obs.enabled obs then begin
      Obs.incr obs "evolution_cutovers";
      Obs.gauge obs "evolution_epoch" (float_of_int epoch);
      List.iter
        (fun cs ->
          let cname = cs.cs_source ^ "->" ^ cs.cs_target in
          List.iter
            (fun g ->
              Obs.incr obs "evolution_guarantee_survival"
                ~labels:
                  [ ("constraint", cname); ("guarantee", g.gs_name);
                    ("status", Derive.survival_status g.gs_survival) ];
              Obs.gauge obs "evolution_guarantee_held"
                ~labels:[ ("constraint", cname); ("guarantee", g.gs_name) ]
                (match g.gs_after with
                | Derive.Proved _ -> 1.0
                | Derive.Unprovable _ -> 0.0))
            cs.cs_guarantees)
        survivals
    end;
    (* -- auto-rollback (self-healing): a cutover that *regresses* a
       required pair — a guarantee proved under the outgoing epoch,
       unprovable under the incoming one — is undone immediately by
       re-proposing the outgoing program under a fresh epoch number.
       Only [Lost] triggers: [Never] means the guarantee was absent all
       along, so the prior epoch is no better a refuge. *)
    let lost_required =
      if t.rolling_back then []
      else
        List.concat_map
          (fun cs ->
            if List.mem (cs.cs_source, cs.cs_target) t.required then
              List.filter_map
                (fun g ->
                  match g.gs_survival with
                  | Lost _ -> Some (cs.cs_source, cs.cs_target, g.gs_name)
                  | Kept | Upgraded | Never _ -> None)
                cs.cs_guarantees
            else [])
          survivals
    in
    if lost_required <> [] then begin
      let restore =
        match old_strategy with
        | Some s -> s
        | None ->
          (* Epoch 0's program is configuration, not a Strategy — wrap
             the rules snapshot so it can be re-proposed. *)
          {
            Strategy.strategy_name = "epoch0";
            description = "base program restored by rollback";
            rules = old_rules;
            aux_init = [];
          }
      in
      let reason =
        String.concat ", "
          (List.map
             (fun (s, tg, g) -> Printf.sprintf "%s->%s %s" s tg g)
             lost_required)
      in
      (* Write-ahead: the rollback intent reaches stable storage before
         the restoring epoch's own Epoch_proposed / Epoch_cutover
         records, so a crash mid-rollback is explainable from the log
         and replay lands in the restored epoch. *)
      List.iter
        (fun (site, _) ->
          match System.journal t.system ~site with
          | Some j ->
            Journal.append j
              (Journal.Epoch_rollback
                 { time = at; from_epoch = epoch; to_epoch = old_epoch; reason })
          | None -> ())
        (System.shells t.system);
      t.rolling_back <- true;
      let restored =
        match propose t restore with
        | Error _ -> None
        | Ok via -> (
          match cutover t with Ok _ -> Some via | Error _ -> None)
      in
      t.rolling_back <- false;
      match restored with
      | None -> ()  (* unreachable: no outstanding proposal, valid rules *)
      | Some via ->
        t.rev_rollbacks <-
          {
            rb_at = at;
            rb_from = epoch;
            rb_to = old_epoch;
            rb_via = via;
            rb_strategy = strategy.Strategy.strategy_name;
            rb_lost = lost_required;
          }
          :: t.rev_rollbacks;
        if Obs.enabled obs then
          Obs.incr obs "evolution_rollbacks"
            ~labels:[ ("strategy", strategy.Strategy.strategy_name) ]
    end;
    Ok tr

let retire t ~epoch =
  if not (List.mem epoch t.draining) then
    Error (Printf.sprintf "epoch %d is not draining" epoch)
  else begin
    List.iter
      (fun (_, shell) -> Shell.retire_epoch shell ~epoch)
      (System.shells t.system);
    t.draining <- List.filter (fun e -> e <> epoch) t.draining;
    Obs.Counter.incr t.retirements;
    Ok ()
  end

let retirements t = Obs.Counter.value t.retirements

let transport_drained t =
  match System.reliable t.system with
  | Some r -> Reliable.pending r = 0
  | None -> true

(* Simulated seconds between two checks for a quiescent transport. *)
let check_period = 1.0

let quiesce_retire t =
  let sim = System.sim t.system in
  List.iter
    (fun epoch ->
      let rec check () =
        if List.mem epoch t.draining then
          if transport_drained t then ignore (retire t ~epoch)
          else Sim.schedule sim ~delay:check_period check
      in
      Sim.schedule sim ~delay:check_period check)
    t.draining

let evolve ?(quiesce = true) t strategy =
  match propose t strategy with
  | Error e -> Error e
  | Ok _ -> (
    match cutover t with
    | Error e -> Error e
    | Ok tr ->
      if quiesce then quiesce_retire t;
      Ok tr)
