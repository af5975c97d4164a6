module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Item = Cm_rule.Item
module System = Cm_core.System
module Cmrid = Cm_core.Cmrid
module Obs = Cm_core.Obs
module Monitor = Cm_core.Monitor
module Guarantee_view = System.Guarantee_view
module Json = Cm_util.Json

type outcome = Replica | Master | Forced_poll

let outcome_to_string = function
  | Replica -> "replica"
  | Master -> "master"
  | Forced_poll -> "forced_poll"

let outcomes = [| Replica; Master; Forced_poll |]

let outcome_index = function Replica -> 0 | Master -> 1 | Forced_poll -> 2

(* Synchronous-poll surcharge of a forced poll and of a quarantine
   probe, and the quarantine dwell before a probe, in simulated
   seconds. *)
let poll_penalty = 1.0
let probe_after = 5.0

type skip = { sk_target : string; sk_site : string; sk_reason : string }

type decision = {
  d_base : string;
  d_client_site : string;
  d_slo : float option;
  d_outcome : outcome;
  d_served_base : string;
  d_served_site : string;
  d_served_kappa : float;
  d_latency : float;
  d_skips : skip list;
}

type replica = { rep_target : string; rep_site : string }

(* One copy's quarantine counters, labelled by its target base. *)
type copy_obs = {
  co_quarantines : Obs.Counter.t;
  co_probes : Obs.Counter.t;
  co_readmissions : Obs.Counter.t;
}

(* The router's counters are its only tally of decisions and quarantine
   transitions; the accessors below sum them. *)
type t = {
  system : System.t;
  monitor : Monitor.t option;  (* staleness verdicts; None = no quarantine *)
  by_source : (string, replica list) Hashtbl.t;  (* declaration order *)
  master_site : (string, string) Hashtbl.t;  (* source base -> site *)
  mutable rev_bases : string list;  (* distinct sources, newest first *)
  quarantined : (string * string, float) Hashtbl.t;
      (* (source, target) -> earliest probe time; absent = active *)
  hooks : (decision -> unit) Queue.t;
  reads_by_outcome : Obs.Counter.t array;  (* by [outcome_index] *)
  by_copy : (string * string, copy_obs) Hashtbl.t;  (* (source, target) *)
}

(* Made on a copy's first quarantine, whether or not the catalog lists
   it: a monitor may report a copy this router was not built over. *)
let copy_obs t ~source ~target =
  match Hashtbl.find_opt t.by_copy (source, target) with
  | Some co -> co
  | None ->
    let counter name =
      Obs.Counter.make (System.obs t.system) name ~labels:[ ("target", target) ]
    in
    let co =
      { co_quarantines = counter "route_quarantines";
        co_probes = counter "route_probes";
        co_readmissions = counter "route_readmissions" }
    in
    Hashtbl.replace t.by_copy (source, target) co;
    co

(* Entering (or re-entering, on a flap while awaiting probe) quarantine:
   the copy stops serving and the next probe moves [probe_after] out. *)
let quarantine_copy t ~source ~target ~at =
  let fresh = not (Hashtbl.mem t.quarantined (source, target)) in
  Hashtbl.replace t.quarantined (source, target) (at +. probe_after);
  if fresh then begin
    Obs.Counter.incr (copy_obs t ~source ~target).co_quarantines;
    Obs.gauge (System.obs t.system) "route_quarantined"
      ~labels:[ ("target", target) ] 1.0
  end

let readmit_copy t ~source ~target =
  Hashtbl.remove t.quarantined (source, target);
  Obs.Counter.incr (copy_obs t ~source ~target).co_readmissions;
  Obs.gauge (System.obs t.system) "route_quarantined"
    ~labels:[ ("target", target) ] 0.0

let create ?interfaces ?strategy system ~constraints =
  System.declare_copies ?interfaces ?strategy system constraints;
  let locator = System.locator system in
  let obs = System.obs system in
  let t =
    {
      system;
      monitor = System.monitor system;
      by_source = Hashtbl.create 8;
      master_site = Hashtbl.create 8;
      rev_bases = [];
      quarantined = Hashtbl.create 8;
      hooks = Queue.create ();
      reads_by_outcome =
        Array.map
          (fun o ->
            Obs.Counter.make obs "route_reads"
              ~labels:[ ("outcome", outcome_to_string o) ])
          outcomes;
      by_copy = Hashtbl.create 8;
    }
  in
  List.iter
    (fun (source, target) ->
      let rep = { rep_target = target; rep_site = locator (Item.make target) } in
      (match Hashtbl.find_opt t.by_source source with
      | Some reps ->
        if not (List.exists (fun r -> String.equal r.rep_target target) reps)
        then Hashtbl.replace t.by_source source (reps @ [ rep ])
      | None ->
        Hashtbl.replace t.by_source source [ rep ];
        Hashtbl.replace t.master_site source (locator (Item.make source));
        t.rev_bases <- source :: t.rev_bases))
    constraints;
  (* A live staleness transition quarantines the copy instantly; the
     healthy transition does NOT readmit — only a successful probe does
     (half-open), so one synchronous look at the copy always separates
     "monitor stopped complaining" from "serving reads again". *)
  Option.iter
    (fun m ->
      Monitor.on_staleness m (fun ~source ~target ~at ~stale ->
          if stale && Hashtbl.mem t.by_source source then
            quarantine_copy t ~source ~target ~at))
    t.monitor;
  t

let of_cmrid ?interfaces ?strategy system (cmrid : Cmrid.t) =
  create ?interfaces ?strategy system
    ~constraints:
      (List.map
         (fun (c : Cmrid.constraint_decl) -> (c.Cmrid.c_source, c.Cmrid.c_target))
         cmrid.Cmrid.constraints)

let system t = t.system
let bases t = List.rev t.rev_bases

let replicas t ~base =
  match Hashtbl.find_opt t.by_source base with
  | Some reps -> List.map (fun r -> (r.rep_target, r.rep_site)) reps
  | None -> []

let on_decision t hook = Queue.add hook t.hooks
let reads_by t o = Obs.Counter.value t.reads_by_outcome.(outcome_index o)

let reads t =
  Array.fold_left (fun n c -> n + Obs.Counter.value c) 0 t.reads_by_outcome

let quarantined t =
  Hashtbl.fold
    (fun (source, target) probe_at acc -> (source, target, probe_at) :: acc)
    t.quarantined []
  |> List.sort compare

let sum_copies t f =
  Hashtbl.fold (fun _ co n -> n + Obs.Counter.value (f co)) t.by_copy 0

let quarantines t = sum_copies t (fun co -> co.co_quarantines)
let probes t = sum_copies t (fun co -> co.co_probes)
let readmissions t = sum_copies t (fun co -> co.co_readmissions)

(* Round-trip cost of reading across one directed link: request out,
   value back.  Base latency only — routing must not consume the
   simulation PRNG (jitter draws would make runs depend on read volume). *)
let round_trip net ~from_site ~to_site =
  2.0 *. Net.link_base_latency net ~from_site ~to_site

let read ?within_kappa t ~client_site base =
  let net = System.net t.system in
  let now = Sim.now (System.sim t.system) in
  let master =
    match Hashtbl.find_opt t.master_site base with
    | Some site -> site
    | None -> System.locator t.system (Item.make base)
  in
  let reps =
    Option.value (Hashtbl.find_opt t.by_source base) ~default:[]
  in
  (* One pass over the catalog: collect skip reasons, keep the cheapest
     qualifying copy (ties broken by site then base name, so the choice
     is independent of catalog insertion order). *)
  let skips = ref [] in
  let best = ref None in
  List.iter
    (fun r ->
      let skip reason =
        skips :=
          { sk_target = r.rep_target; sk_site = r.rep_site; sk_reason = reason }
          :: !skips
      in
      (* Whether this copy may serve, and at what surcharge: a copy in
         quarantine with its probe due pays one forced refresh (the
         half-open "single trial request"), billed as a poll. *)
      let admission =
        match t.monitor with
        | None -> Some 0.0
        | Some m -> (
          match Hashtbl.find_opt t.quarantined (base, r.rep_target) with
          | Some probe_at when now < probe_at ->
            skip "quarantined";
            None
          | Some _ ->
            Obs.Counter.incr (copy_obs t ~source:base ~target:r.rep_target).co_probes;
            if Monitor.force_refresh m ~source:base ~target:r.rep_target then begin
              (* Still stale: back off another probe_after. *)
              Hashtbl.replace t.quarantined (base, r.rep_target)
                (now +. probe_after);
              skip "stale";
              None
            end
            else begin
              readmit_copy t ~source:base ~target:r.rep_target;
              Some poll_penalty
            end
          | None ->
            (* Active, but never serve against a live stale verdict even
               if no transition has fired yet (belt and braces). *)
            if Monitor.copy_stale m ~source:base ~target:r.rep_target then begin
              quarantine_copy t ~source:base ~target:r.rep_target ~at:now;
              skip "stale";
              None
            end
            else Some 0.0)
      in
      match admission with
      | None -> ()
      | Some surcharge -> (
        match
          System.copy_qualifies ?slo:within_kappa t.system ~source:base
            ~target:r.rep_target
        with
        | Error reason -> skip reason
        | Ok kappa ->
          if not (Net.reachable net ~from_site:client_site ~to_site:r.rep_site)
          then skip "unreachable"
          else begin
            let cost =
              surcharge
              +. round_trip net ~from_site:client_site ~to_site:r.rep_site
            in
            let better =
              match !best with
              | None -> true
              | Some (bc, br, _) ->
                cost < bc
                || (cost = bc
                   &&
                   let c = String.compare r.rep_site br.rep_site in
                   c < 0 || (c = 0 && String.compare r.rep_target br.rep_target < 0))
            in
            if better then best := Some (cost, r, kappa)
          end))
    reps;
  let outcome, served_base, served_site, served_kappa, latency =
    match !best with
    | Some (cost, r, kappa) -> (Replica, r.rep_target, r.rep_site, kappa, cost)
    | None ->
      if Net.reachable net ~from_site:client_site ~to_site:master then
        ( Master,
          base,
          master,
          0.0,
          round_trip net ~from_site:client_site ~to_site:master )
      else begin
        (* Master partitioned away: force a synchronous poll through the
           §3.1.1 read interface, relayed via the cheapest replica site
           that can still reach the master.  With no such relay the
           client polls directly and blocks across the partition — the
           penalty stands in for that wait. *)
        let relay = ref None in
        List.iter
          (fun r ->
            if
              Net.reachable net ~from_site:client_site ~to_site:r.rep_site
              && Net.reachable net ~from_site:r.rep_site ~to_site:master
            then begin
              let cost =
                round_trip net ~from_site:client_site ~to_site:r.rep_site
                +. round_trip net ~from_site:r.rep_site ~to_site:master
              in
              let better =
                match !relay with
                | None -> true
                | Some (bc, bs) ->
                  cost < bc
                  || (cost = bc && String.compare r.rep_site bs < 0)
              in
              if better then relay := Some (cost, r.rep_site)
            end)
          reps;
        let cost =
          match !relay with
          | Some (c, _) -> poll_penalty +. c
          | None ->
            poll_penalty
            +. round_trip net ~from_site:client_site ~to_site:master
        in
        (Forced_poll, base, master, 0.0, cost)
      end
  in
  let decision =
    {
      d_base = base;
      d_client_site = client_site;
      d_slo = within_kappa;
      d_outcome = outcome;
      d_served_base = served_base;
      d_served_site = served_site;
      d_served_kappa = served_kappa;
      d_latency = latency;
      d_skips = List.rev !skips;
    }
  in
  Obs.Counter.incr t.reads_by_outcome.(outcome_index outcome);
  let obs = System.obs t.system in
  if Obs.enabled obs then begin
    Obs.observe obs "route_latency"
      ~labels:[ ("outcome", outcome_to_string outcome) ]
      latency;
    List.iter
      (fun s ->
        Obs.incr obs "route_replica_skips" ~labels:[ ("reason", s.sk_reason) ])
      decision.d_skips
  end;
  Queue.iter (fun hook -> hook decision) t.hooks;
  decision

(* -- deterministic reports (cmtool route) -- *)

let plan ?within_kappa t ~client_sites =
  List.concat_map
    (fun site ->
      List.map (fun base -> read ?within_kappa t ~client_site:site base) (bases t))
    client_sites

let fg = Printf.sprintf "%g"

let survival_summary (entry : Guarantee_view.entry) =
  match entry.Guarantee_view.gv_epoch_survival with
  | [] -> "-"
  | s :: _ ->
    let metric =
      List.find_opt
        (fun sv ->
          String.equal sv.Guarantee_view.es_guarantee Guarantee_view.metric_name)
        entry.Guarantee_view.gv_epoch_survival
    in
    let status =
      match metric with
      | Some sv -> sv.Guarantee_view.es_status
      | None -> "-"
    in
    Printf.sprintf "epoch %d %s" s.Guarantee_view.es_epoch status

let report_to_text ?slo t decisions =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "replica catalog:\n";
  List.iter
    (fun (e : Guarantee_view.entry) ->
      Buffer.add_string buf
        (Printf.sprintf "  %s copies %s: master %s, copy %s, kappa %s, %s, survival %s\n"
           e.Guarantee_view.gv_target e.Guarantee_view.gv_source
           e.Guarantee_view.gv_master_site e.Guarantee_view.gv_site
           (match e.Guarantee_view.gv_kappa with
           | Some k -> fg k
           | None -> "unprovable")
           (if e.Guarantee_view.gv_valid then "valid" else "invalidated")
           (survival_summary e)))
    (System.guarantee_view t.system);
  Buffer.add_string buf
    (match slo with
    | Some s -> Printf.sprintf "routes (slo %s):\n" (fg s)
    | None -> "routes (no slo):\n");
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  %s reads %s -> %s %s@%s (kappa %s, latency %s)\n"
           d.d_client_site d.d_base
           (outcome_to_string d.d_outcome)
           d.d_served_base d.d_served_site (fg d.d_served_kappa)
           (fg d.d_latency));
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "    skipped %s@%s: %s\n" s.sk_target s.sk_site
               s.sk_reason))
        d.d_skips)
    decisions;
  Buffer.contents buf

let report_to_json ?slo t decisions =
  let catalog =
    List.map
      (fun (e : Guarantee_view.entry) ->
        Printf.sprintf
          "    { \"source\": \"%s\", \"target\": \"%s\", \"master_site\": \"%s\", \"site\": \"%s\", \"kappa\": %s, \"valid\": %b, \"survival\": \"%s\" }"
          (Json.escape e.Guarantee_view.gv_source)
          (Json.escape e.Guarantee_view.gv_target)
          (Json.escape e.Guarantee_view.gv_master_site)
          (Json.escape e.Guarantee_view.gv_site)
          (match e.Guarantee_view.gv_kappa with
          | Some k -> fg k
          | None -> "null")
          e.Guarantee_view.gv_valid
          (Json.escape (survival_summary e)))
      (System.guarantee_view t.system)
  in
  let skips d =
    List.map
      (fun s ->
        Printf.sprintf
          "        { \"target\": \"%s\", \"site\": \"%s\", \"reason\": \"%s\" }"
          (Json.escape s.sk_target) (Json.escape s.sk_site)
          (Json.escape s.sk_reason))
      d.d_skips
  in
  let routes =
    List.map
      (fun d ->
        Printf.sprintf
          "    { \"client\": \"%s\", \"base\": \"%s\", \"outcome\": \"%s\", \"served_base\": \"%s\", \"served_site\": \"%s\", \"kappa\": %s, \"latency\": %s,\n      \"skips\": [%s] }"
          (Json.escape d.d_client_site) (Json.escape d.d_base)
          (outcome_to_string d.d_outcome)
          (Json.escape d.d_served_base)
          (Json.escape d.d_served_site)
          (fg d.d_served_kappa) (fg d.d_latency)
          (match skips d with
          | [] -> ""
          | ss -> "\n" ^ String.concat ",\n" ss ^ "\n      "))
      decisions
  in
  Printf.sprintf
    "{ \"slo\": %s,\n  \"catalog\": [\n%s\n  ],\n  \"routes\": [\n%s\n  ] }\n"
    (match slo with Some s -> fg s | None -> "null")
    (String.concat ",\n" catalog)
    (String.concat ",\n" routes)
