module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module System = Cm_core.System
module Shell = Cm_core.Shell
module Obs = Cm_core.Obs
module Prng = Cm_util.Prng

module Fabric = struct
  (* One cross-shard message, captured on the source shard with its
     final delivery time (the send-side pipeline — counters, fault
     draws, FIFO hold-back — already ran over there). *)
  type parcel = {
    p_src : int;  (* source shard *)
    p_seq : int;  (* send order within the source shard *)
    p_from : string;
    p_to : string;
    p_at : float;
    p_msg : Cm_core.Msg.t;
  }

  type t = {
    seed : int;
    systems : System.t array;
    assign : string -> int;
    (* site -> (owning shard, primary site of the shell serving it).
       Covers shell sites (mapped to themselves) and translator sites
       (mapped to their serving shell). *)
    site_owner : (string, int * string) Hashtbl.t;
    outboxes : parcel list ref array;  (* per source shard, reversed *)
    seqs : int ref array;
    (* Cross-shard latency floor bookkeeping: explicit overrides by
       directed link; the network default covers the rest. *)
    overrides : (string * string, float) Hashtbl.t;
    default_base : float;
    mutable forwarded : int;
  }

  let shard_count t = Array.length t.systems

  (* One shard is plain sequential delegation: the oracle path. *)
  let single t = Array.length t.systems = 1
  let system t k = t.systems.(k)

  let shard_of t ~site =
    match Hashtbl.find_opt t.site_owner site with
    | Some (k, _) -> k
    | None ->
      if single t then 0
      else begin
        let k = t.assign site in
        if k < 0 || k >= Array.length t.systems then
          invalid_arg
            (Printf.sprintf "Fabric: assign %S -> shard %d out of [0, %d)" site k
               (Array.length t.systems));
        k
      end

  let owner t ~site =
    match Hashtbl.find_opt t.site_owner site with
    | Some (k, _) -> t.systems.(k)
    | None -> invalid_arg ("Fabric.owner: unknown site " ^ site)

  let create ?(config = System.Config.default) ~shards:n ~assign locator =
    if n < 1 then invalid_arg "Fabric.create: shards must be >= 1";
    let single = n = 1 in
    if config.System.Config.monitor && not single then
      invalid_arg
        "Fabric.create: the streaming monitor attaches to a single trace; \
         run monitored configurations at shards = 1";
    let systems =
      Array.init n (fun k ->
          if single then System.create ~config locator
          else
            (* Each shard gets its own registry when observability is
               on — a single Obs.t shared across domains would race. *)
            let config =
              match config.System.Config.obs with
              | None -> config
              | Some _ -> System.Config.with_obs (Obs.create ()) config
            in
            System.create ~config ~shard_slot:(k, n) locator)
    in
    let t =
      {
        seed = config.System.Config.seed;
        systems;
        assign;
        site_owner = Hashtbl.create 32;
        outboxes = Array.init n (fun _ -> ref []);
        seqs = Array.init n (fun _ -> ref 0);
        overrides = Hashtbl.create 16;
        default_base =
          (match config.System.Config.latency with
           | Some l -> l.Net.base
           | None -> Net.default_latency.Net.base);
        forwarded = 0;
      }
    in
    if not single then
      Array.iteri
        (fun k sys ->
          let net = System.net sys in
          Net.set_remote net
            ~remote_site:(fun site ->
              match Hashtbl.find_opt t.site_owner site with
              | Some (j, _) -> j <> k
              | None -> false)
            ~forward:(fun ~from_site ~to_site ~at msg ->
              let seq = t.seqs.(k) in
              incr seq;
              let ob = t.outboxes.(k) in
              ob :=
                {
                  p_src = k;
                  p_seq = !seq;
                  p_from = from_site;
                  p_to = to_site;
                  p_at = at;
                  p_msg = msg;
                }
                :: !ob))
        systems;
    t

  let add_shell t ~site =
    let k = shard_of t ~site in
    let shell = System.add_shell t.systems.(k) ~site in
    Hashtbl.replace t.site_owner site (k, site);
    shell

  let shell_for t ~site =
    match Hashtbl.find_opt t.site_owner site with
    | Some (k, _) -> System.shell t.systems.(k) ~site
    | None -> invalid_arg ("Fabric.shell_for: unknown site " ^ site)

  let register_translator t ~shell cmi =
    let shell_site = Shell.site shell in
    let k =
      match Hashtbl.find_opt t.site_owner shell_site with
      | Some (k, _) -> k
      | None ->
        invalid_arg
          ("Fabric.register_translator: shell site unknown to the fabric: "
         ^ shell_site)
    in
    System.register_translator t.systems.(k) ~shell cmi;
    Hashtbl.replace t.site_owner cmi.Cm_core.Cmi.site (k, shell_site)

  let install t strategy = Array.iter (fun sys -> System.install sys strategy) t.systems

  let at t ~site time f =
    Sim.schedule_at (System.sim (owner t ~site)) time f

  let rng t ~tag = Prng.of_key ~seed:t.seed ("fabric:" ^ tag)

  let set_latency t ~from_site ~to_site latency =
    Hashtbl.replace t.overrides (from_site, to_site) latency.Net.base;
    match Hashtbl.find_opt t.site_owner from_site with
    | Some (k, _) -> Net.set_latency (System.net t.systems.(k)) ~from_site ~to_site latency
    | None ->
      (* Source not placed yet: arm the link on every shard; only the
         eventual owner's copy is consulted. *)
      Array.iter
        (fun sys -> Net.set_latency (System.net sys) ~from_site ~to_site latency)
        t.systems

  let set_faults t ~from_site ~to_site faults =
    match Hashtbl.find_opt t.site_owner from_site with
    | Some (k, _) -> Net.set_faults (System.net t.systems.(k)) ~from_site ~to_site faults
    | None ->
      Array.iter
        (fun sys -> Net.set_faults (System.net sys) ~from_site ~to_site faults)
        t.systems

  let set_default_faults t faults =
    Array.iter (fun sys -> Net.set_default_faults (System.net sys) faults) t.systems

  (* Fault-state transitions are mirrored: the send-side liveness and
     partition checks run on the source shard, so every shard's network
     must agree on who is down when.  The owning shard runs the full
     System-level protocol (journal replay, epoch bump, failure notice
     under a durable config); the others only flip the endpoint flag. *)
  let schedule_crash t ~site ~at =
    let o = shard_of t ~site in
    Array.iteri
      (fun k sys ->
        Sim.schedule_at (System.sim sys) at (fun () ->
            if k = o then System.crash_site sys ~site
            else Net.crash_site (System.net sys) ~site))
      t.systems

  let schedule_restart t ~site ~at =
    let o = shard_of t ~site in
    Array.iteri
      (fun k sys ->
        Sim.schedule_at (System.sim sys) at (fun () ->
            if k = o then System.restart_site sys ~site
            else Net.restart_site (System.net sys) ~site))
      t.systems

  let schedule_partition t ~from_site ~to_site ~at ~until =
    Array.iter
      (fun sys ->
        Sim.schedule_at (System.sim sys) at (fun () ->
            Net.partition (System.net sys) ~from_site ~to_site ~until))
      t.systems

  (* Sites that actually terminate network traffic: shells register
     handlers at their primary site, and global routing resolves every
     other site to its serving shell — so the cross-shard latency floor
     ranges over ordered pairs of primary sites on distinct shards. *)
  let primary_counts t =
    let counts = Array.make (Array.length t.systems) 0 in
    Hashtbl.iter
      (fun site (k, prim) -> if String.equal site prim then counts.(k) <- counts.(k) + 1)
      t.site_owner;
    counts

  let lookahead t =
    let counts = primary_counts t in
    let total = Array.fold_left ( + ) 0 counts in
    let cross_pairs =
      Array.fold_left (fun acc c -> acc + (c * (total - c))) 0 counts
    in
    if cross_pairs = 0 then infinity
    else begin
      let covered = ref 0 and min_override = ref infinity in
      Hashtbl.iter
        (fun (f, tt) base ->
          match
            Hashtbl.find_opt t.site_owner f, Hashtbl.find_opt t.site_owner tt
          with
          | Some (kf, pf), Some (kt, pt)
            when kf <> kt && String.equal pf f && String.equal pt tt ->
            incr covered;
            if base < !min_override then min_override := base
          | _ -> ())
        t.overrides;
      if !covered >= cross_pairs then !min_override
      else Float.min t.default_base !min_override
    end

  (* Wire the global view into every shell before running: foreign
     sites route to their owning shell (each System only knows its own
     shard's shells), and failure/reset notices broadcast to every
     shell site in the federation, not just same-shard ones. *)
  let prepare t =
    let peers =
      Hashtbl.fold
        (fun site (_, prim) acc -> if String.equal site prim then site :: acc else acc)
        t.site_owner []
      |> List.sort String.compare
    in
    let route site =
      match Hashtbl.find_opt t.site_owner site with
      | Some (_, prim) -> prim
      | None -> site
    in
    Array.iter
      (fun sys ->
        List.iter
          (fun (_, shell) ->
            Shell.set_route shell route;
            Shell.set_peer_sites shell peers)
          (System.shells sys))
      t.systems

  (* Drain every outbox and inject the parcels into their destination
     shards in one deterministic order: (delivery time, source shard,
     source send sequence).  Runs on the coordinating domain between
     barriers — the workers' writes happen-before via the barrier
     mutex, and the heap pushes here happen-before the next window. *)
  let exchange t =
    let parcels =
      Array.fold_left
        (fun acc ob ->
          let ps = !ob in
          ob := [];
          List.rev_append ps acc)
        [] t.outboxes
      |> List.sort (fun a b ->
             match Float.compare a.p_at b.p_at with
             | 0 -> (
               match Int.compare a.p_src b.p_src with
               | 0 -> Int.compare a.p_seq b.p_seq
               | c -> c)
             | c -> c)
    in
    List.iter
      (fun p ->
        let dst =
          match Hashtbl.find_opt t.site_owner p.p_to with
          | Some (k, _) -> k
          | None -> p.p_src (* unreachable: forward fires only for owned sites *)
        in
        Net.inject (System.net t.systems.(dst)) ~from_site:p.p_from ~to_site:p.p_to
          ~at:p.p_at p.p_msg)
      parcels;
    let n = List.length parcels in
    t.forwarded <- t.forwarded + n;
    n

  (* Safe serialization for the zero-lookahead degenerate case: always
     step the shard holding the globally earliest event (ties to the
     lowest shard index) and exchange after every step, so a same-
     instant cross-shard delivery becomes visible before the next pick.
     Single-domain; correct for any latency floor including zero. *)
  let run_serialized t ~until =
    let rec loop () =
      let best = ref None in
      Array.iteri
        (fun k sys ->
          match Sim.next_at (System.sim sys) with
          | Some a when a <= until -> (
            match !best with
            | Some (ba, _) when ba <= a -> ()
            | _ -> best := Some (a, k))
          | _ -> ())
        t.systems;
      match !best with
      | None -> ()
      | Some (_, k) ->
        ignore (Sim.step (System.sim t.systems.(k)));
        ignore (exchange t);
        loop ()
    in
    loop ();
    Array.iter (fun sys -> Sim.advance ~inclusive:true (System.sim sys) ~until) t.systems

  (* Barrier-synchronous lookahead windows over persistent worker
     domains.  Per window the coordinator publishes a target horizon,
     the workers advance their wheels to it in parallel, and the
     coordinator exchanges mailboxes before the next window — safe
     because a cross-shard message sent inside [[t, t+L)] delivers no
     earlier than [t+L]. *)
  let run_windowed t ~until ~l =
    let n = Array.length t.systems in
    let mu = Mutex.create () in
    let go = Condition.create () in
    let finished = Condition.create () in
    let generation = ref 0 in
    let target = ref 0.0 in
    let inclusive = ref false in
    let quit = ref false in
    let remaining = ref 0 in
    let failure = ref None in
    let worker k =
      let seen = ref 0 in
      let running = ref true in
      while !running do
        Mutex.lock mu;
        while (not !quit) && !generation = !seen do
          Condition.wait go mu
        done;
        if !quit then begin
          Mutex.unlock mu;
          running := false
        end
        else begin
          seen := !generation;
          let u = !target and inc = !inclusive in
          Mutex.unlock mu;
          (try Sim.advance ~inclusive:inc (System.sim t.systems.(k)) ~until:u
           with e -> (
             Mutex.lock mu;
             (match !failure with None -> failure := Some e | Some _ -> ());
             Mutex.unlock mu));
          Mutex.lock mu;
          decr remaining;
          if !remaining = 0 then Condition.broadcast finished;
          Mutex.unlock mu
        end
      done
    in
    let domains = Array.init n (fun k -> Domain.spawn (fun () -> worker k)) in
    let failed () =
      Mutex.lock mu;
      let f = !failure <> None in
      Mutex.unlock mu;
      f
    in
    let window ~inc u =
      Mutex.lock mu;
      target := u;
      inclusive := inc;
      remaining := n;
      incr generation;
      Condition.broadcast go;
      while !remaining > 0 do
        Condition.wait finished mu
      done;
      Mutex.unlock mu
    in
    let start =
      Array.fold_left (fun m sys -> Float.max m (Sim.now (System.sim sys))) 0.0 t.systems
    in
    let pending_by until =
      Array.exists
        (fun sys ->
          match Sim.next_at (System.sim sys) with
          | Some a -> a <= until
          | None -> false)
        t.systems
    in
    let rec windows now =
      if (not (failed ())) && now < until then begin
        let horizon = if now +. l < until then now +. l else until in
        window ~inc:false horizon;
        ignore (exchange t);
        windows horizon
      end
    in
    (* Final drain at the inclusive boundary: events at exactly [until]
       may seed cross-shard deliveries at [until] only if some latency
       is zero — in which case we are not in this mode — so each round
       strictly consumes the remaining <= until work and terminates. *)
    let rec drain () =
      if not (failed ()) then begin
        window ~inc:true until;
        ignore (exchange t);
        if pending_by until then drain ()
      end
    in
    windows start;
    drain ();
    Mutex.lock mu;
    quit := true;
    Condition.broadcast go;
    Mutex.unlock mu;
    Array.iter Domain.join domains;
    match !failure with Some e -> raise e | None -> ()

  let run t ~until =
    if single t then System.run t.systems.(0) ~until
    else begin
      prepare t;
      let l = lookahead t in
      if l > 0.0 then run_windowed t ~until ~l
      else run_serialized t ~until
    end

  (* --- merged results ------------------------------------------------ *)

  let all_events t =
    Array.fold_left
      (fun acc sys -> acc @ Cm_rule.Trace.events (System.trace sys))
      [] t.systems

  let merged_events t =
    List.sort
      (fun (a : Cm_rule.Event.t) (b : Cm_rule.Event.t) ->
        match Float.compare a.time b.time with
        | 0 -> (
          match String.compare a.site b.site with
          | 0 -> (
            match
              String.compare
                (Cm_rule.Event.desc_to_string a.desc)
                (Cm_rule.Event.desc_to_string b.desc)
            with
            | 0 -> Int.compare a.id b.id
            | c -> c)
          | c -> c)
        | c -> c)
      (all_events t)

  (* Canonical, id-free rendering: raw event ids are strided per shard
     (k, k+N, ...) and so differ across layouts; a generated event's
     trigger is therefore named structurally — by the triggering
     event's time, site and descriptor — instead of by id.  Sorting the
     lines quotients away cross-shard interleaving of causally
     unrelated events; what remains is exactly the event set. *)
  let canonical_lines t =
    let evs = all_events t in
    let by_id = Hashtbl.create (List.length evs * 2) in
    List.iter (fun (e : Cm_rule.Event.t) -> Hashtbl.replace by_id e.id e) evs;
    let kind_token = function
      | Cm_rule.Event.Spontaneous -> "spont"
      | Cm_rule.Event.Generated { rule_id; trigger } -> (
        match Hashtbl.find_opt by_id trigger with
        | Some (te : Cm_rule.Event.t) ->
          Printf.sprintf "gen:%s@%.6f@%s@%s" rule_id te.time te.site
            (Cm_rule.Event.desc_to_string te.desc)
        | None -> Printf.sprintf "gen:%s@#%d" rule_id trigger)
    in
    List.map
      (fun (e : Cm_rule.Event.t) ->
        Printf.sprintf "%.6f %s %s %s" e.time e.site (kind_token e.kind)
          (Cm_rule.Event.desc_to_string e.desc))
      evs
    |> List.sort String.compare

  let trace_digest t =
    Digest.to_hex (Digest.string (String.concat "\n" (canonical_lines t)))

  let counter_value ?labels t name =
    Array.fold_left
      (fun acc sys -> acc + Obs.counter_value ?labels (System.obs sys) name)
      0 t.systems

  let counter_total t name =
    Array.fold_left
      (fun acc sys -> acc + Obs.counter_total (System.obs sys) name)
      0 t.systems

  let events_processed t =
    Array.fold_left (fun acc sys -> acc + Sim.events_processed (System.sim sys)) 0 t.systems

  let messages_forwarded t = t.forwarded
end
