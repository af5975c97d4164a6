module Sim = Cm_sim.Sim
module Obs = Cm_obs.Obs

type latency = { base : float; jitter : float }

let default_latency = { base = 0.05; jitter = 0.01 }

type faults = { drop_prob : float; dup_prob : float }

let no_faults = { drop_prob = 0.0; dup_prob = 0.0 }

type draws = Stream | Keyed of int

type drop_reason = Unroutable | Endpoint_down | Partitioned | Faulty

let drop_reason_to_string = function
  | Unroutable -> "unroutable"
  | Endpoint_down -> "endpoint_down"
  | Partitioned -> "partitioned"
  | Faulty -> "faulty"

let drop_reasons = [| Unroutable; Endpoint_down; Partitioned; Faulty |]

let reason_index = function
  | Unroutable -> 0
  | Endpoint_down -> 1
  | Partitioned -> 2
  | Faulty -> 3

type link = {
  mutable link_latency : latency;
  (* Time at which the most recently sent message on this link will be
     delivered; later sends are delivered no earlier (FIFO). *)
  mutable last_delivery : float;
  mutable link_faults : faults option;  (* None = follow the net default *)
  mutable down_until : float;  (* partition window: drop while now < down_until *)
  (* Keyed-draw stream of this directed link, created on first draw.
     Its state advances in link-send order, which is deterministic for a
     deterministic execution — and independent of how sites are sharded,
     because a directed link lives entirely at its source site's shard. *)
  mutable link_rng : Cm_util.Prng.t option;
  (* The link's instruments, labelled {from, to}: the network's only
     tally of its traffic. *)
  net_sent : Obs.Counter.t;
  net_dropped : Obs.Counter.t array;  (* by [reason_index] *)
  net_duplicated : Obs.Counter.t;
  net_latency : Obs.Series.t;
}

type 'msg t = {
  sim : Sim.t;
  default : latency;
  fifo : bool;
  rng : Cm_util.Prng.t;
  draws : draws;
  (* Cross-shard routing, installed by Cm_shard: [remote_site] says
     whether a site with no local handler lives on another shard, and
     [forward] hands it the message with its final delivery time. *)
  mutable remote_site : string -> bool;
  mutable forward :
    from_site:string -> to_site:string -> at:float -> 'msg -> unit;
  handlers : (string, 'msg -> unit) Hashtbl.t;
  links : (string * string, link) Hashtbl.t;
  down_sites : (string, unit) Hashtbl.t;
  mutable default_faults : faults;
  obs : Obs.t;
  (* The one Endpoint_down split with no instrument: drops where the
     destination crashed while the message was on the wire. *)
  mutable endpoint_down_in_flight : int;
  send_hooks : (from_site:string -> to_site:string -> unit) Queue.t;
}

let create ~sim ?(latency = default_latency) ?(fifo = true) ?(faults = no_faults)
    ?(draws = Stream) ?(obs = Obs.noop) () =
  {
    sim;
    default = latency;
    fifo;
    (* The split happens whether or not the stream is used, so turning
       keyed draws on/off never shifts another component's stream. *)
    rng = Cm_util.Prng.split (Sim.rng sim);
    draws;
    remote_site = (fun _ -> false);
    forward = (fun ~from_site:_ ~to_site:_ ~at:_ _ -> ());
    handlers = Hashtbl.create 8;
    links = Hashtbl.create 16;
    down_sites = Hashtbl.create 4;
    default_faults = faults;
    obs;
    endpoint_down_in_flight = 0;
    send_hooks = Queue.create ();
  }

let link t ~from_site ~to_site =
  let key = (from_site, to_site) in
  match Hashtbl.find t.links key with
  | l -> l
  | exception Not_found ->
    let labels = [ ("from", from_site); ("to", to_site) ] in
    let l =
      {
        link_latency = t.default;
        last_delivery = 0.0;
        link_faults = None;
        down_until = 0.0;
        link_rng = None;
        net_sent = Obs.Counter.make t.obs "net_sent" ~labels;
        net_dropped =
          Array.map
            (fun reason ->
              Obs.Counter.make t.obs "net_dropped"
                ~labels:(("reason", drop_reason_to_string reason) :: labels))
            drop_reasons;
        net_duplicated = Obs.Counter.make t.obs "net_duplicated" ~labels;
        net_latency = Obs.Series.make t.obs "net_latency" ~labels;
      }
    in
    Hashtbl.replace t.links key l;
    l

let set_latency t ~from_site ~to_site latency =
  (link t ~from_site ~to_site).link_latency <- latency

let set_faults t ~from_site ~to_site faults =
  (link t ~from_site ~to_site).link_faults <- Some faults

let set_default_faults t faults = t.default_faults <- faults

let partition t ~from_site ~to_site ~until =
  let l = link t ~from_site ~to_site in
  l.down_until <- Float.max l.down_until until

let partition_pair t ~site_a ~site_b ~until =
  partition t ~from_site:site_a ~to_site:site_b ~until;
  partition t ~from_site:site_b ~to_site:site_a ~until

let crash_site t ~site = Hashtbl.replace t.down_sites site ()
let restart_site t ~site = Hashtbl.remove t.down_sites site
let site_is_down t ~site = Hashtbl.mem t.down_sites site

let register t ~site handler =
  if Hashtbl.mem t.handlers site then
    invalid_arg ("Net.register: site already registered: " ^ site);
  Hashtbl.replace t.handlers site handler

(* O(1) registration; hooks run in registration order. *)
let on_send t hook = Queue.add hook t.send_hooks

let record_drop l reason = Obs.Counter.incr l.net_dropped.(reason_index reason)

(* A copy accepted onto the wire, lost because its destination crashed
   before it arrived. *)
let record_in_flight_drop t l =
  t.endpoint_down_in_flight <- t.endpoint_down_in_flight + 1;
  record_drop l Endpoint_down

(* Stream of the keyed-draw mode: one Prng per directed link, named by
   (seed, from, to).  Advanced in link-send order, so the draws a link
   sees are a pure function of its own traffic — every shard layout of
   one simulation (the link always lives at its source site's shard)
   makes the same choices. *)
let link_stream ~seed l ~from_site ~to_site =
  match l.link_rng with
  | Some rng -> rng
  | None ->
    let rng = Cm_util.Prng.of_key ~seed (from_site ^ ">" ^ to_site) in
    l.link_rng <- Some rng;
    rng

(* A fault draw happens only when the matching probability is nonzero, so a
   zero-fault network consumes exactly the PRNG stream it did before the
   fault model existed — seeded runs stay byte-identical. *)
let draw t l ~from_site ~to_site prob =
  prob > 0.0
  && (match t.draws with
      | Stream -> Cm_util.Prng.float t.rng 1.0
      | Keyed seed ->
        Cm_util.Prng.float (link_stream ~seed l ~from_site ~to_site) 1.0)
     < prob

let jitter_draw t l ~from_site ~to_site bound =
  match t.draws with
  | Stream -> Cm_util.Prng.float t.rng bound
  | Keyed seed -> Cm_util.Prng.float (link_stream ~seed l ~from_site ~to_site) bound

(* Where a message copy goes once it has a delivery time: onto the local
   wheel, or — for a destination another shard owns — out through the
   cross-shard forward hook, which will {!inject} it over there. *)
type 'msg sink = Local of ('msg -> unit) | Forward

let deliver_copy t l ~from_site ~to_site sink msg =
  let now = Sim.now t.sim in
  let delay =
    if String.equal from_site to_site then 0.0
    else
      l.link_latency.base
      +. (if l.link_latency.jitter > 0.0 then
            jitter_draw t l ~from_site ~to_site l.link_latency.jitter
          else 0.0)
  in
  (* FIFO: never deliver before a previously sent message on this link. *)
  let at =
    if t.fifo then Float.max (now +. delay) l.last_delivery else now +. delay
  in
  l.last_delivery <- Float.max at l.last_delivery;
  (* Guarded so the noop path boxes no float. *)
  if Obs.enabled t.obs then Obs.Series.observe l.net_latency (at -. now);
  match sink with
  | Forward -> t.forward ~from_site ~to_site ~at msg
  | Local handler ->
    Sim.schedule_at t.sim at (fun () ->
        (* In-flight messages arriving at a crashed endpoint are lost. *)
        if Hashtbl.mem t.down_sites to_site then record_in_flight_drop t l
        else handler msg)

let send_via t l ~from_site ~to_site sink msg =
  if Hashtbl.mem t.down_sites from_site || Hashtbl.mem t.down_sites to_site then
    record_drop l Endpoint_down
  else if Sim.now t.sim < l.down_until then record_drop l Partitioned
  else begin
    let local = String.equal from_site to_site in
    let faults = Option.value l.link_faults ~default:t.default_faults in
    (* Loss and duplication are drawn independently, in a fixed order, so
       runs with the same seed make the same choices. *)
    let lost = (not local) && draw t l ~from_site ~to_site faults.drop_prob in
    let duplicated = (not local) && draw t l ~from_site ~to_site faults.dup_prob in
    if lost then record_drop l Faulty
    else deliver_copy t l ~from_site ~to_site sink msg;
    if duplicated then begin
      Obs.Counter.incr l.net_duplicated;
      deliver_copy t l ~from_site ~to_site sink msg
    end
  end

let send t ~from_site ~to_site msg =
  let l = link t ~from_site ~to_site in
  Obs.Counter.incr l.net_sent;
  if not (Queue.is_empty t.send_hooks) then
    Queue.iter (fun hook -> hook ~from_site ~to_site) t.send_hooks;
  match Hashtbl.find t.handlers to_site with
  | handler -> send_via t l ~from_site ~to_site (Local handler) msg
  | exception Not_found ->
    if t.remote_site to_site then send_via t l ~from_site ~to_site Forward msg
    else record_drop l Unroutable

let set_remote t ~remote_site ~forward =
  t.remote_site <- remote_site;
  t.forward <- forward

let inject t ~from_site ~to_site ~at msg =
  (* Destination half of a cross-shard delivery: the source shard already
     ran the send-side pipeline (counters, fault draws, FIFO hold-back)
     and computed [at]; here only the delivery-time checks remain. *)
  Sim.schedule_at t.sim at (fun () ->
      if Hashtbl.mem t.down_sites to_site then
        record_in_flight_drop t (link t ~from_site ~to_site)
      else
        match Hashtbl.find_opt t.handlers to_site with
        | Some handler -> handler msg
        | None -> record_drop (link t ~from_site ~to_site) Unroutable)

let link_base_latency t ~from_site ~to_site =
  if String.equal from_site to_site then 0.0
  else
    match Hashtbl.find_opt t.links (from_site, to_site) with
    | Some l -> l.link_latency.base
    | None -> t.default.base

let reachable t ~from_site ~to_site =
  (not (Hashtbl.mem t.down_sites from_site))
  && (not (Hashtbl.mem t.down_sites to_site))
  && (String.equal from_site to_site
     ||
     match Hashtbl.find_opt t.links (from_site, to_site) with
     | Some l -> Sim.now t.sim >= l.down_until
     | None -> true)

(* Totals are folds over the links: each link's counters are the only
   tally. *)
let sum_links t f = Hashtbl.fold (fun _ l acc -> acc + f l) t.links 0

let on_link t ~from_site ~to_site f =
  match Hashtbl.find_opt t.links (from_site, to_site) with
  | Some l -> f l
  | None -> 0

let sent l = Obs.Counter.value l.net_sent
let dropped_by reason l = Obs.Counter.value l.net_dropped.(reason_index reason)
let dropped l = Array.fold_left (fun n c -> n + Obs.Counter.value c) 0 l.net_dropped

let messages_sent t = sum_links t sent
let messages_between t ~from_site ~to_site = on_link t ~from_site ~to_site sent
let messages_dropped t = sum_links t dropped
let drops_by t reason = sum_links t (dropped_by reason)
let dropped_between t ~from_site ~to_site = on_link t ~from_site ~to_site dropped
let messages_duplicated t = sum_links t (fun l -> Obs.Counter.value l.net_duplicated)
let endpoint_down_in_flight t = t.endpoint_down_in_flight
let endpoint_down_at_send t = drops_by t Endpoint_down - t.endpoint_down_in_flight
