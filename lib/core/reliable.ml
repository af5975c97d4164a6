module Sim = Cm_sim.Sim
module Net = Cm_net.Net

type config = {
  retry_timeout : float;
  backoff : float;
  max_timeout : float;
  max_retries : int;
  heartbeat_period : float;
  suspect_after : float;
}

let default_config =
  {
    retry_timeout = 1.0;
    backoff = 2.0;
    max_timeout = 10.0;
    max_retries = 10;
    heartbeat_period = 0.0;
    suspect_after = 0.0;
  }

type stats = {
  data_sent : int;
  retransmits : int;
  acks_sent : int;
  delivered : int;
  dup_suppressed : int;
  reordered : int;
  heartbeats_sent : int;
  give_ups : int;
  suspects : int;
  recoveries : int;
  epoch_rejections : int;
  requeued : int;
}

(* A link's counters, resolved when the link is created.  Acks travel
   back from receiver to sender, so [lo_acks_sent] is labelled that
   way round; the rest are labelled sender -> receiver. *)
type link_obs = {
  lo_data_sent : Obs.Counter.t;
  lo_retransmits : Obs.Counter.t;
  lo_give_ups : Obs.Counter.t;
  lo_requeued : Obs.Counter.t;
  lo_delivered : Obs.Counter.t;
  lo_dup_suppressed : Obs.Counter.t;
  lo_reordered : Obs.Counter.t;
  lo_epoch_rejections : Obs.Counter.t;
  lo_acks_sent : Obs.Counter.t;
}

(* Per directed link.  The sender half (the state at [from_site]) numbers
   frames within its current epoch — bumped by crash recovery so a new
   incarnation's sequence space is disjoint from the old one's — and
   retains unacknowledged envelopes keyed by seq.  Message ids ([mid])
   are stable across epochs: a message re-queued after a crash keeps its
   mid even though it gets a fresh (epoch, seq), which is what lets the
   receiver half deduplicate it.  The receiver half (the state at
   [to_site]) tracks the epoch it is synchronized to, the next sequence
   it will deliver within that epoch, out-of-order arrivals, and the set
   of mids already handed to the application. *)
type link = {
  lo : link_obs;
  mutable epoch : int;
  mutable next_seq : int;
  mutable next_mid : int;
  outstanding : (int, int * int * Msg.t) Hashtbl.t;  (* seq -> epoch, mid, payload *)
  mutable in_epoch : int;
  mutable expected : int;
  held : (int, int * Msg.t) Hashtbl.t;  (* seq -> mid, payload *)
  delivered_mids : (int, unit) Hashtbl.t;
}

type endpoint = {
  ep_site : string;
  deliver : Msg.t -> unit;
  last_heard : (string, float) Hashtbl.t;
  suspected : (string, unit) Hashtbl.t;
  mutable beat : int;
  ep_heartbeats_sent : Obs.Counter.t;
}

type t = {
  sim : Sim.t;
  net : Msg.t Net.t;
  cfg : config;
  obs : Obs.t;
  journals : Journal.registry option;
  endpoints : (string, endpoint) Hashtbl.t;
  mutable sites : string list;  (* sorted, for deterministic iteration *)
  links : (string * string, link) Hashtbl.t;
  suspect_hooks : (site:string -> suspect:string -> unit) Queue.t;
  mutable data_sent : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable delivered : int;
  mutable dup_suppressed : int;
  mutable reordered : int;
  mutable heartbeats_sent : int;
  mutable give_ups : int;
  mutable suspects_count : int;
  mutable recoveries : int;
  mutable epoch_rejections : int;
  mutable requeued : int;
}

let create ~sim ~net ?(config = default_config) ?(obs = Obs.noop) ?journals () =
  {
    sim;
    net;
    cfg = config;
    obs;
    journals;
    endpoints = Hashtbl.create 8;
    sites = [];
    links = Hashtbl.create 16;
    suspect_hooks = Queue.create ();
    data_sent = 0;
    retransmits = 0;
    acks_sent = 0;
    delivered = 0;
    dup_suppressed = 0;
    reordered = 0;
    heartbeats_sent = 0;
    give_ups = 0;
    suspects_count = 0;
    recoveries = 0;
    epoch_rejections = 0;
    requeued = 0;
  }

let config t = t.cfg

let journal_for t site =
  match t.journals with
  | Some reg -> Some (Journal.for_site reg ~site)
  | None -> None

let suspect_threshold t =
  if t.cfg.suspect_after > 0.0 then t.cfg.suspect_after
  else 3.0 *. t.cfg.heartbeat_period

let noop_link_obs =
  let c = Obs.Counter.make Obs.noop "" in
  { lo_data_sent = c; lo_retransmits = c; lo_give_ups = c; lo_requeued = c;
    lo_delivered = c; lo_dup_suppressed = c; lo_reordered = c;
    lo_epoch_rejections = c; lo_acks_sent = c }

let link t ~from_site ~to_site =
  let key = (from_site, to_site) in
  match Hashtbl.find_opt t.links key with
  | Some l -> l
  | None ->
    let counter ?(from_site = from_site) ?(to_site = to_site) name =
      Obs.Counter.make t.obs name ~labels:[ ("from", from_site); ("to", to_site) ]
    in
    let lo =
      if not (Obs.enabled t.obs) then noop_link_obs
      else
        { lo_data_sent = counter "reliable_data_sent";
          lo_retransmits = counter "reliable_retransmits";
          lo_give_ups = counter "reliable_give_ups";
          lo_requeued = counter "reliable_requeued";
          lo_delivered = counter "reliable_delivered";
          lo_dup_suppressed = counter "reliable_dup_suppressed";
          lo_reordered = counter "reliable_reordered";
          lo_epoch_rejections = counter "reliable_epoch_rejections";
          lo_acks_sent =
            counter "reliable_acks_sent" ~from_site:to_site ~to_site:from_site }
    in
    let l =
      {
        lo;
        epoch = 0;
        next_seq = 0;
        next_mid = 0;
        outstanding = Hashtbl.create 8;
        in_epoch = 0;
        expected = 0;
        held = Hashtbl.create 4;
        delivered_mids = Hashtbl.create 16;
      }
    in
    Hashtbl.replace t.links key l;
    l

(* O(1) hook registration (hooks used to be appended to a list, which is
   quadratic when registering in a loop); queues preserve registration
   order on iteration. *)
let on_suspect t hook = Queue.add hook t.suspect_hooks

let suspect t ep peer =
  if not (Hashtbl.mem ep.suspected peer) then begin
    Hashtbl.replace ep.suspected peer ();
    t.suspects_count <- t.suspects_count + 1;
    Obs.incr t.obs "reliable_suspects"
      ~labels:[ ("site", ep.ep_site); ("peer", peer) ];
    Queue.iter (fun hook -> hook ~site:ep.ep_site ~suspect:peer) t.suspect_hooks;
    ep.deliver (Msg.Suspect_down { origin_site = ep.ep_site; suspect_site = peer })
  end

let rec transmit t ~from_site ~to_site l ~seq ~attempt ~timeout =
  match Hashtbl.find_opt l.outstanding seq with
  | None -> ()
  | Some (epoch, mid, payload) ->
    Net.send t.net ~from_site ~to_site
      (Msg.Data { from_site; epoch; seq; mid; payload });
    Sim.schedule t.sim ~delay:timeout (fun () ->
        (* The entry may have been acknowledged, given up on, or replaced
           by a later incarnation (recovery resets the sequence space, so
           the same seq can name a different message under a new epoch);
           this timer only owns the (epoch, seq) pair it transmitted. *)
        match Hashtbl.find_opt l.outstanding seq with
        | Some (e, _, _) when e = epoch ->
          if attempt = t.cfg.max_retries then begin
            (* Chain exhausted: raise the suspicion either way.  With a
               journal the frame is durable, so abandoning it would only
               manufacture loss — the chain keeps retrying at the capped
               interval instead (a give-up can conclude *after* the
               peer's restart already sent its last sign of life, so
               waiting to hear the peer again is not enough).  Without a
               journal there is nothing to re-queue from later; the
               frame is dropped, which is the pre-recovery protocol. *)
            let durable = Option.is_some (journal_for t from_site) in
            if not durable then Hashtbl.remove l.outstanding seq;
            t.give_ups <- t.give_ups + 1;
            Obs.Counter.incr l.lo.lo_give_ups;
            (match Hashtbl.find_opt t.endpoints from_site with
             | Some ep -> suspect t ep to_site
             | None -> ());
            if durable then
              transmit t ~from_site ~to_site l ~seq ~attempt:(attempt + 1)
                ~timeout:t.cfg.max_timeout
          end
          else if attempt > t.cfg.max_retries then
            (* Post-give-up persistence (journal present): keep the frame
               on the wire at the capped interval, without re-counting
               retransmits or re-raising the suspicion. *)
            transmit t ~from_site ~to_site l ~seq ~attempt:(attempt + 1)
              ~timeout:t.cfg.max_timeout
          else begin
            t.retransmits <- t.retransmits + 1;
            Obs.Counter.incr l.lo.lo_retransmits;
            (* Attach the retry to the firing's trace when the payload is a
               Fire envelope carrying a span id. *)
            (match payload with
             | Msg.Fire { span; _ } when span > 0 ->
               let now = Sim.now t.sim in
               let id =
                 Obs.span t.obs ~parent:span ~name:"retransmit" ~at:now
                   ~labels:
                     [ ("from", from_site); ("to", to_site);
                       ("attempt", string_of_int (attempt + 1)) ]
               in
               Obs.end_span t.obs ~id ~at:now
             | _ -> ());
            transmit t ~from_site ~to_site l ~seq ~attempt:(attempt + 1)
              ~timeout:(Float.min (timeout *. t.cfg.backoff) t.cfg.max_timeout)
          end
        | _ -> ())

(* Put the messages a restarted [from_site] still owes [to_site] back on
   the wire.  Their journal entries carry a previous incarnation's epoch,
   so each is re-sent with a fresh sequence number under the current
   epoch, keeping its stable mid for receiver-side deduplication. *)
let requeue_unacked t ~from_site ~to_site unacked =
  match journal_for t from_site with
  | None -> ()
  | Some j ->
    let l = link t ~from_site ~to_site in
    List.iter
      (fun (mid, _, _, payload) ->
        let seq = l.next_seq in
        l.next_seq <- seq + 1;
        Journal.append j
          (Journal.Outbound
             { time = Sim.now t.sim; to_site; mid; epoch = l.epoch; seq; payload });
        Hashtbl.replace l.outstanding seq (l.epoch, mid, payload);
        t.requeued <- t.requeued + 1;
        Obs.Counter.incr l.lo.lo_requeued;
        transmit t ~from_site ~to_site l ~seq ~attempt:0 ~timeout:t.cfg.retry_timeout)
      unacked

(* Any frame from [peer] counts as a sign of life. *)
let heard t ep peer =
  Hashtbl.replace ep.last_heard peer (Sim.now t.sim);
  if Hashtbl.mem ep.suspected peer then begin
    Hashtbl.remove ep.suspected peer;
    t.recoveries <- t.recoveries + 1;
    Obs.incr t.obs "reliable_recoveries"
      ~labels:[ ("site", ep.ep_site); ("peer", peer) ];
    ep.deliver (Msg.Reset_notice { origin_site = peer })
  end

let send t ~from_site ~to_site msg =
  if String.equal from_site to_site then
    (* The simulated network never loses local messages; skip the protocol
       so self-sends stay zero-overhead and unsequenced. *)
    Net.send t.net ~from_site ~to_site msg
  else begin
    let l = link t ~from_site ~to_site in
    let mid = l.next_mid in
    l.next_mid <- mid + 1;
    let seq = l.next_seq in
    l.next_seq <- seq + 1;
    (match journal_for t from_site with
     | Some j ->
       (* Write-ahead: the message is remembered before it is on the wire. *)
       Journal.append j
         (Journal.Outbound
            { time = Sim.now t.sim; to_site; mid; epoch = l.epoch; seq;
              payload = msg })
     | None -> ());
    Hashtbl.replace l.outstanding seq (l.epoch, mid, msg);
    t.data_sent <- t.data_sent + 1;
    Obs.Counter.incr l.lo.lo_data_sent;
    transmit t ~from_site ~to_site l ~seq ~attempt:0 ~timeout:t.cfg.retry_timeout
  end

(* Consume the in-order slot [seq]: advance the window, journal the
   consumption, and hand the payload up unless its mid was already
   delivered in a previous epoch (a crash-requeued duplicate). *)
let consume_slot t ep l ~from_site ~epoch ~seq ~mid payload =
  l.expected <- seq + 1;
  let fresh = not (Hashtbl.mem l.delivered_mids mid) in
  Hashtbl.replace l.delivered_mids mid ();
  (match journal_for t ep.ep_site with
   | Some j ->
     Journal.append j
       (Journal.Delivered
          { time = Sim.now t.sim; from_site; epoch; seq; mid; applied = fresh })
   | None -> ());
  if fresh then begin
    t.delivered <- t.delivered + 1;
    Obs.Counter.incr l.lo.lo_delivered;
    ep.deliver payload
  end
  else begin
    t.dup_suppressed <- t.dup_suppressed + 1;
    Obs.Counter.incr l.lo.lo_dup_suppressed
  end

let receive t ep frame =
  match frame with
  | Msg.Data { from_site; epoch; seq; mid; payload } ->
    heard t ep from_site;
    let l = link t ~from_site ~to_site:ep.ep_site in
    if epoch < l.in_epoch then begin
      (* A retransmit from a previous life of [from_site].  Rejecting it
         (and not acking) is what keeps old and new sequence spaces from
         being mis-deduplicated against each other. *)
      t.epoch_rejections <- t.epoch_rejections + 1;
      Obs.Counter.incr l.lo.lo_epoch_rejections
    end
    else begin
      if epoch > l.in_epoch then begin
        (* The peer restarted: adopt its new incarnation.  Its sequence
           space restarts at 0; buffered frames belong to the old life.
           delivered_mids survives — it is the cross-incarnation
           duplicate-suppression set. *)
        l.in_epoch <- epoch;
        l.expected <- 0;
        Hashtbl.reset l.held
      end;
      let ack ~epoch ~seq =
        t.acks_sent <- t.acks_sent + 1;
        Obs.Counter.incr l.lo.lo_acks_sent;
        Net.send t.net ~from_site:ep.ep_site ~to_site:from_site
          (Msg.Ack { from_site = ep.ep_site; epoch; seq })
      in
      let suppress () =
        t.dup_suppressed <- t.dup_suppressed + 1;
        Obs.Counter.incr l.lo.lo_dup_suppressed
      in
      let hold () =
        t.reordered <- t.reordered + 1;
        Obs.Counter.incr l.lo.lo_reordered;
        Hashtbl.replace l.held seq (mid, payload)
      in
      let consume_and_drain () =
        consume_slot t ep l ~from_site ~epoch ~seq ~mid payload;
        let rec drain ack_each =
          match Hashtbl.find_opt l.held l.expected with
          | None -> ()
          | Some (held_mid, held_payload) ->
            let held_seq = l.expected in
            Hashtbl.remove l.held held_seq;
            consume_slot t ep l ~from_site ~epoch:l.in_epoch ~seq:held_seq
              ~mid:held_mid held_payload;
            if ack_each then ack ~epoch:l.in_epoch ~seq:held_seq;
            drain ack_each
        in
        drain
      in
      if not (Option.is_some (journal_for t ep.ep_site)) then begin
        (* No journal: receiver state survives crashes (nothing is
           wiped), so buffered frames may be acknowledged on arrival.
           This branch is the pre-recovery protocol, byte for byte. *)
        ack ~epoch ~seq;
        if seq < l.expected || Hashtbl.mem l.held seq then suppress ()
        else if seq = l.expected then (consume_and_drain ()) false
        else hold ()
      end
      else if seq < l.expected then begin
        (* Consumed in order earlier, so it is in the journal; the
           previous ack may have been lost — ack again. *)
        ack ~epoch ~seq;
        suppress ()
      end
      else if Hashtbl.mem l.held seq then
        (* Buffered but not consumed: held frames are volatile, and a
           crash here would lose a frame the sender believed was safely
           delivered.  The ack waits until in-order consumption journals
           the frame; until then the sender's retransmissions land in
           this branch. *)
        suppress ()
      else if seq = l.expected then begin
        (* Write-ahead order: consume_slot journals the delivery before
           the ack releases the sender's copy. *)
        (consume_and_drain ()) true;
        ack ~epoch ~seq
      end
      else hold ()
    end
  | Msg.Ack { from_site = acker; epoch; seq } ->
    heard t ep acker;
    let l = link t ~from_site:ep.ep_site ~to_site:acker in
    (match Hashtbl.find_opt l.outstanding seq with
     | Some (e, mid, _) when e = epoch ->
       Hashtbl.remove l.outstanding seq;
       (match journal_for t ep.ep_site with
        | Some j ->
          Journal.append j
            (Journal.Acked { time = Sim.now t.sim; to_site = acker; mid })
        | None -> ())
     | _ ->
       (* Ack for a frame this incarnation no longer owns (already acked,
          given up, or sent in a previous life) — ignore. *)
       ())
  | Msg.Heartbeat { origin_site; beat = _ } -> heard t ep origin_site
  | app_msg ->
    (* Unwrapped application message: a local self-send or a sender that
       bypassed the reliable layer. *)
    ep.deliver app_msg

let heartbeat_tick t ep =
  let now = Sim.now t.sim in
  let threshold = suspect_threshold t in
  List.iter
    (fun peer ->
      if not (String.equal peer ep.ep_site) then begin
        ep.beat <- ep.beat + 1;
        t.heartbeats_sent <- t.heartbeats_sent + 1;
        Obs.Counter.incr ep.ep_heartbeats_sent;
        Net.send t.net ~from_site:ep.ep_site ~to_site:peer
          (Msg.Heartbeat { origin_site = ep.ep_site; beat = ep.beat });
        match Hashtbl.find_opt ep.last_heard peer with
        | None ->
          (* First sight of this peer: start its grace period now. *)
          Hashtbl.replace ep.last_heard peer now
        | Some last -> if now -. last > threshold then suspect t ep peer
      end)
    t.sites

let register t ~site deliver =
  if Hashtbl.mem t.endpoints site then
    invalid_arg ("Reliable.register: site already registered: " ^ site);
  let ep =
    {
      ep_site = site;
      deliver;
      last_heard = Hashtbl.create 8;
      suspected = Hashtbl.create 4;
      beat = 0;
      ep_heartbeats_sent =
        Obs.Counter.make t.obs "reliable_heartbeats_sent" ~labels:[ ("site", site) ];
    }
  in
  Hashtbl.replace t.endpoints site ep;
  t.sites <- List.sort compare (site :: t.sites);
  Net.register t.net ~site (fun frame -> receive t ep frame);
  if t.cfg.heartbeat_period > 0.0 then
    Sim.every t.sim ~period:t.cfg.heartbeat_period
      (fun () -> heartbeat_tick t ep)
      ~cancel:(fun () -> false)

(* -- crash-recovery hooks (driven by Cm_core.Recovery) -- *)

let reset_endpoint t ~site =
  (match Hashtbl.find_opt t.endpoints site with
   | Some ep ->
     Hashtbl.reset ep.last_heard;
     Hashtbl.reset ep.suspected;
     ep.beat <- 0
   | None -> ());
  Hashtbl.iter
    (fun (from_site, to_site) l ->
      if String.equal from_site site then begin
        (* sender half lives at [site] *)
        Hashtbl.reset l.outstanding;
        l.next_seq <- 0
      end;
      if String.equal to_site site then begin
        (* receiver half lives at [site] *)
        Hashtbl.reset l.held;
        l.in_epoch <- 0;
        l.expected <- 0;
        Hashtbl.reset l.delivered_mids
      end)
    t.links

let restore_sender_state t ~from_site ~to_site ~epoch ~next_mid =
  let l = link t ~from_site ~to_site in
  l.epoch <- epoch;
  l.next_seq <- 0;
  l.next_mid <- next_mid

let restore_receiver_state t ~from_site ~to_site ~epoch ~expected
    ~delivered_mids =
  let l = link t ~from_site ~to_site in
  l.in_epoch <- epoch;
  l.expected <- expected;
  List.iter (fun mid -> Hashtbl.replace l.delivered_mids mid ()) delivered_mids

let suspects t ~site =
  match Hashtbl.find_opt t.endpoints site with
  | None -> []
  | Some ep ->
    Hashtbl.fold (fun peer () acc -> peer :: acc) ep.suspected []
    |> List.sort compare

let stats t =
  {
    data_sent = t.data_sent;
    retransmits = t.retransmits;
    acks_sent = t.acks_sent;
    delivered = t.delivered;
    dup_suppressed = t.dup_suppressed;
    reordered = t.reordered;
    heartbeats_sent = t.heartbeats_sent;
    give_ups = t.give_ups;
    suspects = t.suspects_count;
    recoveries = t.recoveries;
    epoch_rejections = t.epoch_rejections;
    requeued = t.requeued;
  }

let pending t =
  Hashtbl.fold (fun _ l acc -> acc + Hashtbl.length l.outstanding) t.links 0
