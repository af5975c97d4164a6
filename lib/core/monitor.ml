open Cm_rule
module Sim = Cm_sim.Sim

(* Value-keyed hash tables must agree with Value.equal, which compares
   numerics by magnitude (Int 3 = Float 3.0): Value.hash does. *)
module Vtbl = Hashtbl.Make (Value)

(* A copy family's instances, keyed by their parameters. *)
module Ptbl = Hashtbl.Make (struct
  type t = Value.t list

  let equal = List.equal Value.equal
  let hash params = List.fold_left (fun h v -> (h * 31) + Value.hash v) 0 params
end)

module Itbl = Hashtbl.Make (Item)

type verdict = { v_holds : bool; v_points : int; v_violations : int }

type violation = { vi_at : float; vi_guarantee : Guarantee.t; vi_detail : string }

(* --- per-item streaming state --- *)

(* Mirror of Timeline.values_taken's dedup: a present value is a take iff
   it differs from the last value of the deduplicated take sequence —
   which a DEL does *not* reset (delete + re-insert of the same value is
   one take, exactly as in the fold's view). *)
type track = { mutable cur : Value.t option; mutable last_taken : Value.t option }

let fresh_track () = { cur = None; last_taken = None }

let track_change tr v =
  match v with
  | None ->
    tr.cur <- None;
    None
  | Some nv -> (
    tr.cur <- Some nv;
    match tr.last_taken with
    | Some lv when Value.equal lv nv -> None
    | _ ->
      tr.last_taken <- Some nv;
      Some nv)

(* Guarantee (4)'s open obligation, in Guarantee.check's reading: the
   follower's current take must be covered — held by the leader less
   than κ ago — at every instant the follower holds it.  [due] is the
   first instant it is not: infinity while the leader holds the value,
   the instant it left plus κ once it has, −∞ if it never held it.  A
   present follower fails the take (once) at [due]; the live staleness
   verdict is the same comparison against the clock.  A new take looks
   its value up in the ring of the leader's exits (oldest first), which
   drops an exit once it can cover no later instant. *)
type due = { mutable due : float }  (* all-float: updates allocate nothing *)

type metric = {
  kappa : float;
  mutable lead : Value.t option;  (* the leader's value at the last flush *)
  mutable take : Value.t option;  (* the follower's take at the last flush *)
  mutable present : bool;  (* the follower held it at the last flush *)
  mutable failed : bool;  (* that take has already violated *)
  mutable takes : int;  (* follower takes in the batch being applied *)
  ob : due;
  mutable exit_at : float array;
  mutable exit_val : Value.t array;
  mutable first : int;
  mutable len : int;
}

let fresh_metric kappa =
  { kappa; lead = None; take = None; present = false; failed = false; takes = 0;
    ob = { due = Float.infinity }; exit_at = [||]; exit_val = [||]; first = 0; len = 0 }

let push_exit m ~at v =
  let cap = Array.length m.exit_at in
  while m.len > 0 && m.exit_at.(m.first) +. m.kappa <= at do
    m.first <- (m.first + 1) mod cap;
    m.len <- m.len - 1
  done;
  if m.len = cap then begin
    let grow ring fill =
      Array.init (max 4 (2 * cap)) (fun i -> if i < cap then ring.((m.first + i) mod cap) else fill)
    in
    m.exit_at <- grow m.exit_at 0.0;
    m.exit_val <- grow m.exit_val Value.Null;
    m.first <- 0
  end;
  let slot = (m.first + m.len) mod Array.length m.exit_at in
  m.exit_at.(slot) <- at;
  m.exit_val.(slot) <- v;
  m.len <- m.len + 1

(* Ring slot of the newest exit from [y] among the first [i + 1], or -1. *)
let rec newest_exit m y i =
  if i < 0 then -1
  else
    let slot = (m.first + i) mod Array.length m.exit_at in
    if Value.equal m.exit_val.(slot) y then slot else newest_exit m y (i - 1)

let set_due m =
  match m.take, m.lead with
  | None, _ -> m.ob.due <- Float.infinity
  | Some y, Some v when Value.equal v y -> m.ob.due <- Float.infinity
  | Some y, _ ->
    let slot = newest_exit m y (m.len - 1) in
    if slot < 0 then m.ob.due <- Float.neg_infinity
    else m.ob.due <- m.exit_at.(slot) +. m.kappa

(* --- per-guarantee state machines --- *)

type form =
  | F_follows of unit Vtbl.t  (* values the leader has held *)
  | F_leads of { mutable pending : (float * Value.t) list (* newest first *) }
  | F_strictly of {
      remaining : Value.t Queue.t;  (* unconsumed leader takes, in order *)
      pend : (float * Value.t) Queue.t;  (* follower takes awaiting a match *)
    }
  | F_metric of metric
  | F_leq

type watcher = {
  w_g : Guarantee.t;
  w_left : Item.t;  (* leader / smaller *)
  w_right : Item.t;  (* follower / larger *)
  mutable w_lt : track;
  mutable w_rt : track;
  mutable w_form : form;
  w_ignore_after : float option;  (* Leads only *)
  w_labels : (string * string) list;
  mutable w_points : int;
  mutable w_bad : int;
  (* per-batch buffers *)
  mutable w_touched : bool;
  mutable w_left_takes : (float * Value.t) list;  (* rev order *)
  mutable w_right_takes : (float * Value.t) list;  (* rev order *)
  mutable w_down : bool;
      (* homed at a crashed site: volatile state wiped, live feed
         suspended until {!relearn} rebuilds it from the history *)
  mutable w_retired : bool;  (* replaced by a re-armed family's watcher *)
}

type handle = watcher

(* --- copy families and live staleness --- *)

type instance = {
  in_pair : Guarantee.copy_pair;
  in_logical : watcher list;  (* (1)–(3), §3.3.1 order *)
  mutable in_metric : watcher option;  (* (4), while the family has a κ *)
  mutable in_stale : bool;  (* the last verdict: frozen while down *)
  mutable in_touched : bool;
  mutable in_down : bool;  (* mirrors its watchers' [w_down] *)
}

type family = {
  fa_source : string;
  fa_target : string;
  mutable fa_kappa : float option;  (* the κ its (4) watchers check *)
  mutable fa_next : float option;  (* the κ last asked for, armed once its instant is over *)
  fa_instances : instance Ptbl.t;  (* by params *)
  mutable fa_order : Value.t list list;  (* params, rev insertion order *)
  mutable fa_stale : bool;  (* aggregate over instances *)
}

(* A raw item-state change, resolved against the monitor's own state
   table only when its batch applies — an INS in the same instant as a
   write or delete must see its same-instant predecessors. *)
type change = Cset of Value.t | Cins | Cdel

type t = {
  sim : Sim.t option;
  obs : Obs.t;
  tick : float;
  mutable watchers : watcher list;  (* rev registration order *)
  by_item : watcher list ref Itbl.t;
  state : Value.t option Itbl.t;  (* current value of every watched item *)
  mutable leqs : watcher list;  (* rev order; evaluated at every batch *)
  by_base : (string, family list ref) Hashtbl.t;
  mutable families : family list;  (* rev declaration order *)
  mutable batch_time : float;
  mutable batch : (Item.t * change) list;  (* rev order *)
  mutable have_batch : bool;
  mutable did_zero : bool;  (* always-leq sampled the 0.0 point *)
  mutable touched : watcher list;
  mutable touched_instances : (family * instance) list;
  mutable viol_subs : (violation -> unit) list;
  mutable stale_subs :
    (source:string -> target:string -> at:float -> stale:bool -> unit) list;
  mutable finalized : bool;
  mutable ticking : bool;
  mutable initial : (Item.t * Value.t) list;  (* {!note_initial}, in order *)
  mutable trace : Trace.t option;  (* {!attach}ed: the history a re-arm replays *)
  mutable rearm_at : float;  (* a [fa_next] asked for then awaits arming; ∞: none *)
}

let create ?sim ?(obs = Obs.noop) ?(tick = 1.0) () =
  {
    sim;
    obs;
    tick;
    watchers = [];
    by_item = Itbl.create 64;
    state = Itbl.create 64;
    leqs = [];
    by_base = Hashtbl.create 16;
    families = [];
    batch_time = 0.0;
    batch = [];
    have_batch = false;
    did_zero = false;
    touched = [];
    touched_instances = [];
    viol_subs = [];
    stale_subs = [];
    finalized = false;
    ticking = false;
    initial = [];
    trace = None;
    rearm_at = Float.infinity;
  }

let now_of t = match t.sim with Some sim -> Sim.now sim | None -> t.batch_time

let on_violation t f = t.viol_subs <- t.viol_subs @ [ f ]
let on_staleness t f = t.stale_subs <- t.stale_subs @ [ f ]

let supported = function
  | Guarantee.Follows _ | Guarantee.Leads _ | Guarantee.Strictly_follows _
  | Guarantee.Metric_follows _ | Guarantee.Always_leq _ ->
    true
  | Guarantee.Exists_within _ | Guarantee.Monitor_window _ | Guarantee.Periodic_equal _
    ->
    false

let violate t w ~at detail =
  w.w_bad <- w.w_bad + 1;
  if Obs.enabled t.obs then begin
    Obs.incr t.obs "monitor_violations" ~labels:w.w_labels;
    Obs.gauge t.obs "monitor_holds" ~labels:w.w_labels 0.0
  end;
  let v = { vi_at = at; vi_guarantee = w.w_g; vi_detail = detail } in
  List.iter (fun f -> f v) t.viol_subs

let register_item t item w =
  match Itbl.find_opt t.by_item item with
  | Some bucket -> bucket := w :: !bucket
  | None -> Itbl.replace t.by_item item (ref [ w ])

(* A guarantee's watched items and its form's initial state. *)
let shape = function
  | Guarantee.Follows { leader; follower } -> leader, follower, F_follows (Vtbl.create 16)
  | Guarantee.Leads { leader; follower } -> leader, follower, F_leads { pending = [] }
  | Guarantee.Strictly_follows { leader; follower } ->
    leader, follower, F_strictly { remaining = Queue.create (); pend = Queue.create () }
  | Guarantee.Metric_follows ({ leader; follower }, kappa) ->
    leader, follower, F_metric (fresh_metric kappa)
  | Guarantee.Always_leq { smaller; larger } -> smaller, larger, F_leq
  | g ->
    invalid_arg
      (Printf.sprintf "Monitor.watch: %s is not an online-checkable form"
         (Guarantee.name g))

let make_watcher t ?ignore_after g =
  let left, right, form = shape g in
  let w =
    {
      w_g = g;
      w_left = left;
      w_right = right;
      w_lt = fresh_track ();
      w_rt = fresh_track ();
      w_form = form;
      w_ignore_after = ignore_after;
      w_labels =
        [ ("guarantee", Guarantee.name g);
          ("left", Item.to_string left);
          ("right", Item.to_string right) ];
      w_points = 0;
      w_bad = 0;
      w_touched = false;
      w_left_takes = [];
      w_right_takes = [];
      w_down = false;
      w_retired = false;
    }
  in
  t.watchers <- w :: t.watchers;
  (match form with
  | F_leq -> t.leqs <- w :: t.leqs
  | _ -> ());
  register_item t left w;
  if not (Item.equal left right) then register_item t right w;
  if Obs.enabled t.obs then Obs.gauge t.obs "monitor_holds" ~labels:w.w_labels 1.0;
  w

let watch ?ignore_after t g = make_watcher t ?ignore_after g

(* --- obligation evaluation (stage 2 of a batch) --- *)

let seek_consume q y =
  (* Fold's [seek]: find the first occurrence of [y] in the queue; on a
     hit consume through it, on a miss leave the queue untouched. *)
  let idx = ref (-1) in
  let i = ref 0 in
  Queue.iter
    (fun x ->
      if !idx < 0 && Value.equal x y then idx := !i;
      incr i)
    q;
  if !idx < 0 then false
  else begin
    for _ = 0 to !idx do
      ignore (Queue.pop q)
    done;
    true
  end

let eval_leq t w ~at =
  match w.w_lt.cur, w.w_rt.cur with
  | Some a, Some b ->
    w.w_points <- w.w_points + 1;
    if not (Value.compare a b <= 0) then
      violate t w ~at
        (Printf.sprintf "at %.3f: %s = %s > %s = %s" at (Item.to_string w.w_left)
           (Value.to_string a) (Item.to_string w.w_right) (Value.to_string b))
  | _ -> ()

let fail_take t w m ~at =
  m.failed <- true;
  violate t w ~at
    (Printf.sprintf "%s = %s at %.3f but %s did not hold it within the last %gs"
       (Item.to_string w.w_right)
       (match m.take with Some y -> Value.to_string y | None -> "")
       at (Item.to_string w.w_left) m.kappa)

(* One instant of guarantee (4): close the span the last flush opened,
   apply the instant's settled leader and follower states, and check
   the instant itself. *)
let flush_metric t w m ~at =
  if m.present && (not m.failed) && m.ob.due < at then fail_take t w m ~at:m.ob.due;
  let moved = not (Option.equal Value.equal w.w_lt.cur m.lead) in
  if moved then begin
    (match m.lead with Some v -> push_exit m ~at v | None -> ());
    m.lead <- w.w_lt.cur
  end;
  if m.takes > 0 then begin
    w.w_points <- w.w_points + m.takes;
    m.takes <- 0;
    m.take <- w.w_rt.last_taken;
    m.failed <- false;
    set_due m
  end
  else if moved then set_due m;
  m.present <- w.w_rt.cur <> None;
  if m.present && (not m.failed) && m.ob.due <= at then fail_take t w m ~at

let flush_watcher t w ~at =
  w.w_touched <- false;
  let left_takes = List.rev w.w_left_takes in
  let right_takes = List.rev w.w_right_takes in
  w.w_left_takes <- [];
  w.w_right_takes <- [];
  match w.w_form with
  | F_follows seen ->
    List.iter
      (fun (t1, y) ->
        w.w_points <- w.w_points + 1;
        if not (Vtbl.mem seen y) then
          violate t w ~at
            (Printf.sprintf "%s = %s at %.3f but %s never held it before"
               (Item.to_string w.w_right) (Value.to_string y) t1
               (Item.to_string w.w_left)))
      right_takes
  | F_metric m -> flush_metric t w m ~at
  | F_leads st ->
    List.iter
      (fun (t1, x) ->
        let in_scope =
          match w.w_ignore_after with None -> true | Some ia -> t1 <= ia
        in
        if in_scope then begin
          w.w_points <- w.w_points + 1;
          st.pending <- (t1, x) :: st.pending
        end)
      left_takes;
    if Obs.enabled t.obs then
      Obs.gauge t.obs "monitor_leads_pending" ~labels:w.w_labels
        (float_of_int (List.length st.pending))
  | F_strictly st ->
    List.iter
      (fun (t1, y) ->
        w.w_points <- w.w_points + 1;
        Queue.add (t1, y) st.pend)
      right_takes;
    (* Resolve eagerly from the head: earlier waiting takes always match
       before later ones can consume leader occurrences (the fold's
       embed is strictly left-to-right); a head with no match yet may
       still be satisfied by a future leader take, so it blocks. *)
    let continue = ref true in
    while !continue && not (Queue.is_empty st.pend) do
      let _, y = Queue.peek st.pend in
      if seek_consume st.remaining y then ignore (Queue.pop st.pend)
      else continue := false
    done
  | F_leq -> ()

(* --- staleness --- *)

(* A copy instance is stale when its follower holds a take the leader's
   history no longer covers: a read of (4)'s obligation.  A down
   instance keeps its verdict from before the crash. *)
let instance_stale inst ~now =
  if not inst.in_down then
    inst.in_stale <-
      (match inst.in_metric with
      | Some { w_form = F_metric m; _ } -> m.present && m.ob.due <= now
      | _ -> false);
  inst.in_stale

(* Publish a family's aggregate verdict when it changes. *)
let publish_stale t fa ~now stale =
  if stale <> fa.fa_stale then begin
    fa.fa_stale <- stale;
    if Obs.enabled t.obs then begin
      let labels = [ ("source", fa.fa_source); ("target", fa.fa_target) ] in
      Obs.gauge t.obs "monitor_stale" ~labels (if stale then 1.0 else 0.0);
      if stale then Obs.incr t.obs "monitor_stale_transitions" ~labels
    end;
    List.iter
      (fun f -> f ~source:fa.fa_source ~target:fa.fa_target ~at:now ~stale)
      t.stale_subs
  end

let refresh_family t fa ~now =
  publish_stale t fa ~now
    (Ptbl.fold (fun _ inst acc -> instance_stale inst ~now || acc) fa.fa_instances false)

let refresh_instance t fa inst ~now =
  inst.in_touched <- false;
  ignore (instance_stale inst ~now);
  (* Aggregate over the whole family, so one instance going fresh does
     not mask another still stale. *)
  publish_stale t fa ~now
    (Ptbl.fold (fun _ i acc -> acc || i.in_stale) fa.fa_instances false)

(* --- the batch engine --- *)

let flush t =
  if t.have_batch then begin
    let at = t.batch_time in
    let entries = List.rev t.batch in
    t.batch <- [];
    t.have_batch <- false;
    (* The fold samples always-leq at 0.0 even when nothing changed
       there: take that sample from the pre-batch state (= the state at
       time 0) before the first later-timed batch applies. *)
    if (not t.did_zero) && at > 0.0 && t.leqs <> [] then begin
      t.did_zero <- true;
      List.iter (fun w -> eval_leq t w ~at:0.0) t.leqs
    end;
    if at = 0.0 then t.did_zero <- true;
    (* Stage 1: apply every state update of the instant. *)
    List.iter
      (fun (item, change) ->
        let v =
          match change with
          | Cset v -> Some v
          | Cdel -> None
          | Cins ->
            (* INS preserves a value only if the item currently exists —
               the Timeline.of_trace convention. *)
            Some
              (Option.value
                 (Option.join (Itbl.find_opt t.state item))
                 ~default:Value.Null)
        in
        (match Itbl.find_opt t.by_item item with
        | None -> ()
        | Some bucket ->
          Itbl.replace t.state item v;
          List.iter
            (fun w ->
              if w.w_down then ()  (* crashed site: its monitor is dead;
                                      the relearn catches it up *)
              else begin
              if not w.w_touched then begin
                w.w_touched <- true;
                t.touched <- w :: t.touched
              end;
              if Item.equal item w.w_left then begin
                (match w.w_form with
                | F_follows seen -> (
                  match v with Some nv -> Vtbl.replace seen nv () | None -> ())
                | _ -> ());
                match track_change w.w_lt v with
                | Some taken -> (
                  match w.w_form with
                  | F_leads _ -> w.w_left_takes <- (at, taken) :: w.w_left_takes
                  | F_strictly st -> Queue.add taken st.remaining
                  | _ -> ())
                | None -> ()
              end;
              if Item.equal item w.w_right then begin
                (* Leads: a follower interval closing at [at] discharges
                   every pending take strictly before it (the fold's
                   [stop > t1]).  Same-value rewrites extend the
                   interval instead — equivalent for the final verdict,
                   since the merged interval closes later still. *)
                (match w.w_form with
                | F_leads st -> (
                  match w.w_rt.cur, v with
                  | Some ov, Some nv when Value.equal ov nv -> ()
                  | Some ov, _ ->
                    st.pending <-
                      List.filter
                        (fun (t1, x) -> not (Value.equal x ov && t1 < at))
                        st.pending
                  | None, _ -> ())
                | _ -> ());
                match track_change w.w_rt v, w.w_form with
                | Some _, F_metric m -> m.takes <- m.takes + 1
                | Some taken, _ -> w.w_right_takes <- (at, taken) :: w.w_right_takes
                | None, _ -> ()
              end
              end)
            !bucket);
        match Hashtbl.find_opt t.by_base item.Item.base with
        | None -> ()
        | Some fams ->
          List.iter
            (fun fa ->
              match Ptbl.find_opt fa.fa_instances item.Item.params with
              | None -> ()
              | Some inst when inst.in_down -> ()
              | Some inst ->
                if not inst.in_touched then begin
                  inst.in_touched <- true;
                  t.touched_instances <- (fa, inst) :: t.touched_instances
                end)
            !fams)
      entries;
    (* Stage 2: evaluate the instant's obligations against the settled
       state — intra-instant event order must not matter, as it does not
       for the fold. *)
    List.iter
      (fun w -> if not w.w_down then flush_watcher t w ~at)
      (List.rev t.touched);
    t.touched <- [];
    List.iter (fun w -> if not w.w_down then eval_leq t w ~at) t.leqs;
    List.iter
      (fun (fa, inst) -> refresh_instance t fa inst ~now:at)
      (List.rev t.touched_instances);
    t.touched_instances <- []
  end

let metric_watcher t pair kappa = make_watcher t (Guarantee.Metric_follows (pair, kappa))

(* Create family instances lazily at an item's first event; the new
   watchers join [by_item] before the entry is applied, so they see it. *)
let ensure_instances t item =
  match Hashtbl.find_opt t.by_base item.Item.base with
  | None -> ()
  | Some fams ->
    List.iter
      (fun fa ->
        let params = item.Item.params in
        if not (Ptbl.mem fa.fa_instances params) then begin
          let pair =
            { Guarantee.leader = Item.make fa.fa_source ~params;
              follower = Item.make fa.fa_target ~params }
          in
          Ptbl.replace fa.fa_instances params
            {
              in_pair = pair;
              in_logical =
                List.map (fun g -> make_watcher t g)
                  [ Guarantee.Follows pair; Guarantee.Leads pair;
                    Guarantee.Strictly_follows pair ];
              in_metric = Option.map (metric_watcher t pair) fa.fa_kappa;
              in_stale = false;
              in_touched = false;
              in_down = false;
            };
          fa.fa_order <- params :: fa.fa_order
        end)
      !fams

(* Only events on watched items — or any state change while an
   always-leq watcher samples every instant — enter a batch. *)
let admitted t item =
  ensure_instances t item;
  Itbl.mem t.by_item item || t.leqs <> []

let rec push_change t ~time item change =
  if t.finalized then invalid_arg "Monitor: feed after finalize";
  if time < t.batch_time then
    invalid_arg
      (Printf.sprintf "Monitor: event at %g precedes batch at %g" time t.batch_time);
  if t.have_batch && time > t.batch_time then flush t;
  if t.rearm_at < time then rearm t ~before:time ~now:time;
  t.batch_time <- time;
  t.have_batch <- true;
  t.batch <- (item, change) :: t.batch

and feed t (e : Event.t) =
  (* Cheap reject first: most events (N, RR, fires, chains) change no
     item state and must cost almost nothing with monitors on.  The
     state-changing shapes mirror [Event.written_value] plus INS/DEL —
     the [Timeline.of_trace] vocabulary. *)
  match e.Event.desc.Event.name, e.Event.desc.Event.args with
  | "W", [ Event.Ai item; Event.Av v ] | "Ws", [ Event.Ai item; _; Event.Av v ]
    ->
    if admitted t item then push_change t ~time:e.Event.time item (Cset v)
  | "INS", [ Event.Ai item ] ->
    if admitted t item then push_change t ~time:e.Event.time item Cins
  | "DEL", [ Event.Ai item ] ->
    if admitted t item then push_change t ~time:e.Event.time item Cdel
  | _ -> ()

(* Rebuild [ws] from the history: the {!note_initial} bindings and the
   events before [before] run through the live engine on throwaway
   twins, whose state then replaces theirs.  Silent — the twins' points
   and violations reach no subscriber; with [adopt] they become the
   watchers' own (a watcher new to a re-armed family), otherwise the
   watchers keep what they scored live. *)
and replay t ws events ~before ~adopt =
  let m = create () in
  let twins =
    List.map (fun w -> (w, watch ?ignore_after:w.w_ignore_after m w.w_g)) ws
  in
  note_initial m t.initial;
  List.iter (fun (e : Event.t) -> if e.time < before then feed m e) events;
  flush m;
  List.iter
    (fun (w, twin) ->
      w.w_lt <- twin.w_lt;
      w.w_rt <- twin.w_rt;
      w.w_form <- twin.w_form;
      w.w_down <- false;
      if adopt then begin
        w.w_points <- twin.w_points;
        w.w_bad <- twin.w_bad;
        if twin.w_bad > 0 && Obs.enabled t.obs then
          Obs.gauge t.obs "monitor_holds" ~labels:w.w_labels 0.0
      end)
    twins

(* Arm every family whose κ was re-derived since: each instance's (4)
   watcher is replaced by one at the new κ (or dropped), rebuilt from
   the attached trace as if the family had been declared with it. *)
and rearm t ~before ~now =
  t.rearm_at <- Float.infinity;
  List.iter
    (fun fa ->
      if not (Option.equal Float.equal fa.fa_next fa.fa_kappa) then begin
        fa.fa_kappa <- fa.fa_next;
        let rebuilt =
          List.filter_map
            (fun params ->
              let inst = Ptbl.find fa.fa_instances params in
              Option.iter (fun w -> w.w_retired <- true) inst.in_metric;
              inst.in_metric <- Option.map (metric_watcher t inst.in_pair) fa.fa_kappa;
              inst.in_metric)
            (List.rev fa.fa_order)
        in
        let live w = not w.w_retired in
        t.watchers <- List.filter live t.watchers;
        Itbl.iter (fun _ bucket -> bucket := List.filter live !bucket) t.by_item;
        let events = match t.trace with Some tr -> Trace.events tr | None -> [] in
        replay t rebuilt events ~before ~adopt:true;
        refresh_family t fa ~now
      end)
    (List.rev t.families)

and note_initial t bindings =
  t.initial <- t.initial @ bindings;
  List.iter
    (fun (item, v) ->
      ensure_instances t item;
      push_change t ~time:0.0 item (Cset v))
    bindings

let attach t trace =
  t.trace <- Some trace;
  Trace.on_record trace (fun e -> feed t e)

(* --- staleness public face --- *)

let find_family t ~source ~target =
  List.find_opt
    (fun fa -> String.equal fa.fa_source source && String.equal fa.fa_target target)
    t.families

let sync_to_now t =
  (* A completed batch strictly before the current instant must apply
     before staleness is read, and a κ re-derived at an earlier instant
     armed; an in-progress batch at the current instant stays open (its
     obligations evaluate when it completes). *)
  let now = now_of t in
  if t.have_batch && t.batch_time < now then flush t;
  if t.rearm_at < now then rearm t ~before:now ~now;
  now

let copy_stale t ~source ~target =
  match find_family t ~source ~target with
  | None -> false
  | Some fa ->
    ignore (sync_to_now t);
    fa.fa_stale

let force_refresh t ~source ~target =
  match find_family t ~source ~target with
  | None -> false
  | Some fa ->
    let now = sync_to_now t in
    Obs.incr t.obs "monitor_forced_refreshes"
      ~labels:[ ("source", source); ("target", target) ];
    refresh_family t fa ~now;
    fa.fa_stale

let start_tick t =
  match t.sim with
  | Some sim when not t.ticking ->
    t.ticking <- true;
    Sim.every sim ~period:t.tick
      (fun () ->
        let now = sync_to_now t in
        List.iter (fun fa -> refresh_family t fa ~now) (List.rev t.families))
      ~cancel:(fun () -> t.finalized)
  | _ -> ()

let watch_copy t ~source ~target ~kappa =
  match find_family t ~source ~target with
  | Some fa ->
    (* A re-derived κ is armed once its instant is over, so one that
       changes and changes back within an instant re-arms nothing. *)
    let now = sync_to_now t in
    fa.fa_next <- kappa;
    if not (Option.equal Float.equal kappa fa.fa_kappa) then t.rearm_at <- now
  | None ->
    let fa =
      {
        fa_source = source;
        fa_target = target;
        fa_kappa = kappa;
        fa_next = kappa;
        fa_instances = Ptbl.create 8;
        fa_order = [];
        fa_stale = false;
      }
    in
    t.families <- fa :: t.families;
    let add base =
      match Hashtbl.find_opt t.by_base base with
      | Some bucket -> bucket := fa :: !bucket
      | None -> Hashtbl.replace t.by_base base (ref [ fa ])
    in
    add source;
    if not (String.equal source target) then add target;
    start_tick t

(* --- crash recovery: volatile wipe + relearn from the history ---

   A site's monitor runs at the site, so its watchers' state dies with a
   crash ([crash_wipe]); [relearn], the §5 recovery step, rebuilds it
   with {!replay}: knowledge, not re-reported verdicts, but every
   obligation pending at the crash, so a crash between a violation and
   its detection does not bury it. *)

let wipe_watcher w =
  let _, _, form = shape w.w_g in
  w.w_lt <- fresh_track ();
  w.w_rt <- fresh_track ();
  w.w_form <- form;
  w.w_down <- true

let instance_watchers inst = inst.in_logical @ Option.to_list inst.in_metric

let crash_wipe t ~owns =
  (* The watchers heard every completed instant before the crash. *)
  ignore (sync_to_now t);
  let n = ref 0 in
  List.iter
    (fun w ->
      if (not w.w_down) && owns w.w_right then begin
        wipe_watcher w;
        incr n
      end)
    t.watchers;
  List.iter
    (fun fa ->
      Ptbl.iter
        (fun _ inst ->
          if List.exists (fun w -> w.w_down) (instance_watchers inst) then
            inst.in_down <- true)
        fa.fa_instances)
    t.families;
  !n

let relearn t events =
  if t.finalized then invalid_arg "Monitor.relearn: already finalized";
  let now = sync_to_now t in
  let down = List.filter (fun w -> w.w_down) t.watchers in
  if down <> [] then begin
    (* The open instant's events are in the live batch, which the
       revived watchers hear when it completes. *)
    let before = if t.have_batch then t.batch_time else Float.infinity in
    replay t down events ~before ~adopt:false;
    List.iter
      (fun fa ->
        Ptbl.iter (fun _ inst -> inst.in_down <- false) fa.fa_instances;
        (* Verdicts recomputed from the relearned obligations;
           subscribers hear only genuine transitions. *)
        refresh_family t fa ~now)
      t.families
  end

(* --- finalize: resolve the eventually-properties --- *)

let finalize t ~horizon =
  flush t;
  if not t.finalized then begin
    if t.rearm_at < Float.infinity then rearm t ~before:Float.infinity ~now:horizon;
    t.finalized <- true;
    (* The fold samples always-leq at 0.0 even on an empty trace. *)
    if (not t.did_zero) && t.leqs <> [] then begin
      t.did_zero <- true;
      List.iter (fun w -> eval_leq t w ~at:0.0) t.leqs
    end;
    List.iter
      (fun w ->
        match w.w_form with
        | F_leads st ->
          (* The fold's final follower interval stops at the horizon:
             discharge what it covers, fail the rest in take order. *)
          let open_v = w.w_rt.cur in
          let residual =
            List.filter
              (fun (t1, x) ->
                not
                  (match open_v with
                  | Some v -> Value.equal v x && horizon > t1
                  | None -> false))
              (List.rev st.pending)
          in
          st.pending <- List.rev residual;
          List.iter
            (fun (t1, x) ->
              violate t w ~at:horizon
                (Printf.sprintf "%s took %s at %.3f but %s never reflected it"
                   (Item.to_string w.w_left) (Value.to_string x) t1
                   (Item.to_string w.w_right)))
            residual
        | F_strictly st ->
          (* Exactly the fold's embed over the residuals: a failing take
             leaves the remaining leader sequence untouched. *)
          Queue.iter
            (fun (t1, y) ->
              if not (seek_consume st.remaining y) then
                violate t w ~at:horizon
                  (Printf.sprintf "%s = %s at %.3f is out of order w.r.t. %s's history"
                     (Item.to_string w.w_right) (Value.to_string y) t1
                     (Item.to_string w.w_left)))
            st.pend;
          Queue.clear st.pend
        | F_metric m ->
          (* The last span runs through the horizon itself. *)
          if m.present && (not m.failed) && m.ob.due <= horizon then
            fail_take t w m ~at:m.ob.due
        | F_follows _ | F_leq -> ())
      (List.rev t.watchers)
  end

let verdict w = { v_holds = w.w_bad = 0; v_points = w.w_points; v_violations = w.w_bad }

let family_verdicts t ~source ~target =
  match find_family t ~source ~target with
  | None -> []
  | Some fa ->
    (* By rendered parameters, as reports list them; parameters that
       render alike order by value. *)
    let text params = String.concat "," (List.map Value.to_string params) in
    let by_text a b =
      match String.compare (text a) (text b) with
      | 0 -> List.compare Value.compare a b
      | c -> c
    in
    List.concat_map
      (fun params ->
        List.map (fun w -> (w.w_g, verdict w))
          (instance_watchers (Ptbl.find fa.fa_instances params)))
      (List.sort by_text (List.rev fa.fa_order))
