open Cm_rule
module Sim = Cm_sim.Sim

(* Value-keyed hash tables must agree with Value.equal, which compares
   numerics by magnitude (Int 3 = Float 3.0) — normalize before
   hashing so both land in the same bucket. *)
module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal

  let hash v =
    Hashtbl.hash
      (match v with Value.Int n -> Value.Float (float_of_int n) | v -> v)
end)

module Itbl = Hashtbl.Make (struct
  type t = Item.t

  let equal = Item.equal
  let hash = Item.hash
end)

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

(* Mirror of Guarantee.intervals, kept incrementally and pruned to the κ
   window.  Adjacent same-value raw entries are merged: for the metric
   predicate (∃ interval v: start ≤ t1 ∧ stop > t1 − κ) splitting an
   interval at an interior point is equivalence-preserving, so only real
   value changes create boundaries — state is O(distinct values within
   the window), not O(writes). *)
type window = {
  wd_kappa : float;
  mutable wd_open : (float * Value.t) option;  (* start, value *)
  mutable wd_closed : (float * float * Value.t) list;  (* newest first *)
}

let fresh_window kappa = { wd_kappa = kappa; wd_open = None; wd_closed = [] }

let window_change w ~time v =
  match w.wd_open, v with
  | Some (_, ov), Some nv when Value.equal ov nv -> ()
  | Some (s, ov), Some nv ->
    w.wd_closed <- (s, time, ov) :: w.wd_closed;
    w.wd_open <- Some (time, nv)
  | Some (s, ov), None ->
    w.wd_closed <- (s, time, ov) :: w.wd_closed;
    w.wd_open <- None
  | None, Some nv -> w.wd_open <- Some (time, nv)
  | None, None -> ()

let window_prune w ~now =
  (* Safe because obligations are only ever evaluated at the current
     instant: an interval with stop ≤ now − κ can satisfy no obligation
     at t1 ≥ now either. *)
  let cutoff = now -. w.wd_kappa in
  w.wd_closed <- List.filter (fun (_, stop, _) -> stop > cutoff) w.wd_closed

let window_holds w ~at v =
  (match w.wd_open with
  | Some (s, ov) -> s <= at && Value.equal ov v
  | None -> false)
  || List.exists
       (fun (s, stop, ov) -> Value.equal ov v && s <= at && stop > at -. w.wd_kappa)
       w.wd_closed

(* --- per-guarantee state machines --- *)

type form =
  | F_follows of unit Vtbl.t  (* values the leader has held *)
  | F_leads of { mutable pending : (float * Value.t) list (* newest first *) }
  | F_strictly of {
      remaining : Value.t Queue.t;  (* unconsumed leader takes, in order *)
      pend : (float * Value.t) Queue.t;  (* follower takes awaiting a match *)
    }
  | F_metric of window
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
}

type handle = watcher

(* --- copy families and live staleness --- *)

(* Live staleness reads the instance's metric-follows watcher: the copy
   is stale when its current value (the follower track) is not in the
   leader's κ window. *)
type stale_state = { ss_metric : watcher; mutable ss_stale : bool }

type instance = {
  in_watchers : watcher list;  (* §3.3.1 order *)
  in_stale : stale_state option;
  mutable in_touched : bool;
  mutable in_down : bool;  (* mirrors its watchers' [w_down] *)
}

type family = {
  fa_source : string;
  fa_target : string;
  fa_kappa : float option;
  fa_instances : (string, instance) Hashtbl.t;  (* by param key *)
  mutable fa_order : string list;  (* rev insertion order *)
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
  watched_bases : (string, unit) Hashtbl.t;
      (* bases of every watched item and copy family — the feed path's
         one-lookup reject for events on items no watcher cares about *)
  base_filter : Bytes.t;
      (* 256-slot bitmap over the last byte of every watched base: one
         array load rejects most unwatched bases before the hash lookup
         above ever touches the table.  Monotone — bits are set on
         registration and never cleared, so a miss here is definitive
         while a hit merely falls through to [watched_bases]. *)
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
  mutable wiped_families : family list;  (* families with down instances *)
  mutable initial : (Item.t * Value.t) list;  (* {!note_initial}, in order *)
}

let create ?sim ?(obs = Obs.noop) ?(tick = 1.0) () =
  {
    sim;
    obs;
    tick;
    watchers = [];
    by_item = Itbl.create 64;
    watched_bases = Hashtbl.create 16;
    base_filter = Bytes.make 256 '\000';
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
    wiped_families = [];
    initial = [];
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

let admit_base t base =
  Hashtbl.replace t.watched_bases base ();
  if String.length base > 0 then
    Bytes.set t.base_filter
      (Char.code (String.unsafe_get base (String.length base - 1)))
      '\001'

let register_item t item w =
  admit_base t item.Item.base;
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
    leader, follower, F_metric (fresh_window kappa)
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

let flush_watcher t w ~at =
  w.w_touched <- false;
  let left_takes = List.rev w.w_left_takes in
  let right_takes = List.rev w.w_right_takes in
  w.w_left_takes <- [];
  w.w_right_takes <- [];
  (match w.w_form with
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
  | F_metric window ->
    window_prune window ~now:at;
    List.iter
      (fun (t1, y) ->
        w.w_points <- w.w_points + 1;
        if not (window_holds window ~at:t1 y) then
          violate t w ~at
            (Printf.sprintf "%s = %s at %.3f but %s did not hold it within the last %gs"
               (Item.to_string w.w_right) (Value.to_string y) t1
               (Item.to_string w.w_left) window.wd_kappa))
      right_takes
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
  | F_leq -> ())

(* --- staleness --- *)

let eval_stale ss ~now =
  match ss.ss_metric.w_rt.cur, ss.ss_metric.w_form with
  | Some v, F_metric window ->
    window_prune window ~now;
    not (window_holds window ~at:now v)
  | _ -> false

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
  let stale = ref false in
  Hashtbl.iter
    (fun _ inst ->
      match inst.in_stale with
      | None -> ()
      | Some ss ->
        (* A down instance's verdict is frozen at its pre-crash value
           until the relearn rebuilds its metric watcher. *)
        if not inst.in_down then ss.ss_stale <- eval_stale ss ~now;
        if ss.ss_stale then stale := true)
    fa.fa_instances;
  publish_stale t fa ~now !stale

let refresh_instance t fa inst ~now =
  inst.in_touched <- false;
  (match inst.in_stale with
  | None -> ()
  | Some ss -> ss.ss_stale <- eval_stale ss ~now);
  (* Aggregate over the whole family, so one instance going fresh does
     not mask another still stale. *)
  publish_stale t fa ~now
    (Hashtbl.fold
       (fun _ i acc ->
         acc || match i.in_stale with Some ss -> ss.ss_stale | None -> false)
       fa.fa_instances false)

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
        if Itbl.mem t.by_item item then Itbl.replace t.state item v;
        (match Itbl.find_opt t.by_item item with
        | None -> ()
        | Some bucket ->
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
                | F_metric window -> window_change window ~time:at v
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
                match track_change w.w_rt v with
                | Some taken -> w.w_right_takes <- (at, taken) :: w.w_right_takes
                | None -> ()
              end
              end)
            !bucket);
        match Hashtbl.find_opt t.by_base item.Item.base with
        | None -> ()
        | Some fams ->
          List.iter
            (fun fa ->
              match
                Hashtbl.find_opt fa.fa_instances
                  (String.concat "," (List.map Value.to_string item.Item.params))
              with
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

(* Create family instances lazily at an item's first event; the new
   watchers join [by_item] before the entry is applied, so they see it. *)
let ensure_instances t item =
  match Hashtbl.find_opt t.by_base item.Item.base with
  | None -> ()
  | Some fams ->
    List.iter
      (fun fa ->
        let key = String.concat "," (List.map Value.to_string item.Item.params) in
        if not (Hashtbl.mem fa.fa_instances key) then begin
          let source = Item.make fa.fa_source ~params:item.Item.params in
          let target = Item.make fa.fa_target ~params:item.Item.params in
          let pair = { Guarantee.leader = source; follower = target } in
          let logical =
            List.map (fun g -> make_watcher t g)
              [ Guarantee.Follows pair; Guarantee.Leads pair;
                Guarantee.Strictly_follows pair ]
          in
          let metric =
            Option.map
              (fun kappa -> make_watcher t (Guarantee.Metric_follows (pair, kappa)))
              fa.fa_kappa
          in
          Hashtbl.replace fa.fa_instances key
            {
              in_watchers = logical @ Option.to_list metric;
              in_stale = Option.map (fun w -> { ss_metric = w; ss_stale = false }) metric;
              in_touched = false;
              in_down = false;
            };
          fa.fa_order <- key :: fa.fa_order
        end)
      !fams

let push_change t ~time item change =
  if t.finalized then invalid_arg "Monitor: feed after finalize";
  if time < t.batch_time then
    invalid_arg
      (Printf.sprintf "Monitor: event at %g precedes batch at %g" time t.batch_time);
  if t.have_batch && time > t.batch_time then flush t;
  t.batch_time <- time;
  t.have_batch <- true;
  t.batch <- (item, change) :: t.batch

(* An unwatched item still marks an always-leq sample point (the fold
   samples at every global change time), but otherwise costs one
   base-string lookup: with no leq watchers, events on bases no watcher
   or family cares about are rejected without touching the item tables,
   spawning family instances, or allocating the change. *)
(* The bitmap probe costs one load where the hash lookup costs a string
   hash plus a chain walk through cold table nodes; with distinct last
   bytes it rejects without ever touching [watched_bases]. *)
let base_maybe_watched t base =
  let n = String.length base in
  n = 0
  || Bytes.unsafe_get t.base_filter (Char.code (String.unsafe_get base (n - 1)))
     <> '\000'

let admitted t item =
  if
    base_maybe_watched t item.Item.base
    && Hashtbl.mem t.watched_bases item.Item.base
  then begin
    ensure_instances t item;
    Itbl.mem t.by_item item || t.leqs <> []
  end
  else t.leqs <> []

let feed t (e : Event.t) =
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

let note_initial t bindings =
  t.initial <- t.initial @ bindings;
  List.iter
    (fun (item, v) ->
      ensure_instances t item;
      push_change t ~time:0.0 item (Cset v))
    bindings

let attach t trace = Trace.on_record trace (fun e -> feed t e)

(* --- staleness public face --- *)

let find_family t ~source ~target =
  List.find_opt
    (fun fa -> String.equal fa.fa_source source && String.equal fa.fa_target target)
    t.families

let sync_to_now t =
  (* A completed batch strictly before the current instant must apply
     before staleness is read; an in-progress batch at the current
     instant stays open (its obligations evaluate when it completes). *)
  let now = now_of t in
  if t.have_batch && t.batch_time < now then flush t;
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
  | Some _ -> ()
  | None ->
    let fa =
      {
        fa_source = source;
        fa_target = target;
        fa_kappa = kappa;
        fa_instances = Hashtbl.create 8;
        fa_order = [];
        fa_stale = false;
      }
    in
    t.families <- fa :: t.families;
    let add base =
      (* Family instances spawn lazily, so the feed path's base-level
         reject must admit these bases before any instance exists. *)
      admit_base t base;
      match Hashtbl.find_opt t.by_base base with
      | Some bucket -> bucket := fa :: !bucket
      | None -> Hashtbl.replace t.by_base base (ref [ fa ])
    in
    add source;
    if not (String.equal source target) then add target;
    start_tick t

(* --- crash recovery: volatile wipe + relearn from the history ---

   A site's monitor runs at the site: its watcher state is volatile and
   dies with a crash.  [crash_wipe] models the loss — every watcher
   whose monitored (right-hand) item lives at the crashed site loses its
   tracks, value sets, pending obligations and κ windows, and stops
   consuming the live feed.  [relearn] is the §5 recovery step: the
   event history before the open instant runs through the live engine
   on a throwaway monitor holding one fresh twin per wiped watcher, and
   the twins' state moves into the wiped watchers — silently, since the
   throwaway's points and violations are discarded (those instants were
   checked in the previous life; re-learning must rebuild knowledge, not
   re-report or double-count) — after which the live feed resumes.  An
   obligation that was pending at the crash (e.g. a leads take the
   follower had not yet reflected) is thereby restored and still fails
   at finalize if never discharged: a crash between a violation and its
   detection does not bury it. *)

let wipe_watcher w =
  let _, _, form = shape w.w_g in
  w.w_lt <- fresh_track ();
  w.w_rt <- fresh_track ();
  w.w_form <- form;
  w.w_down <- true

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
      let touched = ref false in
      Hashtbl.iter
        (fun _ inst ->
          if
            (not inst.in_down)
            && List.exists (fun w -> w.w_down) inst.in_watchers
          then begin
            touched := true;
            inst.in_down <- true
          end)
        fa.fa_instances;
      if !touched && not (List.memq fa t.wiped_families) then
        t.wiped_families <- fa :: t.wiped_families)
    t.families;
  !n

let relearn t events =
  if t.finalized then invalid_arg "Monitor.relearn: already finalized";
  let now = sync_to_now t in
  let down = List.filter (fun w -> w.w_down) t.watchers in
  if down <> [] then begin
    let m = create () in
    let twins =
      List.map (fun w -> (w, watch ?ignore_after:w.w_ignore_after m w.w_g)) down
    in
    note_initial m t.initial;
    (* The open instant's events are in the live batch, which the
       revived watchers hear when it completes. *)
    let open_at = if t.have_batch then t.batch_time else Float.infinity in
    List.iter (fun (e : Event.t) -> if e.time < open_at then feed m e) events;
    flush m;
    List.iter
      (fun (w, twin) ->
        w.w_lt <- twin.w_lt;
        w.w_rt <- twin.w_rt;
        w.w_form <- twin.w_form;
        w.w_down <- false)
      twins;
    List.iter
      (fun fa ->
        Hashtbl.iter (fun _ inst -> inst.in_down <- false) fa.fa_instances;
        (* Verdict recomputed from the relearned windows; subscribers
           hear only genuine transitions. *)
        refresh_family t fa ~now)
      (List.rev t.wiped_families);
    t.wiped_families <- []
  end

(* --- finalize: resolve the eventually-properties --- *)

let finalize t ~horizon =
  flush t;
  if not t.finalized then begin
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
        | F_follows _ | F_metric _ | F_leq -> ())
      (List.rev t.watchers)
  end

let verdict w = { v_holds = w.w_bad = 0; v_points = w.w_points; v_violations = w.w_bad }

let family_verdicts t ~source ~target =
  match find_family t ~source ~target with
  | None -> []
  | Some fa ->
    let keys = List.sort String.compare (List.rev fa.fa_order) in
    List.concat_map
      (fun key ->
        let inst = Hashtbl.find fa.fa_instances key in
        List.map (fun w -> (w.w_g, verdict w)) inst.in_watchers)
      keys
