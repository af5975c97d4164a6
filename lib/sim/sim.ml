type time = float

(* A periodic timer from {!every}.  At most one of its re-arms is queued
   at a time ([queued]); {!pending} asks [cancel] only of those, since a
   cancelled timer's next tick stays in the heap until its time comes
   but is not pending work. *)
type timer = { cancel : unit -> bool; mutable queued : bool }

(* [timer = None] marks an always-live entry, counted in [live]. *)
type entry = { at : time; seq : int; timer : timer option; action : unit -> unit }

type t = {
  mutable clock : time;
  mutable seq : int;
  mutable processed : int;
  mutable live : int;  (* queued always-live entries *)
  mutable timers : timer list;  (* every timer that may still re-arm *)
  queue : entry Cm_util.Heap.t;
  rng : Cm_util.Prng.t;
}

exception Stop

let entry_leq a b = a.at < b.at || (a.at = b.at && a.seq <= b.seq)

let create ?(seed = 42) () =
  {
    clock = 0.0;
    seq = 0;
    processed = 0;
    live = 0;
    timers = [];
    queue = Cm_util.Heap.create ~leq:entry_leq;
    rng = Cm_util.Prng.create ~seed;
  }

let now t = t.clock
let rng t = t.rng

let enqueue t at timer action =
  let at = if at < t.clock then t.clock else at in
  t.seq <- t.seq + 1;
  (match timer with
   | None -> t.live <- t.live + 1
   | Some tm -> tm.queued <- true);
  Cm_util.Heap.add t.queue { at; seq = t.seq; timer; action }

let schedule_at t at action = enqueue t at None action

let schedule t ~delay action =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t (t.clock +. delay) action

let every t ?start ~period action ~cancel =
  (* Written so NaN fails too: a NaN tick would re-arm at time NaN, which
     no horizon comparison ever stops. *)
  if not (period > 0.0) then invalid_arg "Sim.every: period must be positive";
  let first = match start with Some s -> s | None -> t.clock +. period in
  let tm = { cancel; queued = false } in
  let timer = Some tm in
  t.timers <- tm :: t.timers;
  let rec tick () =
    if cancel () then t.timers <- List.filter (fun x -> x != tm) t.timers
    else begin
      action ();
      enqueue t (t.clock +. period) timer tick
    end
  in
  enqueue t first timer tick

let step t =
  match Cm_util.Heap.pop t.queue with
  | None -> false
  | Some e ->
    (* Off the books before the action runs, so an action that raises
       leaves the count exact. *)
    (match e.timer with
     | None -> t.live <- t.live - 1
     | Some tm -> tm.queued <- false);
    t.clock <- e.at;
    t.processed <- t.processed + 1;
    e.action ();
    true

let run ?until t =
  let continue () =
    match Cm_util.Heap.min t.queue with
    | None -> false
    | Some e -> (
      match until with
      | Some horizon when e.at > horizon ->
        t.clock <- horizon;
        false
      | _ -> true)
  in
  try
    while continue () do
      ignore (step t)
    done;
    match until with
    | Some horizon when t.clock < horizon && Cm_util.Heap.is_empty t.queue ->
      t.clock <- horizon
    | _ -> ()
  with Stop -> ()

let advance ?(inclusive = false) t ~until =
  let continue () =
    match Cm_util.Heap.min t.queue with
    | None -> false
    | Some e -> if inclusive then e.at <= until else e.at < until
  in
  (try
     while continue () do
       ignore (step t)
     done
   with Stop -> ());
  if t.clock < until then t.clock <- until

let next_at t = Option.map (fun e -> e.at) (Cm_util.Heap.min t.queue)

let pending t =
  List.fold_left
    (fun n tm -> if tm.queued && not (tm.cancel ()) then n + 1 else n)
    t.live t.timers
let events_processed t = t.processed
