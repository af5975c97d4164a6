type time = float

(* [live] lets {!pending} exclude queue entries that are already known
   to be no-ops: a cancelled periodic's next tick stays in the heap
   until its time comes, but it is not pending work. *)
type entry = { at : time; seq : int; live : unit -> bool; action : unit -> unit }

let always_live () = true

type t = {
  mutable clock : time;
  mutable seq : int;
  mutable processed : int;
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
    queue = Cm_util.Heap.create ~leq:entry_leq;
    rng = Cm_util.Prng.create ~seed;
  }

let now t = t.clock
let rng t = t.rng

let enqueue t at ~live action =
  let at = if at < t.clock then t.clock else at in
  t.seq <- t.seq + 1;
  Cm_util.Heap.add t.queue { at; seq = t.seq; live; action }

let schedule_at t at action = enqueue t at ~live:always_live action

let schedule t ~delay action =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t (t.clock +. delay) action

let every t ?start ~period action ~cancel =
  (* Written so NaN fails too: a NaN tick would re-arm at time NaN, which
     no horizon comparison ever stops. *)
  if not (period > 0.0) then invalid_arg "Sim.every: period must be positive";
  let first = match start with Some s -> s | None -> t.clock +. period in
  let live () = not (cancel ()) in
  let rec tick () =
    if not (cancel ()) then begin
      action ();
      enqueue t (t.clock +. period) ~live tick
    end
  in
  enqueue t first ~live tick

let step t =
  match Cm_util.Heap.pop t.queue with
  | None -> false
  | Some e ->
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
  Cm_util.Heap.fold (fun n e -> if e.live () then n + 1 else n) 0 t.queue
let events_processed t = t.processed
