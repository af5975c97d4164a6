(* Clocks, allocation counters, sample statistics and the outside-in
   span ledger of the traced round. *)

(* Wall clock in nanoseconds.  The primitive is called directly so the
   int64 result stays unboxed: a timed call allocates nothing. *)
let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Words allocated so far: minor allocations plus blocks allocated
   directly in the major heap ([major_words] less the promoted words it
   also counts).  On OCaml 5 the minor figure of [Gc.quick_stat] moves
   in whole minor-heap steps, so it comes from [Gc.minor_words], which
   is exact. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Wall times of client calls, preallocated so recording allocates
   nothing. *)
type samples = { mutable count : int; ns : int array }

let samples capacity = { count = 0; ns = Array.make (max 1 capacity) 0 }

let record s d =
  if s.count < Array.length s.ns then begin
    s.ns.(s.count) <- d;
    s.count <- s.count + 1
  end

(* --- sample statistics --- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Quartiles by the same rule as Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so the spreads printed here are the
   ones an external reader recomputes from the raw values. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  match n with
  | 0 -> (0.0, 0.0, 0.0)
  | 1 -> (a.(0), a.(0), a.(0))
  | _ ->
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Nearest-rank percentile of the recorded call times, in ns. *)
let percentile_ns s p =
  let n = s.count in
  if n = 0 then 0.0
  else begin
    let a = Array.sub s.ns 0 n in
    Array.sort Int.compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1)))
  end

(* --- span ledger ---

   Spans are opened from the bench around calls into each layer it can
   make or wrap.  A span's self time is its duration minus its nested
   spans; step time outside every span is the [sim.other] row, so the
   rows add up to the summed step time by construction. *)

type row = Emit | Request | Exec_app | Feed | Read

let rows = [ Emit; Request; Exec_app; Feed; Read ]

let row_index = function
  | Emit -> 0
  | Request -> 1
  | Exec_app -> 2
  | Feed -> 3
  | Read -> 4

let row_name = function
  | Emit -> "shell.emit"
  | Request -> "translator.request"
  | Exec_app -> "translator.exec_app"
  | Feed -> "monitor.feed"
  | Read -> "route.read"

let max_depth = 64

type ledger = {
  self_ns : int array;
  self_words : float array;
  calls : int array;
  start_ns : int array;  (* per open span *)
  start_words : float array;
  child_ns : int array;
  child_words : float array;
  mutable depth : int;
  mutable top_ns : int;  (* depth-0 span time inside the current step *)
  mutable other_ns : int;
  mutable steps : int;
}

let create_ledger () =
  let n = List.length rows in
  {
    self_ns = Array.make n 0;
    self_words = Array.make n 0.0;
    calls = Array.make n 0;
    start_ns = Array.make max_depth 0;
    start_words = Array.make max_depth 0.0;
    child_ns = Array.make max_depth 0;
    child_words = Array.make max_depth 0.0;
    depth = 0;
    top_ns = 0;
    other_ns = 0;
    steps = 0;
  }

let enter l =
  let d = l.depth in
  if d >= max_depth then failwith "Meter: span nesting too deep";
  l.child_ns.(d) <- 0;
  l.child_words.(d) <- 0.0;
  l.depth <- d + 1;
  l.start_words.(d) <- Gc.minor_words ();
  l.start_ns.(d) <- now_ns ()

let leave l row =
  let t = now_ns () in
  let w = Gc.minor_words () in
  let d = l.depth - 1 in
  l.depth <- d;
  let dur = t - l.start_ns.(d) in
  let words = w -. l.start_words.(d) in
  let i = row_index row in
  l.self_ns.(i) <- l.self_ns.(i) + dur - l.child_ns.(d);
  l.self_words.(i) <- l.self_words.(i) +. words -. l.child_words.(d);
  l.calls.(i) <- l.calls.(i) + 1;
  if d = 0 then l.top_ns <- l.top_ns + dur
  else begin
    l.child_ns.(d - 1) <- l.child_ns.(d - 1) + dur;
    l.child_words.(d - 1) <- l.child_words.(d - 1) +. words
  end

let span l row f =
  enter l;
  match f () with
  | v ->
    leave l row;
    v
  | exception e ->
    leave l row;
    raise e

(* Drive the simulation to [until] one step at a time, timing each step
   from the end of the previous one (so the queue peek is part of the
   step); returns the wall time of the whole loop, which the ledger rows
   must match. *)
let run_steps l sim ~until =
  let module Sim = Cm_sim.Sim in
  let t_start = now_ns () in
  let rec loop t_prev =
    match Sim.next_at sim with
    | Some at when at <= until ->
      l.top_ns <- 0;
      ignore (Sim.step sim);
      let t = now_ns () in
      let d = t - t_prev in
      l.other_ns <- l.other_ns + d - l.top_ns;
      l.steps <- l.steps + 1;
      loop t
    | _ -> ()
  in
  loop t_start;
  now_ns () - t_start

let row_self_ns l row = l.self_ns.(row_index row)
let row_self_words l row = l.self_words.(row_index row)
let row_calls l row = l.calls.(row_index row)

let ledger_sum_ns l =
  List.fold_left (fun acc r -> acc + row_self_ns l r) l.other_ns rows
