(* A binary min-heap in a growable array: slot [i]'s children are
   [2i + 1] and [2i + 2].  Slots at [size] and beyond hold [dummy], so a
   popped element is no longer reachable from the heap. *)
type 'a t = {
  leq : 'a -> 'a -> bool;
  dummy : 'a;
  mutable data : 'a array;
  mutable size : int;
}

let create ~leq ~dummy = { leq; dummy; data = [||]; size = 0 }

let is_empty t = t.size = 0
let size t = t.size

(* Sift-up and sift-down move a hole, not the element: each level costs
   one store, and [x] is written once, where it lands. *)
let rec sift_up t x i =
  if i = 0 then t.data.(0) <- x
  else
    let p = (i - 1) / 2 in
    let parent = t.data.(p) in
    if t.leq parent x then t.data.(i) <- x
    else begin
      t.data.(i) <- parent;
      sift_up t x p
    end

let rec sift_down t x i =
  let l = (2 * i) + 1 in
  if l >= t.size then t.data.(i) <- x
  else
    let r = l + 1 in
    let c = if r < t.size && not (t.leq t.data.(l) t.data.(r)) then r else l in
    let child = t.data.(c) in
    if t.leq x child then t.data.(i) <- x
    else begin
      t.data.(i) <- child;
      sift_down t x c
    end

let add t x =
  if t.size = Array.length t.data then begin
    let data = Array.make (max 16 (2 * t.size)) t.dummy in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.size <- t.size + 1;
  sift_up t x (t.size - 1)

let min_exn t =
  if t.size = 0 then invalid_arg "Heap.min_exn: empty heap";
  t.data.(0)

let pop_exn t =
  let top = min_exn t in
  let n = t.size - 1 in
  let last = t.data.(n) in
  t.data.(n) <- t.dummy;
  t.size <- n;
  if n > 0 then sift_down t last 0;
  top

let clear t =
  Array.fill t.data 0 t.size t.dummy;
  t.size <- 0

let fold f acc t =
  let acc = ref acc in
  for i = 0 to t.size - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let of_list ~leq ~dummy xs =
  let t = create ~leq ~dummy in
  List.iter (add t) xs;
  t

let to_sorted_list t =
  let rec drain acc = if t.size = 0 then List.rev acc else drain (pop_exn t :: acc) in
  drain []
