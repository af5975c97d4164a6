type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

(* FNV-1a over the key bytes, folded into the seed.  Hand-rolled (not
   Hashtbl.hash) so the mapping key -> stream is fixed by this file
   alone: streams derived from equal (seed, key) pairs are identical in
   every process, which is what lets two differently-sharded executions
   of one simulation agree on every draw. *)
let of_key ~seed key =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    key;
  { state = Int64.add (Int64.of_int seed) !h }

let copy t = { state = t.state }

(* splitmix64 finalizer: Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators", OOPSLA 2014. *)
let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Keep 62 bits so the value fits OCaml's 63-bit native int, non-negative. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  r mod bound

let float t bound =
  (* 53 high bits, as in the standard double construction. *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  r /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive";
  let u = ref (float t 1.0) in
  while !u = 0.0 do u := float t 1.0 done;
  -. mean *. log !u

let uniform_in t ~lo ~hi = lo +. float t (hi -. lo)

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))
