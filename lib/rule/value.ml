type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

let kind_rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

(* An int against a float, exactly — the int is never rounded, so
   equality stays transitive across kinds.  nan sorts below every
   number, where Stdlib.compare puts it among floats. *)
let compare_int_float x y =
  if Float.is_nan y then 1
  else if y >= 0x1p62 then -1
  else if y < -0x1p62 then 1
  else
    let whole = Float.trunc y in
    match Int.compare x (int_of_float whole) with 0 -> Float.compare whole y | c -> c

let compare a b =
  match a, b with
  | Null, Null -> 0
  | Bool x, Bool y -> Stdlib.compare x y
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> compare_int_float x y
  | Float x, Int y -> -compare_int_float y x
  | Str x, Str y -> Stdlib.compare x y
  | _ -> Stdlib.compare (kind_rank a) (kind_rank b)

let equal a b = compare a b = 0

(* Hashing agrees with [equal]: an int hashes as itself, and a float
   that holds an int exactly hashes as that int, so [Int 3] meets
   [Float 3.0] and [-0.0] meets [0.0]; every nan meets every other, and
   any other float hashes its bits.  Nothing here boxes a float. *)
let hash = function
  | Null -> 1
  | Bool b -> if b then 2 else 3
  | Int i -> Hashtbl.hash i
  | Float f ->
    if f >= -0x1p62 && f < 0x1p62 && Float.trunc f = f then Hashtbl.hash (int_of_float f)
    else if Float.is_nan f then 0
    else Hashtbl.hash (Int64.to_int (Int64.bits_of_float f))
  | Str s -> Hashtbl.hash s

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | v ->
    invalid_arg
      (Printf.sprintf "Value.to_float: non-numeric value (kind %d)" (kind_rank v))

let arith name f_int f_float a b =
  match a, b with
  | Int x, Int y -> Int (f_int x y)
  | (Int _ | Float _), (Int _ | Float _) -> Float (f_float (to_float a) (to_float b))
  | _ -> invalid_arg ("Value." ^ name ^ ": non-numeric operand")

let add = arith "add" ( + ) ( +. )
let sub = arith "sub" ( - ) ( -. )
let mul = arith "mul" ( * ) ( *. )

let div a b =
  match a, b with
  | (Int _ | Float _), (Int _ | Float _) ->
    let d = to_float b in
    if d = 0.0 then invalid_arg "Value.div: division by zero"
    else Float (to_float a /. d)
  | _ -> invalid_arg "Value.div: non-numeric operand"

let neg = function
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | _ -> invalid_arg "Value.neg: non-numeric operand"

let abs = function
  | Int i -> Int (Stdlib.abs i)
  | Float f -> Float (Float.abs f)
  | _ -> invalid_arg "Value.abs: non-numeric operand"

let truthy = function
  | Bool b -> b
  | Null -> false
  | _ -> invalid_arg "Value.truthy: not a boolean"

let to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> "\"" ^ String.escaped s ^ "\""  (* [%S]'s text, without Printf *)

let of_string_literal s =
  let n = String.length s in
  if n = 0 then None
  else if s = "null" then Some Null
  else if s = "true" then Some (Bool true)
  else if s = "false" then Some (Bool false)
  else if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then
    match Scanf.sscanf_opt s "%S" (fun x -> x) with
    | Some x -> Some (Str x)
    | None -> None
  else
    match int_of_string_opt s with
    | Some i -> Some (Int i)
    | None -> (
      match float_of_string_opt s with Some f -> Some (Float f) | None -> None)

let pp fmt v = Format.pp_print_string fmt (to_string v)
