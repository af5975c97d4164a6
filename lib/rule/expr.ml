type unop = Neg | Not | Abs

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type t =
  | Const of Value.t
  | Var of string
  | Item of string * t list
  | Unop of unop * t
  | Binop of binop * t * t
  | Exists of string * t list
  | Wildcard

type binding = Bval of Value.t | Bitem of Item.t

module Env = Map.Make (String)

type env = binding Env.t

let empty_env = Env.empty

type state = { lookup : Item.t -> Value.t option }

let state_of_fun lookup = { lookup }

exception Eval_error of string

let error fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

let rec to_string = function
  | Const v -> Value.to_string v
  | Var x -> x
  | Item (base, []) -> base
  | Item (base, args) ->
    base ^ "(" ^ String.concat ", " (List.map to_string args) ^ ")"
  | Unop (Neg, e) -> "-" ^ atom_string e
  | Unop (Not, e) -> "!" ^ atom_string e
  (* Inner spaces keep nested bars from lexing as the "||" operator. *)
  | Unop (Abs, e) -> "| " ^ to_string e ^ " |"
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (to_string a) (binop_string op) (to_string b)
  | Exists (base, args) ->
    "E(" ^ to_string (Item (base, args)) ^ ")"
  | Wildcard -> "*"

and atom_string e =
  match e with
  | Const _ | Var _ | Item _ | Wildcard -> to_string e
  | _ -> "(" ^ to_string e ^ ")"

and binop_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

let pp fmt e = Format.pp_print_string fmt (to_string e)

let vtrue = Value.Bool true
let vfalse = Value.Bool false

(* The one interpreter.  [ev] returns a node's value and threads the
   environment through the cell [env], which changes only where a
   binding equality binds (and where a conjunction or disjunction drops
   bindings): no tuple per node, and boolean results are the shared
   [vtrue]/[vfalse]. *)
let rec ev state env expr =
  match expr with
  | Const v -> v
  | Wildcard -> error "wildcard cannot be evaluated"
  | Var x -> (
    match Env.find x !env with
    | Bval v -> v
    | Bitem it -> error "parameter %s is bound to item %s, not a value" x (Item.to_string it)
    | exception Not_found -> error "unbound parameter %s" x)
  | Item (base, args) -> (
    let item = item_of state env base args in
    match state.lookup item with
    | Some v -> v
    | None -> error "data item %s does not exist" (Item.to_string item))
  | Exists (base, args) ->
    if Option.is_some (state.lookup (item_of state env base args)) then vtrue else vfalse
  | Unop (op, e) -> (
    let v = ev state env e in
    match op with
    | Neg -> Value.neg v
    | Abs -> Value.abs v
    | Not -> if Value.truthy v then vfalse else vtrue)
  | Binop (And, a, b) ->
    (* Conjunction threads bindings left to right and short-circuits. *)
    let entry = !env in
    if cond state env a && cond state env b then vtrue
    else begin
      env := entry;
      vfalse
    end
  | Binop (Or, a, b) ->
    (* No binding escapes a disjunction: which branch held is ambiguous. *)
    let entry = !env in
    let held = cond state env a || (env := entry; cond state env b) in
    env := entry;
    if held then vtrue else vfalse
  | Binop (Eq, a, b) -> eq state env a b
  | Binop (Ne, a, b) -> if Value.truthy (eq state env a b) then vfalse else vtrue
  | Binop (op, a, b) -> (
    let va = ev state env a in
    let vb = ev state env b in
    match op with
    | Add -> Value.add va vb
    | Sub -> Value.sub va vb
    | Mul -> Value.mul va vb
    | Div -> Value.div va vb
    | Lt -> if Value.compare va vb < 0 then vtrue else vfalse
    | Le -> if Value.compare va vb <= 0 then vtrue else vfalse
    | Gt -> if Value.compare va vb > 0 then vtrue else vfalse
    | Ge -> if Value.compare va vb >= 0 then vtrue else vfalse
    | Eq | Ne | And | Or -> assert false)

and cond state env expr = Value.truthy (ev state env expr)

(* Equality doubles as a binding construct: if exactly one side is an
   unbound variable, bind it to the other side's value and succeed. *)
and eq state env a b =
  match a, b with
  | Var x, _ when not (Env.mem x !env) -> (
    match b with
    | Var y when not (Env.mem y !env) ->
      error "equality between two unbound parameters (%s)" x
    | _ -> bind env x (ev state env b))
  | _, Var y when not (Env.mem y !env) -> bind env y (ev state env a)
  | _ ->
    let va = ev state env a in
    let vb = ev state env b in
    if Value.equal va vb then vtrue else vfalse

and bind env x v =
  env := Env.add x (Bval v) !env;
  vtrue

(* Item parameters see the environment the reference was reached with;
   their bindings are dropped. *)
and item_of state env base args =
  let entry = !env in
  Item.make base
    ~params:
      (List.map
         (fun e ->
           let v = ev state env e in
           env := entry;
           v)
         args)

(* Value fails an operand of the wrong kind, or a division by zero, with
   [Invalid_argument]: one handler per call reports it as [Eval_error]. *)
let eval state env expr =
  let cell = ref env in
  match ev state cell expr with
  | v -> (v, !cell)
  | exception Invalid_argument m -> raise (Eval_error m)

let eval_cond state env expr =
  let cell = ref env in
  match cond state cell expr with
  | true -> Some !cell
  | false -> None
  | exception Invalid_argument m -> raise (Eval_error m)

let free_vars expr =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let note x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      acc := x :: !acc
    end
  in
  let rec go = function
    | Const _ | Wildcard -> ()
    | Var x -> note x
    | Item (_, args) | Exists (_, args) -> List.iter go args
    | Unop (_, e) -> go e
    | Binop (_, a, b) ->
      go a;
      go b
  in
  go expr;
  List.rev !acc

let is_template_arg = function
  | Const _ | Var _ | Wildcard -> true
  | Item (_, args) ->
    List.for_all (function Const _ | Var _ | Wildcard -> true | _ -> false) args
  | _ -> false
