type step = { guard : Expr.t; template : Template.t }

type rhs =
  | False
  | Steps of step list

type t = {
  id : string;
  lhs : Template.t;
  lhs_cond : Expr.t;
  delta : float;
  rhs : rhs;
}

let counter = ref 0

let fresh_id () =
  incr counter;
  "r" ^ string_of_int !counter

let make ?id ?(lhs_cond = Expr.Const (Value.Bool true)) ?(delta = infinity) ~lhs rhs =
  if delta < 0.0 then invalid_arg "Rule.make: negative delta";
  if Template.is_false lhs then invalid_arg "Rule.make: FALSE cannot be a trigger";
  (match rhs with
   | Steps [] -> invalid_arg "Rule.make: empty right-hand side"
   | False | Steps _ -> ());
  let id = match id with Some i -> i | None -> fresh_id () in
  { id; lhs; lhs_cond; delta; rhs }

let rhs_steps t = match t.rhs with False -> [] | Steps steps -> steps

let duplicate_id rules =
  let seen = Hashtbl.create 64 in
  List.find_map
    (fun r -> if Hashtbl.mem seen r.id then Some r.id else (Hashtbl.add seen r.id (); None))
    rules

let first_item_site steps locator =
  List.find_map (fun s -> Template.site s.template locator) steps

let rhs_site t locator = first_item_site (rhs_steps t) locator

let lhs_site t locator =
  match Template.site t.lhs locator with
  | Some s -> Some s
  | None -> rhs_site t locator

(* Variables a guard can *introduce*: unbound variables appearing as one
   side of a positive equality (the binding-equality convention). *)
let rec binding_vars = function
  | Expr.Binop (Expr.Eq, Expr.Var x, e) | Expr.Binop (Expr.Eq, e, Expr.Var x) ->
    x :: Expr.free_vars e
  | Expr.Binop (Expr.And, a, b) -> binding_vars a @ binding_vars b
  | _ -> []

let check_well_formed t locator =
  let ( let* ) r f = Result.bind r f in
  let steps = rhs_steps t in
  (* One site for the whole RHS. *)
  let sites =
    List.filter_map (fun s -> Template.site s.template locator) steps
    |> List.sort_uniq String.compare
  in
  let* () =
    match sites with
    | [] | [ _ ] -> Ok ()
    | many ->
      Error
        (Printf.sprintf "rule %s: right-hand side spans several sites: %s" t.id
           (String.concat ", " many))
  in
  (* Every RHS parameter must be bound when its step executes. *)
  let bound = ref (Template.free_vars t.lhs @ binding_vars t.lhs_cond) in
  let check_step i step =
    let guard_bindings = binding_vars step.guard in
    let available = guard_bindings @ !bound in
    let missing =
      List.filter
        (fun x -> not (List.mem x available))
        (Template.free_vars step.template)
    in
    bound := available;
    match missing with
    | [] -> Ok ()
    | xs ->
      Error
        (Printf.sprintf "rule %s: step %d uses unbound parameter(s) %s" t.id (i + 1)
           (String.concat ", " xs))
  in
  let rec check_all i = function
    | [] -> Ok ()
    | s :: rest ->
      let* () = check_step i s in
      check_all (i + 1) rest
  in
  check_all 0 steps

let free_vars t =
  let all =
    Template.free_vars t.lhs
    @ Expr.free_vars t.lhs_cond
    @ List.concat_map
        (fun s -> Expr.free_vars s.guard @ Template.free_vars s.template)
        (rhs_steps t)
  in
  List.sort_uniq String.compare all

let is_true_guard = function Expr.Const (Value.Bool true) -> true | _ -> false

let delta_string d = if d = infinity then "" else Printf.sprintf "[%g]" d

let to_string t =
  let lhs =
    if is_true_guard t.lhs_cond then Template.to_string t.lhs
    else Template.to_string t.lhs ^ " && " ^ Expr.to_string t.lhs_cond
  in
  let rhs =
    match t.rhs with
    | False -> "FALSE"
    | Steps steps ->
      String.concat ", "
        (List.map
           (fun s ->
             if is_true_guard s.guard then Template.to_string s.template
             else
               Printf.sprintf "(%s) ? %s" (Expr.to_string s.guard)
                 (Template.to_string s.template))
           steps)
  in
  Printf.sprintf "%s: %s ->%s %s" t.id lhs (delta_string t.delta) rhs

let pp fmt t = Format.pp_print_string fmt (to_string t)
