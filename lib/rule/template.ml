type t = { name : string; args : Expr.t list }

let false_name = "FALSE"

let false_ = { name = false_name; args = [] }

let is_false t = String.equal t.name false_name

let make name args =
  let args =
    (* Paper shorthand: Ws(X, b) abbreviates Ws(X, *, b). *)
    match name, args with
    | "Ws", [ item; v ] -> [ item; Expr.Wildcard; v ]
    | _ -> args
  in
  List.iter
    (fun a ->
      if not (Expr.is_template_arg a) then
        invalid_arg
          (Printf.sprintf "Template.make: %s is not a template argument" (Expr.to_string a)))
    args;
  (match Event.known_arity name with
   | Some n when n <> List.length args ->
     invalid_arg
       (Printf.sprintf "Template.make: %s expects %d arguments, got %d" name n
          (List.length args))
   | _ -> ());
  { name; args }

(* Matching threads the environment and gives up by raising [Mismatch],
   so a match allocates only the bindings it adds and its result. *)
exception Mismatch

let match_value x v env =
  match Expr.Env.find_opt x env with
  | None -> Expr.Env.add x (Expr.Bval v) env
  | Some (Expr.Bval v') -> if Value.equal v v' then env else raise_notrace Mismatch
  | Some (Expr.Bitem _) -> raise_notrace Mismatch

let match_item_binding x item env =
  match Expr.Env.find_opt x env with
  | None -> Expr.Env.add x (Expr.Bitem item) env
  | Some (Expr.Bitem it') -> if Item.equal item it' then env else raise_notrace Mismatch
  | Some (Expr.Bval _) -> raise_notrace Mismatch

(* A template argument against a value: an event's, or an item
   parameter's, matched in place. *)
let match_scalar targ v env =
  match targ with
  | Expr.Wildcard -> env
  | Expr.Const c -> if Value.equal c v then env else raise_notrace Mismatch
  | Expr.Var x -> match_value x v env
  | Expr.Item _ | Expr.Unop _ | Expr.Binop _ | Expr.Exists _ -> raise_notrace Mismatch

let rec match_params targs vs env =
  match targs, vs with
  | [], [] -> env
  | targ :: targs, v :: vs -> match_params targs vs (match_scalar targ v env)
  | [], _ :: _ | _ :: _, [] -> raise_notrace Mismatch

let match_arg targ earg env =
  match targ, earg with
  | _, Event.Av v -> match_scalar targ v env
  | Expr.Wildcard, Event.Ai _ -> env
  | Expr.Var x, Event.Ai item -> match_item_binding x item env
  | Expr.Item (base, params), Event.Ai item ->
    if String.equal base item.Item.base then match_params params item.Item.params env
    else raise_notrace Mismatch
  | (Expr.Const _ | Expr.Unop _ | Expr.Binop _ | Expr.Exists _), Event.Ai _ ->
    raise_notrace Mismatch

let rec match_args targs eargs env =
  match targs, eargs with
  | [], [] -> env
  | targ :: targs, earg :: eargs -> match_args targs eargs (match_arg targ earg env)
  | [], _ :: _ | _ :: _, [] -> raise_notrace Mismatch

let matches t (desc : Event.desc) ~seed =
  if is_false t then None
  else if not (String.equal t.name desc.Event.name) then None
  else match match_args t.args desc.Event.args seed with
    | env -> Some env
    | exception Mismatch -> None

let instantiate_value env e =
  match e with
  | Expr.Const v -> v
  | Expr.Var x -> (
    match Expr.Env.find_opt x env with
    | Some (Expr.Bval v) -> v
    | Some (Expr.Bitem it) ->
      raise
        (Expr.Eval_error
           (Printf.sprintf "parameter %s is an item (%s), a value is required" x
              (Item.to_string it)))
    | None -> raise (Expr.Eval_error (Printf.sprintf "unbound parameter %s" x)))
  | _ ->
    raise
      (Expr.Eval_error
         (Printf.sprintf "cannot instantiate %s to a value" (Expr.to_string e)))

let instantiate_arg env e =
  match e with
  | Expr.Item (base, params) ->
    Event.Ai (Item.make base ~params:(List.map (instantiate_value env) params))
  | Expr.Var x -> (
    match Expr.Env.find_opt x env with
    | Some (Expr.Bitem it) -> Event.Ai it
    | Some (Expr.Bval v) -> Event.Av v
    | None -> raise (Expr.Eval_error (Printf.sprintf "unbound parameter %s" x)))
  | Expr.Wildcard ->
    raise (Expr.Eval_error "wildcard in a right-hand-side template")
  | e -> Event.Av (instantiate_value env e)

let instantiate t env =
  { Event.name = t.name; args = List.map (instantiate_arg env) t.args }

let item_base t =
  List.find_map
    (function Expr.Item (base, _) -> Some base | _ -> None)
    t.args

let site t locator =
  match item_base t with
  | Some base -> Some (locator (Item.make base))
  | None -> None

let free_vars t =
  let all = List.concat_map Expr.free_vars t.args in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    all

let to_string t =
  if is_false t then false_name
  else t.name ^ "(" ^ String.concat ", " (List.map Expr.to_string t.args) ^ ")"

let pp fmt t = Format.pp_print_string fmt (to_string t)
