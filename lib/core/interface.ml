open Cm_rule

type item_pattern = Expr.t

let plain base = Expr.Item (base, [])
let family base params = Expr.Item (base, List.map (fun p -> Expr.Var p) params)

type kind =
  | Write
  | No_spontaneous_write
  | Notify
  | Conditional_notify
  | Periodic_notify
  | Read
  | Delete

let kind_to_string = function
  | Write -> "write"
  | No_spontaneous_write -> "no-spontaneous-write"
  | Notify -> "notify"
  | Conditional_notify -> "conditional-notify"
  | Periodic_notify -> "periodic-notify"
  | Read -> "read"
  | Delete -> "delete"

let tt = Expr.Const (Value.Bool true)

let step template = { Rule.guard = tt; template }

let write ?id ~delta item =
  Rule.make ?id ~delta
    ~lhs:(Template.make "WR" [ item; Expr.Var "b" ])
    (Rule.Steps [ step (Template.make "W" [ item; Expr.Var "b" ]) ])

let no_spontaneous_write ?id item =
  Rule.make ?id ~delta:0.0
    ~lhs:(Template.make "Ws" [ item; Expr.Var "b" ])
    Rule.False

let notify ?id ~delta item =
  Rule.make ?id ~delta
    ~lhs:(Template.make "Ws" [ item; Expr.Var "b" ])
    (Rule.Steps [ step (Template.make "N" [ item; Expr.Var "b" ]) ])

let conditional_notify ?id ~delta ~condition item =
  Rule.make ?id ~delta ~lhs_cond:condition
    ~lhs:(Template.make "Ws" [ item; Expr.Var "a"; Expr.Var "b" ])
    (Rule.Steps [ step (Template.make "N" [ item; Expr.Var "b" ]) ])

let relative_change_condition ~threshold =
  Expr.Binop
    ( Expr.Gt,
      Expr.Unop (Expr.Abs, Expr.Binop (Expr.Sub, Expr.Var "b", Expr.Var "a")),
      Expr.Binop (Expr.Mul, Expr.Const (Value.Float threshold), Expr.Var "a") )

let periodic_notify ?id ~period ~delta item =
  Rule.make ?id ~delta
    ~lhs_cond:(Expr.Binop (Expr.Eq, item, Expr.Var "b"))
    ~lhs:(Template.make "P" [ Expr.Const (Value.Float period) ])
    (Rule.Steps [ step (Template.make "N" [ item; Expr.Var "b" ]) ])

let read ?id ~delta item =
  Rule.make ?id ~delta
    ~lhs_cond:(Expr.Binop (Expr.Eq, item, Expr.Var "b"))
    ~lhs:(Template.make "RR" [ item ])
    (Rule.Steps [ step (Template.make "R" [ item; Expr.Var "b" ]) ])

let delete ?id ~delta item =
  Rule.make ?id ~delta
    ~lhs:(Template.make "DR" [ item ])
    (Rule.Steps [ step (Template.make "DEL" [ item ]) ])

let classify (rule : Rule.t) =
  let rhs_names =
    List.map (fun (s : Rule.step) -> s.template.Template.name) (Rule.rhs_steps rule)
  in
  match rule.lhs.Template.name, rule.rhs, rhs_names with
  | "Ws", Rule.False, _ -> Some No_spontaneous_write
  | "WR", _, [ "W" ] -> Some Write
  | "Ws", _, [ "N" ] ->
    if rule.lhs_cond = tt then Some Notify else Some Conditional_notify
  | "P", _, [ "N" ] -> Some Periodic_notify
  | "RR", _, [ "R" ] -> Some Read
  | "DR", _, [ "DEL" ] -> Some Delete
  | _ -> None

let kinds_of_rules rules =
  let kinds = List.filter_map classify rules in
  List.fold_left (fun acc k -> if List.mem k acc then acc else acc @ [ k ]) [] kinds

let served_base (rule : Rule.t) =
  match Template.item_base rule.lhs with
  | Some b -> Some b
  | None ->
    List.find_map
      (fun (s : Rule.step) -> Template.item_base s.template)
      (Rule.rhs_steps rule)

let key rule =
  match classify rule with
  | None -> None
  | Some kind -> Option.map (fun base -> (kind, base)) (served_base rule)

let restates ~declared =
  let keys = List.filter_map key declared in
  fun rule -> match key rule with Some k -> List.mem k keys | None -> false
