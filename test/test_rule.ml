(* Tests for cm_rule: the formal rule language of the paper (§3, Appendix A). *)

open Cm_rule

let value = Alcotest.testable Value.pp Value.equal

let item name params = Item.make name ~params
let x = item "X" []
let y = item "Y" []

(* ---------- Value ---------- *)

let value_numeric_equality () =
  Alcotest.(check bool) "int=float" true (Value.equal (Value.Int 3) (Value.Float 3.0));
  Alcotest.(check bool) "int<>float" false (Value.equal (Value.Int 3) (Value.Float 3.5))

let value_arith () =
  Alcotest.check value "int add" (Value.Int 5) (Value.add (Value.Int 2) (Value.Int 3));
  Alcotest.check value "mixed add" (Value.Float 5.5)
    (Value.add (Value.Int 2) (Value.Float 3.5));
  Alcotest.check value "sub" (Value.Int (-1)) (Value.sub (Value.Int 2) (Value.Int 3));
  Alcotest.check value "mul" (Value.Int 6) (Value.mul (Value.Int 2) (Value.Int 3));
  Alcotest.check value "div" (Value.Float 2.0) (Value.div (Value.Int 6) (Value.Int 3));
  Alcotest.check value "neg" (Value.Int (-2)) (Value.neg (Value.Int 2));
  Alcotest.check value "abs" (Value.Float 2.5) (Value.abs (Value.Float (-2.5)))

let value_arith_errors () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "div by zero" true
    (raises (fun () -> Value.div (Value.Int 1) (Value.Int 0)));
  Alcotest.(check bool) "add string" true
    (raises (fun () -> Value.add (Value.Str "a") (Value.Int 1)));
  Alcotest.(check bool) "truthy int" true (raises (fun () -> Value.truthy (Value.Int 1)))

let value_ordering () =
  Alcotest.(check bool) "null < bool" true (Value.compare Value.Null (Value.Bool false) < 0);
  Alcotest.(check bool) "num < str" true (Value.compare (Value.Int 9) (Value.Str "") < 0);
  Alcotest.(check bool) "int/float order" true
    (Value.compare (Value.Int 2) (Value.Float 2.5) < 0)

let value_literals () =
  let roundtrip v = Value.of_string_literal (Value.to_string v) in
  Alcotest.(check (option value)) "int" (Some (Value.Int 42)) (roundtrip (Value.Int 42));
  Alcotest.(check (option value)) "float" (Some (Value.Float 2.5)) (roundtrip (Value.Float 2.5));
  Alcotest.(check (option value)) "bool" (Some (Value.Bool true)) (roundtrip (Value.Bool true));
  Alcotest.(check (option value)) "str" (Some (Value.Str "hi")) (roundtrip (Value.Str "hi"));
  Alcotest.(check (option value)) "null" (Some Value.Null) (roundtrip Value.Null);
  Alcotest.(check (option value)) "garbage" None (Value.of_string_literal "@!")

let value_compare_equal_consistent =
  let gen =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map (fun b -> Value.Bool b) bool;
          map (fun i -> Value.Int i) small_signed_int;
          map (fun f -> Value.Float f) (float_bound_inclusive 100.0);
          map (fun s -> Value.Str s) (small_string ~gen:printable);
        ])
  in
  let arb = QCheck.make ~print:Value.to_string gen in
  QCheck.Test.make ~name:"compare=0 iff equal" ~count:300 (QCheck.pair arb arb)
    (fun (a, b) -> Value.equal a b = (Value.compare a b = 0))

(* ---------- Item ---------- *)

let item_string () =
  Alcotest.(check string) "bare" "X" (Item.to_string x);
  Alcotest.(check string) "params" "Salary1(\"e7\")"
    (Item.to_string (item "Salary1" [ Value.Str "e7" ]))

(* Event text from one buffer equals the rendering built by
   concatenation, with strings through Printf's [%S]: values of every
   kind (strings with quotes, escapes and bytes past ASCII), items with
   0-3 parameters, 0-3 arguments. *)
let concatenated_desc_text (d : Event.desc) =
  let value = function
    | Value.Null -> "null"
    | Value.Bool b -> string_of_bool b
    | Value.Int i -> string_of_int i
    | Value.Float f -> Printf.sprintf "%g" f
    | Value.Str s -> Printf.sprintf "%S" s
  in
  let item (i : Item.t) =
    match i.Item.params with
    | [] -> i.Item.base
    | ps -> i.Item.base ^ "(" ^ String.concat ", " (List.map value ps) ^ ")"
  in
  let arg = function Event.Av v -> value v | Event.Ai i -> item i in
  d.Event.name ^ "(" ^ String.concat ", " (List.map arg d.Event.args) ^ ")"

let desc_text_matches_concatenation =
  let gen_value =
    QCheck.Gen.(
      oneof
        [ return Value.Null;
          map (fun b -> Value.Bool b) bool;
          map (fun i -> Value.Int i) int;
          map (fun f -> Value.Float f) float;
          oneofl (List.map (fun f -> Value.Float f) [ nan; infinity; -0.0; 1e-300; 0.1 ]);
          map (fun s -> Value.Str s) (string_size ~gen:char (int_range 0 6));
          oneofl
            (List.map (fun s -> Value.Str s)
               [ "\\"; "say \"hi\""; "a\\b"; "tab\there\n"; "\xff\x00"; "" ]) ])
  in
  let gen_item =
    QCheck.Gen.(
      map2 (fun base params -> Item.make base ~params)
        (oneofl [ "X"; "Salary1"; "" ]) (list_size (int_range 0 3) gen_value))
  in
  let gen_desc =
    QCheck.Gen.(
      map2
        (fun name args -> { Event.name; args })
        (oneofl [ "W"; "Ws"; "N"; "Custom_1" ])
        (list_size (int_range 0 3)
           (oneof
              [ map (fun v -> Event.Av v) gen_value; map (fun i -> Event.Ai i) gen_item ])))
  in
  QCheck.Test.make ~name:"event text = concatenation" ~count:2000
    (QCheck.make ~print:concatenated_desc_text gen_desc)
    (fun d -> String.equal (Event.desc_to_string d) (concatenated_desc_text d))

let item_equality () =
  Alcotest.(check bool) "same" true
    (Item.equal (item "A" [ Value.Int 1 ]) (item "A" [ Value.Int 1 ]));
  Alcotest.(check bool) "diff params" false
    (Item.equal (item "A" [ Value.Int 1 ]) (item "A" [ Value.Int 2 ]));
  Alcotest.(check bool) "diff base" false (Item.equal x y)

(* ---------- hashing agrees with equality ---------- *)

(* Numbers whose equality is easy to get wrong in a hash: signed zeros,
   nans of either sign, ints a float cannot hold exactly, the ends of
   the int range. *)
let awkward_values =
  let two53 = 1 lsl 53 in
  [ Value.Null; Value.Bool true; Value.Bool false; Value.Str ""; Value.Str "0";
    Value.Int 0; Value.Float 0.0; Value.Float (-0.0); Value.Float Float.nan;
    Value.Float (-.Float.nan); Value.Int 3; Value.Float 3.0; Value.Float 0.5;
    Value.Int max_int; Value.Float (float_of_int max_int); Value.Int min_int;
    Value.Float (float_of_int min_int); Value.Int (two53 + 1); Value.Int two53;
    Value.Float (float_of_int two53); Value.Float Float.infinity;
    Value.Float Float.neg_infinity ]

(* A value equal to [v] in another representation, where there is one:
   an int has a float twin only when a float holds it exactly. *)
let twin = function
  | Value.Int i
    when let f = float_of_int i in
         f >= -0x1p62 && f < 0x1p62 && int_of_float f = i ->
    Value.Float (float_of_int i)
  | Value.Float f when Float.is_integer f && Float.abs f < 0x1p62 -> Value.Int (int_of_float f)
  | Value.Float f when Float.is_nan f || f = 0.0 -> Value.Float (-.f)
  | v -> v

let gen_hash_value =
  QCheck.Gen.(
    oneof
      [ oneofl awkward_values;
        map (fun i -> Value.Int i) small_signed_int;
        map (fun i -> Value.Float (float_of_int i)) small_signed_int ])

(* Pairs that are often equal: a value and, half the time, its twin. *)
let gen_hash_pair gen twin =
  QCheck.Gen.(
    gen >>= fun a -> map (fun b -> (a, b)) (oneof [ return (twin a); gen ]))

let value_hash_agrees =
  let print (a, b) = Value.to_string a ^ " / " ^ Value.to_string b in
  QCheck.Test.make ~name:"equal values hash alike" ~count:2000
    (QCheck.make ~print (gen_hash_pair gen_hash_value twin))
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let item_hash_agrees =
  let gen_item =
    QCheck.Gen.(
      map2 (fun base params -> Item.make base ~params)
        (oneofl [ "X"; "Y" ]) (list_size (int_range 0 3) gen_hash_value))
  in
  let twin_item (it : Item.t) = Item.make it.Item.base ~params:(List.map twin it.Item.params) in
  let print (a, b) = Item.to_string a ^ " / " ^ Item.to_string b in
  QCheck.Test.make ~name:"equal items hash alike" ~count:2000
    (QCheck.make ~print (gen_hash_pair gen_item twin_item))
    (fun (a, b) -> (not (Item.equal a b)) || Item.hash a = Item.hash b)

let hash_pairs () =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Value.equal a b && Value.hash a <> Value.hash b then
            Alcotest.failf "%s = %s but their hashes differ" (Value.to_string a)
              (Value.to_string b);
          if Value.compare a b <> -Value.compare b a then
            Alcotest.failf "%s and %s compare asymmetrically" (Value.to_string a)
              (Value.to_string b);
          (* Equality is transitive: 2^53 + 1 must not meet 2^53 through
             the float both round to. *)
          List.iter
            (fun c ->
              if Value.equal a b && Value.equal b c && not (Value.equal a c) then
                Alcotest.failf "%s = %s = %s but %s <> %s" (Value.to_string a)
                  (Value.to_string b) (Value.to_string c) (Value.to_string a)
                  (Value.to_string c))
            awkward_values)
        awkward_values)
    awkward_values;
  let x0 = item "X" [ Value.Float (-0.0) ] and x0' = item "X" [ Value.Float 0.0 ] in
  Alcotest.(check bool) "X(-0.0) = X(0.0)" true (Item.equal x0 x0');
  Alcotest.(check int) "X(-0.0) and X(0.0) hash alike" (Item.hash x0) (Item.hash x0')

let hash_allocates_nothing () =
  let items = List.map (fun v -> item "Salary" [ v; Value.Int 7 ]) awkward_values in
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    List.iter (fun v -> ignore (Sys.opaque_identity (Value.hash v))) awkward_values;
    List.iter (fun it -> ignore (Sys.opaque_identity (Item.hash it))) items
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) (Printf.sprintf "4 400 hashes allocate < 100 words (%.0f)" words) true
    (words < 100.0)

(* ---------- Expr ---------- *)

let no_items = Expr.state_of_fun (fun _ -> None)

let state_of bindings =
  Expr.state_of_fun (fun it ->
      List.find_map (fun (i, v) -> if Item.equal i it then Some v else None) bindings)

let eval_value ?(state = no_items) ?(env = Expr.empty_env) e =
  fst (Expr.eval state env e)

let expr_arith () =
  let e = Parser.parse_expr "2 + 3 * 4" in
  Alcotest.check value "precedence" (Value.Int 14) (eval_value e);
  let e = Parser.parse_expr "(2 + 3) * 4" in
  Alcotest.check value "parens" (Value.Int 20) (eval_value e);
  let e = Parser.parse_expr "|2 - 5|" in
  Alcotest.check value "abs" (Value.Int 3) (eval_value e);
  let e = Parser.parse_expr "-2 + 1" in
  Alcotest.check value "unary minus" (Value.Int (-1)) (eval_value e)

let expr_comparisons () =
  let t s = Alcotest.check value s (Value.Bool true) (eval_value (Parser.parse_expr s)) in
  let f s = Alcotest.check value s (Value.Bool false) (eval_value (Parser.parse_expr s)) in
  t "1 < 2";
  t "2 <= 2";
  t "3 > 2";
  t "3 >= 3";
  t "2 == 2";
  t "2 != 3";
  f "2 < 1";
  f "2 != 2";
  t "1 < 2 && 2 < 3";
  f "1 < 2 && 3 < 2";
  t "1 > 2 || 2 < 3";
  t "!(1 > 2)"

let expr_item_lookup () =
  let state = state_of [ (x, Value.Int 7) ] in
  let e = Parser.parse_expr "X + 1" in
  Alcotest.check value "item value" (Value.Int 8) (eval_value ~state e)

let expr_missing_item () =
  let e = Parser.parse_expr "X + 1" in
  Alcotest.(check bool) "raises" true
    (try ignore (eval_value e); false with Expr.Eval_error _ -> true)

let expr_exists () =
  let state = state_of [ (x, Value.Int 7) ] in
  Alcotest.check value "exists" (Value.Bool true)
    (eval_value ~state (Parser.parse_expr "E(X)"));
  Alcotest.check value "not exists" (Value.Bool false)
    (eval_value ~state (Parser.parse_expr "E(Y)"))

let expr_binding_equality () =
  (* X == b with b unbound binds b to the current value of X — the
     mechanism behind the paper's read and periodic-notify interfaces. *)
  let state = state_of [ (x, Value.Int 42) ] in
  match Expr.eval_cond state Expr.empty_env (Parser.parse_expr "X == b") with
  | None -> Alcotest.fail "binding equality should succeed"
  | Some env -> (
    match Expr.Env.find_opt "b" env with
    | Some (Expr.Bval v) -> Alcotest.check value "bound" (Value.Int 42) v
    | _ -> Alcotest.fail "b not bound to a value")

let expr_binding_threads_through_and () =
  let state = state_of [ (x, Value.Int 10) ] in
  match Expr.eval_cond state Expr.empty_env (Parser.parse_expr "X == b && b > 5") with
  | None -> Alcotest.fail "should hold"
  | Some _ -> ()

let expr_no_binding_under_or () =
  let state = state_of [ (x, Value.Int 10) ] in
  match Expr.eval_cond state Expr.empty_env (Parser.parse_expr "(X == b) || (X == b)") with
  | None -> Alcotest.fail "disjunction should hold"
  | Some env ->
    Alcotest.(check bool) "no binding escapes" true (not (Expr.Env.mem "b" env))

let expr_bound_var_equality_checks () =
  let env = Expr.Env.add "b" (Expr.Bval (Value.Int 3)) Expr.empty_env in
  let state = no_items in
  Alcotest.(check bool) "matches" true
    (Expr.eval_cond state env (Parser.parse_expr "b == 3") <> None);
  Alcotest.(check bool) "mismatch" true
    (Expr.eval_cond state env (Parser.parse_expr "b == 4") = None)

let expr_free_vars () =
  let e = Parser.parse_expr "a + X(b) * c + a" in
  Alcotest.(check (list string)) "first-occurrence order" [ "a"; "b"; "c" ]
    (Expr.free_vars e)

let expr_conditional_notify_condition () =
  (* |b - a| > 0.1 * a, the paper's 10%-change filter (§3.1.1). *)
  let cond = Parser.parse_expr "|b - a| > 0.1 * a" in
  let env old_v new_v =
    Expr.Env.add "a" (Expr.Bval (Value.Float old_v))
      (Expr.Env.add "b" (Expr.Bval (Value.Float new_v)) Expr.empty_env)
  in
  Alcotest.(check bool) "big change passes" true
    (Expr.eval_cond no_items (env 100.0 120.0) cond <> None);
  Alcotest.(check bool) "small change filtered" true
    (Expr.eval_cond no_items (env 100.0 105.0) cond = None)

(* ---------- the evaluator against its reference ---------- *)

(* The evaluator as it was when it threaded a (value, environment) pair
   through every node: the reference for what the allocation-light
   evaluator computes — values, bindings and error messages. *)
module Reference = struct
  open Expr

  let error fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

  let rec eval state env expr =
    match expr with
    | Const v -> (v, env)
    | Wildcard -> error "wildcard cannot be evaluated"
    | Var x -> (
      match Env.find_opt x env with
      | Some (Bval v) -> (v, env)
      | Some (Bitem it) ->
        error "parameter %s is bound to item %s, not a value" x (Item.to_string it)
      | None -> error "unbound parameter %s" x)
    | Item (base, args) -> (
      let item = eval_item state env (base, args) in
      match state.lookup item with
      | Some v -> (v, env)
      | None -> error "data item %s does not exist" (Item.to_string item))
    | Exists (base, args) ->
      let item = eval_item state env (base, args) in
      (Value.Bool (state.lookup item <> None), env)
    | Unop (op, e) ->
      let v, env = eval state env e in
      let r =
        match op with
        | Neg -> Value.neg v
        | Abs -> Value.abs v
        | Not -> Value.Bool (not (Value.truthy v))
      in
      (r, env)
    | Binop (And, a, b) -> (
      match eval_cond state env a with
      | None -> (Value.Bool false, env)
      | Some env' -> (
        match eval_cond state env' b with
        | None -> (Value.Bool false, env)
        | Some env'' -> (Value.Bool true, env'')))
    | Binop (Or, a, b) -> (
      match eval_cond state env a with
      | Some _ -> (Value.Bool true, env)
      | None -> (
        match eval_cond state env b with
        | Some _ -> (Value.Bool true, env)
        | None -> (Value.Bool false, env)))
    | Binop (Eq, a, b) -> eval_eq state env a b
    | Binop (Ne, a, b) ->
      let r, env = eval_eq state env a b in
      (Value.Bool (not (Value.truthy r)), env)
    | Binop (op, a, b) ->
      let va, env = eval state env a in
      let vb, env = eval state env b in
      let r =
        match op with
        | Add -> Value.add va vb
        | Sub -> Value.sub va vb
        | Mul -> Value.mul va vb
        | Div -> Value.div va vb
        | Lt -> Value.Bool (Value.compare va vb < 0)
        | Le -> Value.Bool (Value.compare va vb <= 0)
        | Gt -> Value.Bool (Value.compare va vb > 0)
        | Ge -> Value.Bool (Value.compare va vb >= 0)
        | Eq | Ne | And | Or -> assert false
      in
      (r, env)

  and eval_eq state env a b =
    let unbound = function Var x when not (Env.mem x env) -> Some x | _ -> None in
    match unbound a, unbound b with
    | Some x, None ->
      let v, env = eval state env b in
      (Value.Bool true, Env.add x (Bval v) env)
    | None, Some x ->
      let v, env = eval state env a in
      (Value.Bool true, Env.add x (Bval v) env)
    | Some x, Some _ -> error "equality between two unbound parameters (%s)" x
    | None, None ->
      let va, env = eval state env a in
      let vb, env = eval state env b in
      (Value.Bool (Value.equal va vb), env)

  and eval_cond state env expr =
    let v, env' = eval state env expr in
    if Value.truthy v then Some env' else None

  and eval_item state env (base, args) =
    Item.make base ~params:(List.map (fun e -> fst (eval state env e)) args)
end

(* Expressions over three parameters, local reads of K(..) and E(..),
   every operator, and constants of every kind. *)
let gen_eval_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun i -> Expr.Const (Value.Int i)) (int_range 0 4);
        oneofl
          [ Expr.Const (Value.Float 1.0); Expr.Const (Value.Float Float.nan);
            Expr.Const (Value.Bool true); Expr.Const (Value.Bool false);
            Expr.Const Value.Null; Expr.Const (Value.Str "s"); Expr.Var "a";
            Expr.Var "b"; Expr.Var "c"; Expr.Var "d"; Expr.Item ("K", []); Expr.Wildcard ] ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          ( 4,
            map3
              (fun op a b -> Expr.Binop (op, a, b))
              (oneofl Expr.[ Add; Sub; Mul; Div; Eq; Eq; Ne; Lt; Le; Gt; Ge; And; And; Or ])
              (go (depth - 1)) (go (depth - 1)) );
          ( 1,
            map2 (fun op e -> Expr.Unop (op, e)) (oneofl Expr.[ Neg; Not; Abs ]) (go (depth - 1)) );
          (1, map (fun e -> Expr.Item ("K", [ e ])) (go (depth - 1)));
          (1, map (fun e -> Expr.Exists ("K", [ e ])) (go (depth - 1))) ]
  in
  go 4

(* [a] bound to a value, [b] to an item, [c] and [d] unbound. *)
let eval_env =
  Expr.Env.(
    empty |> add "a" (Expr.Bval (Value.Int 2)) |> add "b" (Expr.Bitem (Item.make "X")))

let eval_state =
  Expr.state_of_fun (fun it ->
      match it.Item.params with
      | [] -> Some (Value.Int 1)
      | [ Value.Int i ] when i < 3 -> Some (Value.Int (i + 1))
      | _ -> None)

type eval_outcome =
  | Holds of Value.t * (string * Expr.binding) list
  | Eval_failed of string
  | Invalid of string

let outcome f =
  match f () with
  | v, env -> Holds (v, Expr.Env.bindings env)
  | exception Expr.Eval_error m -> Eval_failed m
  | exception Invalid_argument m -> Invalid m

(* Expr.eval reports every failure as [Eval_error], including the
   operand-kind and division failures Value raises as
   [Invalid_argument] (which the reference lets through). *)
let eval_matches_reference =
  QCheck.Test.make ~name:"eval = reference (values, bindings, errors)" ~count:3000
    (QCheck.make ~print:Expr.to_string gen_eval_expr)
    (fun e ->
      compare
        (outcome (fun () -> Expr.eval eval_state eval_env e))
        (outcome (fun () ->
             try Reference.eval eval_state eval_env e
             with Invalid_argument m -> raise (Expr.Eval_error m)))
      = 0)

(* ---------- Template matching ---------- *)

let match_env tpl desc = Template.matches tpl desc ~seed:Expr.empty_env

let template_matches_concrete () =
  let tpl = Parser.parse_template "W(X, b)" in
  (match match_env tpl (Event.w x (Value.Int 5)) with
   | Some env -> (
     match Expr.Env.find_opt "b" env with
     | Some (Expr.Bval v) -> Alcotest.check value "b bound" (Value.Int 5) v
     | _ -> Alcotest.fail "b unbound")
   | None -> Alcotest.fail "should match");
  Alcotest.(check bool) "wrong item" true (match_env tpl (Event.w y (Value.Int 5)) = None);
  Alcotest.(check bool) "wrong name" true (match_env tpl (Event.n x (Value.Int 5)) = None)

let template_ws_shorthand () =
  (* Ws(X, b) is shorthand for Ws(X, *, b). *)
  let tpl = Parser.parse_template "Ws(X, b)" in
  let desc = Event.ws ~old:(Value.Int 1) x (Value.Int 2) in
  match match_env tpl desc with
  | Some env -> (
    match Expr.Env.find_opt "b" env with
    | Some (Expr.Bval v) -> Alcotest.check value "b is new value" (Value.Int 2) v
    | _ -> Alcotest.fail "b unbound")
  | None -> Alcotest.fail "shorthand should match 3-arg event"

let template_parameterized_item () =
  let tpl = Parser.parse_template "N(Phone(n), b)" in
  let it = item "Phone" [ Value.Str "ann" ] in
  match match_env tpl (Event.n it (Value.Int 555)) with
  | Some env ->
    (match Expr.Env.find_opt "n" env with
     | Some (Expr.Bval v) -> Alcotest.check value "n bound" (Value.Str "ann") v
     | _ -> Alcotest.fail "n unbound")
  | None -> Alcotest.fail "parameterized item should match"

let template_repeated_var_consistency () =
  let tpl = Parser.parse_template "W(X, b)" in
  let seed = Expr.Env.add "b" (Expr.Bval (Value.Int 9)) Expr.empty_env in
  Alcotest.(check bool) "consistent" true
    (Template.matches tpl (Event.w x (Value.Int 9)) ~seed <> None);
  Alcotest.(check bool) "inconsistent" true
    (Template.matches tpl (Event.w x (Value.Int 8)) ~seed = None)

let template_constant_arg () =
  let tpl = Parser.parse_template "W(X, 5)" in
  Alcotest.(check bool) "matches 5" true (match_env tpl (Event.w x (Value.Int 5)) <> None);
  Alcotest.(check bool) "rejects 6" true (match_env tpl (Event.w x (Value.Int 6)) = None)

let template_wildcard () =
  let tpl = Parser.parse_template "W(X, *)" in
  Alcotest.(check bool) "any value" true (match_env tpl (Event.w x (Value.Str "z")) <> None)

let template_var_binds_item () =
  (* A bare parameter in item position captures the item itself. *)
  let tpl = Template.make "W" [ Expr.Var "i"; Expr.Var "b" ] in
  match match_env tpl (Event.w x (Value.Int 1)) with
  | Some env -> (
    match Expr.Env.find_opt "i" env with
    | Some (Expr.Bitem it) -> Alcotest.(check string) "item" "X" (Item.to_string it)
    | _ -> Alcotest.fail "i should bind the item")
  | None -> Alcotest.fail "should match"

let template_false_matches_nothing () =
  Alcotest.(check bool) "false" true
    (Template.matches Template.false_ (Event.w x (Value.Int 1)) ~seed:Expr.empty_env = None)

let template_instantiate () =
  let tpl = Parser.parse_template "WR(Salary2(n), b)" in
  let env =
    Expr.Env.add "n" (Expr.Bval (Value.Str "e1"))
      (Expr.Env.add "b" (Expr.Bval (Value.Int 90)) Expr.empty_env)
  in
  let desc = Template.instantiate tpl env in
  Alcotest.(check string) "instantiated" "WR(Salary2(\"e1\"), 90)"
    (Event.desc_to_string desc)

let template_instantiate_unbound () =
  let tpl = Parser.parse_template "WR(Y, b)" in
  Alcotest.(check bool) "raises" true
    (try ignore (Template.instantiate tpl Expr.empty_env); false
     with Expr.Eval_error _ -> true)

let template_arity_checked () =
  Alcotest.(check bool) "W/3 rejected" true
    (try ignore (Template.make "W" [ Expr.Var "a"; Expr.Var "b"; Expr.Var "c" ]); false
     with Invalid_argument _ -> true)

(* ---------- Parser ---------- *)

let parser_roundtrip () =
  let texts =
    [
      "WR(X, b) ->[5] W(X, b)";
      "Ws(X, b) -> FALSE";
      "Ws(X, a, b) && |b - a| > 0.1 * a ->[2] N(X, b)";
      "P(300) && X == b ->[1] N(X, b)";
      "RR(X) && X == b ->[1] R(X, b)";
      "N(Salary1(n), b) ->[5] WR(Salary2(n), b)";
      "N(X, b) ->[5] (Cx != b) ? WR(Y, b), W(Cx, b)";
      "P(60) ->[1] RR(X)";
    ]
  in
  List.iter
    (fun text ->
      let r = Parser.parse_rule text in
      (* Reparse the printed form; it must parse to an equal structure. *)
      let r2 = Parser.parse_rule (Rule.to_string r) in
      Alcotest.(check string) text (Rule.to_string r) (Rule.to_string r2))
    texts

let parser_labels () =
  let r = Parser.parse_rule "myrule: WR(X, b) ->[5] W(X, b)" in
  Alcotest.(check string) "label used as id" "myrule" r.Rule.id

let parser_delta () =
  let r = Parser.parse_rule "WR(X, b) ->[2.5] W(X, b)" in
  Alcotest.(check (float 1e-9)) "delta" 2.5 r.Rule.delta;
  let r = Parser.parse_rule "WR(X, b) -> W(X, b)" in
  Alcotest.(check bool) "unbounded" true (r.Rule.delta = infinity)

let parser_multiple_rules () =
  let rules = Parser.parse_rules "a: P(60) ->[1] RR(X)\nb: R(X, v) ->[1] WR(Y, v)" in
  Alcotest.(check int) "two rules" 2 (List.length rules);
  Alcotest.(check (list string)) "ids" [ "a"; "b" ]
    (List.map (fun r -> r.Rule.id) rules)

let parser_comments () =
  let rules = Parser.parse_rules "# a comment\nP(60) ->[1] RR(X) # trailing\n# end" in
  Alcotest.(check int) "one rule" 1 (List.length rules)

let parser_errors () =
  let fails s = try ignore (Parser.parse_rules s); false with Parser.Parse_error _ -> true in
  Alcotest.(check bool) "missing arrow" true (fails "W(X, b) W(Y, b)");
  Alcotest.(check bool) "garbage" true (fails "@@@");
  Alcotest.(check bool) "FALSE trigger" true (fails "FALSE -> W(X, 1)");
  Alcotest.(check bool) "unclosed paren" true (fails "W(X, b ->[1] W(Y, b)");
  Alcotest.(check bool) "bad arity" true (fails "RR(X, b) ->[1] R(X, b)")

(* An integer literal outside the native int range is a located parse
   error, not an uncaught [Failure "int_of_string"]. *)
let parser_int_out_of_range () =
  match Parser.parse_rules "N(X, b) ->[1] W(Y, b)\nW(X, 99999999999999999999) ->[1] W(Y, 1)" with
  | _ -> Alcotest.fail "out-of-range literal accepted"
  | exception Parser.Parse_error { line; _ } -> Alcotest.(check int) "line" 2 line

let parser_ws_two_arg_normalized () =
  let r = Parser.parse_rule "Ws(X, b) ->[2] N(X, b)" in
  Alcotest.(check int) "3 args after normalization" 3
    (List.length r.Rule.lhs.Template.args)

(* ---------- Rule static checks ---------- *)

let locator_ab it =
  match it.Item.base with
  | "X" | "Salary1" -> "siteA"
  | _ -> "siteB"

let rule_sites () =
  let r = Parser.parse_rule "N(Salary1(n), b) ->[5] WR(Salary2(n), b)" in
  Alcotest.(check (option string)) "lhs site" (Some "siteA") (Rule.lhs_site r locator_ab);
  Alcotest.(check (option string)) "rhs site" (Some "siteB") (Rule.rhs_site r locator_ab)

let rule_polling_site_is_rhs () =
  let r = Parser.parse_rule "P(60) ->[1] RR(X)" in
  Alcotest.(check (option string)) "assigned to polled item's site" (Some "siteA")
    (Rule.lhs_site r locator_ab)

let rule_well_formed_ok () =
  let r = Parser.parse_rule "N(X, b) ->[5] WR(Y, b)" in
  Alcotest.(check bool) "ok" true (Rule.check_well_formed r locator_ab = Ok ())

let rule_rhs_multi_site_rejected () =
  let r = Parser.parse_rule "N(X, b) ->[5] WR(X, b), WR(Y, b)" in
  Alcotest.(check bool) "rejected" true (Rule.check_well_formed r locator_ab <> Ok ())

let rule_unbound_rhs_var_rejected () =
  let r = Parser.parse_rule "N(X, b) ->[5] WR(Y, c)" in
  Alcotest.(check bool) "rejected" true (Rule.check_well_formed r locator_ab <> Ok ())

let rule_binding_cond_provides_var () =
  let r = Parser.parse_rule "RR(X) && X == b ->[1] R(X, b)" in
  Alcotest.(check bool) "b provided by condition" true
    (Rule.check_well_formed r locator_ab = Ok ())

(* ---------- Trace / Timeline ---------- *)

let trace_records_in_order () =
  let tr = Trace.create () in
  let e1 = Trace.record tr ~time:1.0 ~site:"s" (Event.w x (Value.Int 1)) in
  let e2 = Trace.record tr ~time:2.0 ~site:"s" (Event.w x (Value.Int 2)) in
  Alcotest.(check int) "ids sequential" 1 (e2.Event.id - e1.Event.id);
  Alcotest.(check int) "length" 2 (Trace.length tr);
  Alcotest.(check bool) "find" true (Trace.find tr e1.Event.id = Some e1);
  Alcotest.(check bool) "time regression rejected" true
    (try ignore (Trace.record tr ~time:1.5 ~site:"s" (Event.w x (Value.Int 3))); false
     with Invalid_argument _ -> true)

let trace_queries () =
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:1.0 ~site:"s" (Event.w x (Value.Int 1)));
  ignore (Trace.record tr ~time:2.0 ~site:"s" (Event.n y (Value.Int 2)));
  ignore (Trace.record tr ~time:3.0 ~site:"s" (Event.w x (Value.Int 3)));
  Alcotest.(check int) "named W" 2 (List.length (Trace.named tr "W"));
  Alcotest.(check int) "on_item X" 2 (List.length (Trace.on_item tr x));
  Alcotest.(check (float 1e-9)) "last_time" 3.0 (Trace.last_time tr)

let timeline_reconstruction () =
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:1.0 ~site:"s" (Event.w x (Value.Int 1)));
  ignore (Trace.record tr ~time:5.0 ~site:"s" (Event.ws x (Value.Int 2)));
  let tl = Timeline.of_trace tr in
  Alcotest.(check (option value)) "before first" None (Timeline.value_at tl x 0.5);
  Alcotest.(check (option value)) "at write" (Some (Value.Int 1)) (Timeline.value_at tl x 1.0);
  Alcotest.(check (option value)) "between" (Some (Value.Int 1)) (Timeline.value_at tl x 3.0);
  Alcotest.(check (option value)) "after" (Some (Value.Int 2)) (Timeline.value_at tl x 9.0)

let timeline_initial_state () =
  let tr = Trace.create () in
  let tl = Timeline.of_trace ~initial:[ (x, Value.Int 7) ] tr in
  Alcotest.(check (option value)) "initial" (Some (Value.Int 7)) (Timeline.value_at tl x 0.0)

let timeline_existence () =
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:1.0 ~site:"s" (Event.ins x));
  ignore (Trace.record tr ~time:2.0 ~site:"s" (Event.w x (Value.Int 5)));
  ignore (Trace.record tr ~time:3.0 ~site:"s" (Event.del x));
  let tl = Timeline.of_trace tr in
  Alcotest.(check bool) "absent before" false (Timeline.exists_at tl x 0.5);
  Alcotest.(check bool) "exists after ins" true (Timeline.exists_at tl x 1.5);
  Alcotest.(check (option value)) "value" (Some (Value.Int 5)) (Timeline.value_at tl x 2.5);
  Alcotest.(check bool) "deleted" false (Timeline.exists_at tl x 3.5)

let timeline_values_taken () =
  let tr = Trace.create () in
  List.iter
    (fun (t, v) -> ignore (Trace.record tr ~time:t ~site:"s" (Event.w x (Value.Int v))))
    [ (1.0, 1); (2.0, 1); (3.0, 2); (4.0, 1) ];
  let tl = Timeline.of_trace tr in
  Alcotest.(check (list (pair (float 1e-9) value))) "collapsed"
    [ (1.0, Value.Int 1); (3.0, Value.Int 2); (4.0, Value.Int 1) ]
    (Timeline.values_taken tl x)

(* ---------- Validity ---------- *)

let simple_locator it = if it.Item.base = "X" then "A" else "B"

let propagation_rules () =
  Parser.parse_rules
    {|notify: Ws(X, b) ->[2] N(X, b)
      prop:   N(X, b) ->[5] WR(Y, b)
      write:  WR(Y, b) ->[3] W(Y, b)|}

let record_chain tr ~t0 ~lag v =
  (* One full propagation chain: Ws -> N -> WR -> W, each step [lag] apart. *)
  let ws = Trace.record tr ~time:t0 ~site:"A" (Event.ws x (Value.Int v)) in
  let n =
    Trace.record tr ~time:(t0 +. lag) ~site:"A"
      ~kind:(Event.Generated { rule_id = "notify"; trigger = ws.Event.id })
      (Event.n x (Value.Int v))
  in
  let wr =
    Trace.record tr ~time:(t0 +. (2.0 *. lag)) ~site:"B"
      ~kind:(Event.Generated { rule_id = "prop"; trigger = n.Event.id })
      (Event.wr y (Value.Int v))
  in
  ignore
    (Trace.record tr ~time:(t0 +. (3.0 *. lag)) ~site:"B"
       ~kind:(Event.Generated { rule_id = "write"; trigger = wr.Event.id })
       (Event.w y (Value.Int v)))

let validity_accepts_correct_chain () =
  let tr = Trace.create () in
  record_chain tr ~t0:1.0 ~lag:0.5 10;
  record_chain tr ~t0:20.0 ~lag:0.5 11;
  let violations =
    Validity.check ~rules:(propagation_rules ()) ~locator:simple_locator tr
  in
  Alcotest.(check (list string)) "no violations" []
    (List.map Validity.violation_to_string violations)

let validity_detects_missing_response () =
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:1.0 ~site:"A" (Event.ws x (Value.Int 1)));
  (* Nothing follows; deadline for notify is 3.0.  Give the trace a later
     event so the horizon passes the deadline. *)
  ignore (Trace.record tr ~time:50.0 ~site:"A" (Event.p 60.0));
  let violations =
    Validity.check ~rules:(propagation_rules ()) ~locator:simple_locator tr
  in
  Alcotest.(check bool) "missing response detected" true
    (List.exists (function Validity.Missing_response _ -> true | _ -> false) violations)

let validity_pending_not_reported () =
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:1.0 ~site:"A" (Event.ws x (Value.Int 1)));
  (* Horizon 1.0 precedes the notify deadline of 3.0: no violation yet. *)
  let violations =
    Validity.check ~rules:(propagation_rules ()) ~locator:simple_locator tr
  in
  Alcotest.(check (list string)) "nothing pending reported" []
    (List.map Validity.violation_to_string violations)

let validity_detects_bound_exceeded () =
  let tr = Trace.create () in
  let ws = Trace.record tr ~time:1.0 ~site:"A" (Event.ws x (Value.Int 1)) in
  ignore
    (Trace.record tr ~time:9.0 ~site:"A"
       ~kind:(Event.Generated { rule_id = "notify"; trigger = ws.Event.id })
       (Event.n x (Value.Int 1)));
  ignore (Trace.record tr ~time:60.0 ~site:"A" (Event.p 60.0));
  let violations =
    Validity.check ~rules:[ List.hd (propagation_rules ()) ] ~locator:simple_locator tr
  in
  Alcotest.(check bool) "bound exceeded (metric)" true
    (List.exists
       (function Validity.Bound_exceeded _ as v -> Validity.is_metric v | _ -> false)
       violations)

let validity_detects_prohibited () =
  let rules = Parser.parse_rules "nospont: Ws(X, b) -> FALSE" in
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:1.0 ~site:"A" (Event.ws x (Value.Int 1)));
  let violations = Validity.check ~rules ~locator:simple_locator tr in
  Alcotest.(check bool) "prohibited (logical)" true
    (List.exists
       (function Validity.Prohibited _ as v -> not (Validity.is_metric v) | _ -> false)
       violations)

let validity_detects_bad_provenance () =
  let tr = Trace.create () in
  let ws = Trace.record tr ~time:1.0 ~site:"A" (Event.ws x (Value.Int 1)) in
  (* N carries a different value than the triggering write: no RHS match. *)
  ignore
    (Trace.record tr ~time:2.0 ~site:"A"
       ~kind:(Event.Generated { rule_id = "notify"; trigger = ws.Event.id })
       (Event.n x (Value.Int 99)));
  let violations =
    Validity.check ~rules:[ List.hd (propagation_rules ()) ] ~locator:simple_locator tr
  in
  Alcotest.(check bool) "bad provenance" true
    (List.exists (function Validity.Bad_provenance _ -> true | _ -> false) violations)

let validity_guard_waives_obligation () =
  (* Rule fires only when Cx differs from the notified value; if Cx already
     equals it, a missing WR is fine. *)
  let rules = Parser.parse_rules "cmp: N(X, b) ->[5] (Cx != b) ? WR(Y, b)" in
  let locator it = if it.Item.base = "Cx" then "B" else simple_locator it in
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:0.5 ~site:"B" (Event.w (item "Cx" []) (Value.Int 1)));
  ignore (Trace.record tr ~time:1.0 ~site:"A" (Event.n x (Value.Int 1)));
  ignore (Trace.record tr ~time:50.0 ~site:"A" (Event.p 60.0));
  let violations = Validity.check ~rules ~locator tr in
  Alcotest.(check (list string)) "guard false => waived" []
    (List.map Validity.violation_to_string violations)

let validity_guard_true_obligation_enforced () =
  let rules = Parser.parse_rules "cmp: N(X, b) ->[5] (Cx != b) ? WR(Y, b)" in
  let locator it = if it.Item.base = "Cx" then "B" else simple_locator it in
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:0.5 ~site:"B" (Event.w (item "Cx" []) (Value.Int 7)));
  ignore (Trace.record tr ~time:1.0 ~site:"A" (Event.n x (Value.Int 1)));
  ignore (Trace.record tr ~time:50.0 ~site:"A" (Event.p 60.0));
  let violations = Validity.check ~rules ~locator tr in
  Alcotest.(check bool) "guard true everywhere => violation" true
    (List.exists (function Validity.Missing_response _ -> true | _ -> false) violations)

let validity_out_of_order () =
  let rules =
    Parser.parse_rules "prop: N(X, b) ->[50] WR(Y, b)"
  in
  let tr = Trace.create () in
  let n1 = Trace.record tr ~time:1.0 ~site:"A" (Event.n x (Value.Int 1)) in
  let n2 = Trace.record tr ~time:2.0 ~site:"A" (Event.n x (Value.Int 2)) in
  (* Deliveries swapped: n2's write lands before n1's. *)
  ignore
    (Trace.record tr ~time:3.0 ~site:"B"
       ~kind:(Event.Generated { rule_id = "prop"; trigger = n2.Event.id })
       (Event.wr y (Value.Int 2)));
  ignore
    (Trace.record tr ~time:4.0 ~site:"B"
       ~kind:(Event.Generated { rule_id = "prop"; trigger = n1.Event.id })
       (Event.wr y (Value.Int 1)));
  let violations = Validity.check ~rules ~locator:simple_locator tr in
  Alcotest.(check bool) "out of order detected" true
    (List.exists (function Validity.Out_of_order _ -> true | _ -> false) violations)

let validity_site_restriction () =
  (* A polling rule for site A's X must not claim P events of site B. *)
  let rules = Parser.parse_rules "poll: P(60) ->[1] RR(X)" in
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:60.0 ~site:"B" (Event.p 60.0));
  ignore (Trace.record tr ~time:120.0 ~site:"B" (Event.p 60.0));
  let violations = Validity.check ~rules ~locator:simple_locator tr in
  Alcotest.(check (list string)) "other site's ticks ignored" []
    (List.map Validity.violation_to_string violations)

let qcheck_chain_validity =
  (* Any number of correctly recorded chains yields a valid execution. *)
  QCheck.Test.make ~name:"correct chains are always valid" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 20) (QCheck.int_range 0 1000))
    (fun vs ->
      let tr = Trace.create () in
      List.iteri (fun i v -> record_chain tr ~t0:(float_of_int (10 * i)) ~lag:0.4 v) vs;
      Validity.check ~rules:(propagation_rules ()) ~locator:simple_locator tr = [])

(* ---------- trace persistence ---------- *)

let trace_io_roundtrip () =
  let tr = Trace.create () in
  ignore (Trace.record tr ~time:1.0 ~site:"a" (Event.ws x (Value.Int 5)));
  ignore
    (Trace.record tr ~time:2.5 ~site:"a"
       ~kind:(Event.Generated { rule_id = "sf/Salary1/notify"; trigger = 0 })
       (Event.n x (Value.Int 5)));
  ignore
    (Trace.record tr ~time:3.0 ~site:"b"
       (Event.wr (item "Salary2" [ Value.Str "e1" ]) (Value.Str "hi there")));
  ignore (Trace.record tr ~time:4.0 ~site:"b" (Event.p 30.0));
  let text =
    String.concat "\n" (List.map Trace_io.event_to_line (Trace.events tr))
  in
  match Trace_io.read_string text with
  | Error m -> Alcotest.fail m
  | Ok tr2 ->
    Alcotest.(check int) "same length" (Trace.length tr) (Trace.length tr2);
    List.iter2
      (fun (a : Event.t) (b : Event.t) ->
        Alcotest.(check bool)
          ("event preserved: " ^ Event.to_string a)
          true
          (Event.desc_equal a.desc b.desc && a.site = b.site && a.kind = b.kind
           && Float.abs (a.time -. b.time) < 1e-6))
      (Trace.events tr) (Trace.events tr2)

let trace_io_errors () =
  let fails text =
    match Trace_io.read_string text with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "garbage" true (fails "not an event");
  Alcotest.(check bool) "bad id sequence" true (fails "5 1.0 a spont W(X, 1)");
  Alcotest.(check bool) "bad kind" true (fails "0 1.0 a banana W(X, 1)");
  Alcotest.(check bool) "time regression" true
    (fails "0 5.0 a spont W(X, 1)\n1 1.0 a spont W(X, 2)");
  Alcotest.(check bool) "non-concrete descriptor" true (fails "0 1.0 a spont W(X, b)");
  Alcotest.(check bool) "comments ok" false
    (fails "# header\n0 1.0 a spont W(X, 1)\n\n1 2.0 a gen:r1:0 N(X, 1)")

(* ---------- random-AST roundtrip properties ---------- *)

(* Random expressions from the printable fragment of the language. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Expr.Const (Value.Int i)) (int_range 0 100);
        map (fun f -> Expr.Const (Value.Float (Float.of_int f /. 4.0))) (int_range 1 40);
        oneofl
          [
            Expr.Var "a"; Expr.Var "b"; Expr.Var "v";
            Expr.Item ("X", []); Expr.Item ("Cache", []);
            Expr.Item ("Phone", [ Expr.Var "n" ]);
          ];
      ]
  in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op a b -> Expr.Binop (op, a, b))
              (oneofl
                 Expr.[ Add; Sub; Mul; Eq; Ne; Lt; Le; Gt; Ge; And; Or ])
              (go (depth - 1)) (go (depth - 1)) );
          (1, map (fun e -> Expr.Unop (Expr.Abs, e)) (go (depth - 1)));
          (1, map (fun e -> Expr.Unop (Expr.Not, e)) (go (depth - 1)));
          (1, return (Expr.Exists ("X", [])));
        ]
  in
  go 3

let qcheck_expr_roundtrip =
  QCheck.Test.make ~name:"expr to_string/parse roundtrip" ~count:300
    (QCheck.make ~print:Expr.to_string gen_expr)
    (fun e ->
      let printed = Expr.to_string e in
      let reparsed = Parser.parse_expr printed in
      (* The reparse may differ structurally (parenthesisation), but its
         printed form must be stable. *)
      Expr.to_string reparsed = Expr.to_string (Parser.parse_expr (Expr.to_string reparsed)))

let gen_rule =
  let open QCheck.Gen in
  let item = oneofl [ "X"; "Y"; "Salary1"; "Salary2" ] in
  let var = oneofl [ "b"; "v" ] in
  let template name =
    map2 (fun base v -> Template.make name [ Expr.Item (base, []); Expr.Var v ]) item var
  in
  let lhs = oneof [ template "N"; template "Ws"; template "W"; template "R" ] in
  let step = map (fun t -> { Rule.guard = Expr.Const (Value.Bool true); template = t }) (template "WR") in
  let guarded_step =
    map2
      (fun g t -> { Rule.guard = g; template = t })
      (map (fun v -> Expr.Binop (Expr.Ne, Expr.Item ("Cache", []), Expr.Var v)) var)
      (template "WR")
  in
  let delta = map float_of_int (int_range 1 30) in
  map3
    (fun lhs steps delta -> Rule.make ~id:"q" ~delta ~lhs (Rule.Steps steps))
    lhs
    (oneof [ map (fun s -> [ s ]) step; map2 (fun a b -> [ a; b ]) guarded_step step ])
    delta

let qcheck_rule_roundtrip =
  QCheck.Test.make ~name:"rule to_string/parse roundtrip" ~count:300
    (QCheck.make ~print:Rule.to_string gen_rule)
    (fun r ->
      let r2 = Parser.parse_rule (Rule.to_string r) in
      Rule.to_string r = Rule.to_string r2)

let qcheck_timeline_last_write_wins =
  QCheck.Test.make ~name:"timeline reports the last write at or before t" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 30) (pair (int_range 0 100) small_nat))
    (fun writes ->
      let writes =
        List.mapi (fun i (t, v) -> (float_of_int t +. (0.001 *. float_of_int i), v)) writes
        |> List.sort compare
      in
      let tr = Trace.create () in
      List.iter
        (fun (t, v) -> ignore (Trace.record tr ~time:t ~site:"s" (Event.w x (Value.Int v))))
        writes;
      let tl = Timeline.of_trace tr in
      (* At each write instant and just after, the timeline equals that write. *)
      List.for_all
        (fun (t, v) ->
          let later_at_same_t =
            List.filter (fun (t', _) -> t' >= t && t' <= t +. 0.0005) writes
          in
          let _, expected = List.nth later_at_same_t (List.length later_at_same_t - 1) in
          ignore v;
          Timeline.value_at tl x (t +. 0.0005) = Some (Value.Int expected))
        writes)

let () =
  Alcotest.run "cm_rule"
    [
      ( "value",
        [
          Alcotest.test_case "numeric equality" `Quick value_numeric_equality;
          Alcotest.test_case "arith" `Quick value_arith;
          Alcotest.test_case "arith errors" `Quick value_arith_errors;
          Alcotest.test_case "ordering" `Quick value_ordering;
          Alcotest.test_case "literals" `Quick value_literals;
          QCheck_alcotest.to_alcotest value_compare_equal_consistent;
        ] );
      ( "item",
        [
          Alcotest.test_case "to_string" `Quick item_string;
          Alcotest.test_case "equality" `Quick item_equality;
          QCheck_alcotest.to_alcotest desc_text_matches_concatenation;
        ] );
      ( "hash",
        [
          Alcotest.test_case "awkward pairs" `Quick hash_pairs;
          Alcotest.test_case "allocates nothing" `Quick hash_allocates_nothing;
          QCheck_alcotest.to_alcotest value_hash_agrees;
          QCheck_alcotest.to_alcotest item_hash_agrees;
        ] );
      ( "expr",
        [
          Alcotest.test_case "arith" `Quick expr_arith;
          Alcotest.test_case "comparisons" `Quick expr_comparisons;
          Alcotest.test_case "item lookup" `Quick expr_item_lookup;
          Alcotest.test_case "missing item" `Quick expr_missing_item;
          Alcotest.test_case "exists" `Quick expr_exists;
          Alcotest.test_case "binding equality" `Quick expr_binding_equality;
          Alcotest.test_case "binding threads &&" `Quick expr_binding_threads_through_and;
          Alcotest.test_case "no binding under ||" `Quick expr_no_binding_under_or;
          Alcotest.test_case "bound var equality" `Quick expr_bound_var_equality_checks;
          Alcotest.test_case "free vars" `Quick expr_free_vars;
          Alcotest.test_case "10% filter" `Quick expr_conditional_notify_condition;
          QCheck_alcotest.to_alcotest eval_matches_reference;
        ] );
      ( "template",
        [
          Alcotest.test_case "matches concrete" `Quick template_matches_concrete;
          Alcotest.test_case "Ws shorthand" `Quick template_ws_shorthand;
          Alcotest.test_case "parameterized item" `Quick template_parameterized_item;
          Alcotest.test_case "repeated var" `Quick template_repeated_var_consistency;
          Alcotest.test_case "constant arg" `Quick template_constant_arg;
          Alcotest.test_case "wildcard" `Quick template_wildcard;
          Alcotest.test_case "var binds item" `Quick template_var_binds_item;
          Alcotest.test_case "FALSE matches nothing" `Quick template_false_matches_nothing;
          Alcotest.test_case "instantiate" `Quick template_instantiate;
          Alcotest.test_case "instantiate unbound" `Quick template_instantiate_unbound;
          Alcotest.test_case "arity checked" `Quick template_arity_checked;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick parser_roundtrip;
          Alcotest.test_case "labels" `Quick parser_labels;
          Alcotest.test_case "delta" `Quick parser_delta;
          Alcotest.test_case "multiple rules" `Quick parser_multiple_rules;
          Alcotest.test_case "comments" `Quick parser_comments;
          Alcotest.test_case "errors" `Quick parser_errors;
          Alcotest.test_case "integer out of range" `Quick parser_int_out_of_range;
          Alcotest.test_case "Ws normalization" `Quick parser_ws_two_arg_normalized;
        ] );
      ( "rule",
        [
          Alcotest.test_case "sites" `Quick rule_sites;
          Alcotest.test_case "polling site" `Quick rule_polling_site_is_rhs;
          Alcotest.test_case "well-formed ok" `Quick rule_well_formed_ok;
          Alcotest.test_case "multi-site RHS rejected" `Quick rule_rhs_multi_site_rejected;
          Alcotest.test_case "unbound RHS var rejected" `Quick rule_unbound_rhs_var_rejected;
          Alcotest.test_case "binding cond provides var" `Quick rule_binding_cond_provides_var;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records in order" `Quick trace_records_in_order;
          Alcotest.test_case "queries" `Quick trace_queries;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "reconstruction" `Quick timeline_reconstruction;
          Alcotest.test_case "initial state" `Quick timeline_initial_state;
          Alcotest.test_case "existence" `Quick timeline_existence;
          Alcotest.test_case "values taken" `Quick timeline_values_taken;
        ] );
      ( "validity",
        [
          Alcotest.test_case "accepts correct chain" `Quick validity_accepts_correct_chain;
          Alcotest.test_case "missing response" `Quick validity_detects_missing_response;
          Alcotest.test_case "pending not reported" `Quick validity_pending_not_reported;
          Alcotest.test_case "bound exceeded" `Quick validity_detects_bound_exceeded;
          Alcotest.test_case "prohibited" `Quick validity_detects_prohibited;
          Alcotest.test_case "bad provenance" `Quick validity_detects_bad_provenance;
          Alcotest.test_case "guard waives" `Quick validity_guard_waives_obligation;
          Alcotest.test_case "guard enforced" `Quick validity_guard_true_obligation_enforced;
          Alcotest.test_case "out of order" `Quick validity_out_of_order;
          Alcotest.test_case "site restriction" `Quick validity_site_restriction;
          QCheck_alcotest.to_alcotest qcheck_chain_validity;
        ] );
      ( "trace-io",
        [
          Alcotest.test_case "roundtrip" `Quick trace_io_roundtrip;
          Alcotest.test_case "errors" `Quick trace_io_errors;
        ] );
      ( "roundtrip-properties",
        [
          QCheck_alcotest.to_alcotest qcheck_expr_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_rule_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_timeline_last_write_wins;
        ] );
    ]
