(* Property-based differential tests for Cm_rule.Rule_index.

   The index must be observationally equivalent to the naive linear
   scan it replaced in Shell.occurred: for any rule program and any
   event, [Rule_index.select] followed by template matching yields
   exactly the same (rule, environment) list — same members, same
   (registration) order — as [Rule_index.select_naive] followed by
   template matching.

   A seeded Prng drives a generator of random rule programs (random
   templates over shared pools of names, bases and sites, registered
   under random LHS sites or as site-free chaining rules) and random
   event streams (events derived from installed templates so matches
   actually happen, then mutated to cover near-misses: renamed, rebased,
   truncated, extended).  Every generated (program, event, site) triple
   is one differential case; the suite runs well over 1000 of them.

   Rules registered with their LHS condition add range discrimination:
   [select] then skips rules whose leading comparisons exclude the
   event, so that differential runs the condition too — [select] plus
   match plus condition must fire the same rules, with the same
   bindings, in the same order, as [select_naive] plus both steps. *)

open Cm_rule
module Prng = Cm_util.Prng

let names = [| "EvA"; "EvB"; "EvC"; "EvD" |]
let bases = [| "A"; "B"; "C"; "D"; "E"; "F" |]
let sites = [| "s0"; "s1"; "s2"; "s3" |]
let vars = [| "u"; "v"; "w"; "x" |]

let gen_value rng =
  match Prng.int rng 4 with
  | 0 -> Value.Int (Prng.int rng 10)
  | 1 -> Value.Str (Printf.sprintf "c%d" (Prng.int rng 5))
  | 2 -> Value.Bool (Prng.bool rng)
  | _ -> Value.Float (float_of_int (Prng.int rng 7))

(* Item params are themselves template args restricted to Const/Var/
   Wildcard (Expr.is_template_arg). *)
let gen_param rng =
  match Prng.int rng 3 with
  | 0 -> Expr.Const (gen_value rng)
  | 1 -> Expr.Var (Prng.pick rng vars)
  | _ -> Expr.Wildcard

let gen_template_arg rng =
  match Prng.int rng 5 with
  | 0 -> Expr.Const (gen_value rng)
  | 1 | 2 -> Expr.Var (Prng.pick rng vars)
  | 3 -> Expr.Wildcard
  | _ ->
    let params = List.init (Prng.int rng 2) (fun _ -> gen_param rng) in
    Expr.Item (Prng.pick rng bases, params)

let gen_template rng =
  (* An occasional FALSE template: matches nothing on either path. *)
  if Prng.int rng 20 = 0 then Template.false_
  else
    let arity = Prng.int rng 4 in
    Template.make (Prng.pick rng names)
      (List.init arity (fun _ -> gen_template_arg rng))

(* A program: templates registered in order under random LHS sites
   (None = site-free chaining rule).  The payload is (registration id,
   template) so the oracle can re-run template matching. *)
let gen_program rng =
  let n = 1 + Prng.int rng 20 in
  let index = Rule_index.create () in
  let all = ref [] in
  for id = 0 to n - 1 do
    let tpl = gen_template rng in
    let site = if Prng.int rng 4 = 0 then None else Some (Prng.pick rng sites) in
    Rule_index.add index ~lhs:tpl ~site (id, tpl);
    all := (id, tpl, site) :: !all
  done;
  (index, List.rev !all)

(* Instantiate a template into a concrete event descriptor, then
   sometimes mutate it so near-misses (wrong name, wrong base, wrong
   arity) are covered too. *)
let gen_event_desc rng (tpl : Template.t) =
  let arg_of = function
    | Expr.Const v -> Event.Av v
    | Expr.Var _ | Expr.Wildcard ->
      if Prng.int rng 5 = 0 then Event.Ai (Item.make (Prng.pick rng bases))
      else Event.Av (gen_value rng)
    | Expr.Item (base, params) ->
      let params =
        List.map
          (function Expr.Const v -> v | _ -> gen_value rng)
          params
      in
      Event.Ai (Item.make base ~params)
    | _ -> Event.Av (gen_value rng)
  in
  let desc = { Event.name = tpl.Template.name; args = List.map arg_of tpl.Template.args } in
  match Prng.int rng 10 with
  | 0 -> { desc with Event.name = Prng.pick rng names }
  | 1 -> (
    (* Rebase the first item argument, if any. *)
    match desc.Event.args with
    | Event.Ai item :: rest ->
      { desc with
        Event.args = Event.Ai (Item.make (Prng.pick rng bases) ~params:item.Item.params) :: rest
      }
    | _ -> desc)
  | 2 ->
    { desc with
      Event.args = (match desc.Event.args with [] -> [] | _ :: rest -> rest) }
  | 3 -> { desc with Event.args = desc.Event.args @ [ Event.Av (gen_value rng) ] }
  | _ -> desc

let gen_desc_from_program rng program =
  match program with
  | [] -> { Event.name = Prng.pick rng names; args = [] }
  | _ ->
    let _, tpl, _ = List.nth program (Prng.int rng (List.length program)) in
    if Template.is_false tpl then { Event.name = Prng.pick rng names; args = [] }
    else gen_event_desc rng tpl

(* The observable outcome of dispatching [desc]: (rule id, sorted
   bindings) per match, in rule order. *)
let matches_of candidates desc =
  List.filter_map
    (fun (id, tpl) ->
      Template.matches tpl desc ~seed:Expr.empty_env
      |> Option.map (fun env -> (id, Expr.Env.bindings env)))
    candidates

let binding_to_string = function
  | Expr.Bval v -> Value.to_string v
  | Expr.Bitem item -> Item.to_string item

let outcome_to_string outcome =
  String.concat "; "
    (List.map
       (fun (id, bindings) ->
         Printf.sprintf "#%d{%s}" id
           (String.concat ","
              (List.map
                 (fun (x, b) -> x ^ "=" ^ binding_to_string b)
                 bindings)))
       outcome)

let check_case ~case index desc ~local_site ~event_site =
  let indexed =
    matches_of (Rule_index.select index ~local_site ~event_site ~desc) desc
  in
  let naive =
    matches_of (Rule_index.select_naive index ~local_site ~event_site) desc
  in
  if indexed <> naive then
    Alcotest.failf
      "case %d: %s at %s (local %s)\n  indexed: [%s]\n  naive:   [%s]" case
      (Event.desc_to_string desc) event_site local_site
      (outcome_to_string indexed) (outcome_to_string naive)

let differential_cases () =
  let rng = Prng.create ~seed:424242 in
  let cases = ref 0 in
  let matched = ref 0 in
  for _program = 1 to 300 do
    let index, program = gen_program rng in
    for _event = 1 to 5 do
      let desc = gen_desc_from_program rng program in
      let event_site = Prng.pick rng sites in
      let local_site =
        if Prng.bool rng then event_site else Prng.pick rng sites
      in
      incr cases;
      check_case ~case:!cases index desc ~local_site ~event_site;
      let produced =
        matches_of (Rule_index.select index ~local_site ~event_site ~desc) desc
      in
      if produced <> [] then incr matched
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "ran >= 1000 differential cases (got %d)" !cases)
    true (!cases >= 1000);
  (* Guard against a vacuous generator: a healthy fraction of cases
     must actually produce matches. *)
  Alcotest.(check bool)
    (Printf.sprintf "generator is not vacuous (%d/%d cases matched)" !matched
       !cases)
    true
    (!matched * 5 >= !cases)

(* Churn differential: the same equivalence must survive epoch
   boundaries — rules removed (an epoch retiring its program) and new
   ones registered (the next epoch cutting over) in interleaved rounds.
   Exercises the tombstone/compaction path of [remove] under the exact
   pattern Shell.cutover_epoch produces. *)
let churn_differential_cases () =
  let rng = Prng.create ~seed:313131 in
  let cases = ref 0 in
  let removed_total = ref 0 in
  for _program = 1 to 120 do
    let index, program = gen_program rng in
    let live = ref program in
    let next_id = ref (List.length program) in
    for _round = 1 to 4 do
      (* Retire a random subset of the live program... *)
      let keep, retire =
        List.partition (fun _ -> Prng.int rng 3 > 0) !live
      in
      List.iter
        (fun (id, tpl, site) ->
          let ok =
            Rule_index.remove index ~lhs:tpl ~site (fun (id', _) -> id' = id)
          in
          if not ok then
            Alcotest.failf "remove lost a live entry (#%d)" id;
          incr removed_total)
        retire;
      (* ...and cut over to a fresh batch. *)
      let fresh =
        List.init (Prng.int rng 6) (fun _ ->
            let id = !next_id in
            incr next_id;
            let tpl = gen_template rng in
            let site =
              if Prng.int rng 4 = 0 then None else Some (Prng.pick rng sites)
            in
            Rule_index.add index ~lhs:tpl ~site (id, tpl);
            (id, tpl, site))
      in
      live := keep @ fresh;
      Alcotest.(check int) "length tracks live entries"
        (List.length !live) (Rule_index.length index);
      for _event = 1 to 4 do
        let desc = gen_desc_from_program rng !live in
        let event_site = Prng.pick rng sites in
        let local_site =
          if Prng.bool rng then event_site else Prng.pick rng sites
        in
        incr cases;
        check_case ~case:!cases index desc ~local_site ~event_site
      done
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "ran >= 1000 churn cases (got %d)" !cases)
    true (!cases >= 1000);
  Alcotest.(check bool)
    (Printf.sprintf "churn actually removed entries (%d)" !removed_total)
    true
    (!removed_total >= 500)

(* Deterministic order-preservation scenario: several rules in the same
   discrimination bucket, interleaved with chaining and foreign-site
   rules, must come back in exact registration order. *)
let registration_order () =
  let index = Rule_index.create () in
  let tpl name args = Template.make name args in
  let x_tpl = tpl "Ev" [ Expr.Item ("X", []); Expr.Var "v" ] in
  let free_tpl = tpl "Ev" [ Expr.Var "a"; Expr.Var "v" ] in
  Rule_index.add index ~lhs:x_tpl ~site:(Some "s0") 0;
  Rule_index.add index ~lhs:free_tpl ~site:None 1;
  Rule_index.add index ~lhs:x_tpl ~site:(Some "s0") 2;
  Rule_index.add index ~lhs:x_tpl ~site:(Some "s1") 3;  (* foreign *)
  Rule_index.add index ~lhs:free_tpl ~site:(Some "s0") 4;
  Rule_index.add index ~lhs:x_tpl ~site:None 5;
  let desc =
    { Event.name = "Ev"; args = [ Event.Ai (Item.make "X"); Event.Av (Value.Int 1) ] }
  in
  let got = Rule_index.select index ~local_site:"s0" ~event_site:"s0" ~desc in
  Alcotest.(check (list int)) "same-bucket interleaving preserves order"
    [ 0; 1; 2; 4; 5 ] got;
  let naive = Rule_index.select_naive index ~local_site:"s0" ~event_site:"s0" in
  Alcotest.(check (list int)) "naive returns all site-eligible entries"
    [ 0; 1; 2; 4; 5 ] naive;
  (* At a foreign site only that site's bucket applies. *)
  let got_s1 = Rule_index.select index ~local_site:"s0" ~event_site:"s1" ~desc in
  Alcotest.(check (list int)) "foreign-site event selects only its bucket"
    [ 3 ] got_s1

(* ---- LHS conditions: range discrimination ---- *)

(* Event values and bounds, with the awkward numbers: nan orders below
   every number and equals itself, -0.0 equals 0.0, and 2^53 + 1 exceeds
   both the int 2^53 and the float 2^53 it rounds to. *)
let gen_scalar rng =
  match Prng.int rng 16 with
  | 0 -> Value.Null
  | 1 -> Value.Bool (Prng.bool rng)
  | 2 -> Value.Str (Printf.sprintf "c%d" (Prng.int rng 4))
  | 3 -> Value.Int (Prng.pick rng [| 1 lsl 53; (1 lsl 53) + 1 |])
  | 4 -> Value.Float (Prng.pick rng [| Float.nan; -0.0; 0.0; 4.5; Float.infinity; 0x1p53 |])
  | 5 | 6 | 7 -> Value.Float (float_of_int (Prng.int rng 10) +. Prng.pick rng [| 0.0; 0.5 |])
  | _ -> Value.Int (Prng.int rng 10)

let gen_comparison rng x =
  let op = Prng.pick rng [| Expr.Ge; Expr.Gt; Expr.Lt; Expr.Le |] in
  Expr.Binop (op, Expr.Var x, Expr.Const (gen_scalar rng))

(* Conjuncts after the leading comparisons: tests, binding equalities,
   comparisons a range must not take (constant first, another
   variable), local reads and negations. *)
let gen_conjunct rng =
  let x = Prng.pick rng vars in
  match Prng.int rng 8 with
  | 0 -> Expr.Const (Value.Bool (Prng.bool rng))
  | 1 -> Expr.Binop (Expr.Eq, Expr.Var x, Expr.Const (gen_scalar rng))
  | 2 -> Expr.Binop (Expr.Ne, Expr.Var x, Expr.Const (gen_scalar rng))
  | 3 -> Expr.Binop (Expr.Ge, Expr.Const (gen_scalar rng), Expr.Var x)
  | 4 -> Expr.Unop (Expr.Not, gen_comparison rng x)
  | 5 -> Expr.Binop (Expr.Or, gen_comparison rng x, gen_comparison rng (Prng.pick rng vars))
  | 6 -> Expr.Binop (Expr.Le, Expr.Item ("K", [ Expr.Var x ]), Expr.Const (gen_scalar rng))
  | _ -> gen_comparison rng x

(* A conjunction in a random shape: leading comparisons, mostly of one
   variable the template binds at a top-level argument, then other
   conjuncts. *)
let gen_cond rng (tpl : Template.t) =
  let top = List.filter_map (function Expr.Var x -> Some x | _ -> None) tpl.Template.args in
  let x =
    if top <> [] && Prng.int rng 4 > 0 then Prng.pick rng (Array.of_list top)
    else Prng.pick rng vars
  in
  let leading =
    List.init (Prng.int rng 3) (fun _ ->
        gen_comparison rng (if Prng.int rng 6 = 0 then Prng.pick rng vars else x))
  in
  let rest = List.init (Prng.int rng 2) (fun _ -> gen_conjunct rng) in
  let rec build = function
    | [] -> Expr.Const (Value.Bool true)
    | [ c ] -> c
    | cs ->
      let k = 1 + Prng.int rng (List.length cs - 1) in
      Expr.Binop
        ( Expr.And,
          build (List.filteri (fun i _ -> i < k) cs),
          build (List.filteri (fun i _ -> i >= k) cs) )
  in
  build (leading @ rest)

(* Templates that bind variables at top-level arguments, sometimes more
   than once ([Ev(u, u)], [Ev(u, X(u))]) or first inside an item
   ([Ev(X(u), u)]). *)
let gen_cond_template rng =
  let arg () =
    match Prng.int rng 6 with
    | 0 -> Expr.Const (gen_scalar rng)
    | 1 -> Expr.Wildcard
    | 2 -> Expr.Item (Prng.pick rng bases, [ Expr.Var (Prng.pick rng vars) ])
    | _ -> Expr.Var (Prng.pick rng vars)
  in
  Template.make (Prng.pick rng names) (List.init (1 + Prng.int rng 3) (fun _ -> arg ()))

(* An event shaped by a template, with items where values are due
   (variables bound to items), wrong constants, a missing argument or a
   wrong name now and then. *)
let gen_cond_event rng (tpl : Template.t) =
  let arg = function
    | Expr.Const v when Prng.int rng 4 > 0 -> Event.Av v
    | Expr.Item (base, params) ->
      Event.Ai (Item.make base ~params:(List.map (fun _ -> gen_scalar rng) params))
    | _ ->
      if Prng.int rng 8 = 0 then Event.Ai (Item.make (Prng.pick rng bases))
      else Event.Av (gen_scalar rng)
  in
  let desc = { Event.name = tpl.Template.name; args = List.map arg tpl.Template.args } in
  match Prng.int rng 12 with
  | 0 -> { desc with Event.args = (match desc.Event.args with [] -> [] | _ :: rest -> rest) }
  | 1 -> { desc with Event.name = Prng.pick rng names }
  | _ -> desc

(* Local data for [K(v)] reads: [v] itself when it is an integer. *)
let cond_state =
  Expr.state_of_fun (fun item ->
      match item.Item.base, item.Item.params with
      | "K", [ (Value.Int _ as v) ] -> Some v
      | _ -> None)

(* The shell's firing decision: template match, then the condition;
   a condition that cannot be evaluated does not hold. *)
let fires_of candidates desc =
  List.filter_map
    (fun (id, tpl, cond) ->
      match Template.matches tpl desc ~seed:Expr.empty_env with
      | None -> None
      | Some env -> (
        match Expr.eval_cond cond_state env cond with
        | Some env -> Some (id, Expr.Env.bindings env)
        | None | (exception (Expr.Eval_error _ | Invalid_argument _)) -> None))
    candidates

let template_matched candidates desc =
  List.length
    (List.filter
       (fun (_, tpl, _) -> Option.is_some (Template.matches tpl desc ~seed:Expr.empty_env))
       candidates)

let condition_differential () =
  let rng = Prng.create ~seed:515151 in
  let cases = ref 0 and fired = ref 0 and ranged = ref 0 in
  for _program = 1 to 300 do
    let index = Rule_index.create () in
    let program =
      List.init (1 + Prng.int rng 12) (fun id ->
          let tpl = gen_cond_template rng in
          let cond = gen_cond rng tpl in
          let site = if Prng.int rng 4 = 0 then None else Some (Prng.pick rng sites) in
          Rule_index.add index ~lhs:tpl ~cond ~site (id, tpl, cond);
          (tpl, site))
    in
    for _event = 1 to 5 do
      (* Mostly at the site of the rule the event is shaped by. *)
      let tpl, site = List.nth program (Prng.int rng (List.length program)) in
      let desc = gen_cond_event rng tpl in
      let event_site =
        match site with
        | Some s when Prng.int rng 4 > 0 -> s
        | _ -> Prng.pick rng sites
      in
      let local_site = if Prng.bool rng then event_site else Prng.pick rng sites in
      incr cases;
      let candidates = Rule_index.select index ~local_site ~event_site ~desc in
      let naive = Rule_index.select_naive index ~local_site ~event_site in
      let indexed_fires = fires_of candidates desc in
      let naive_fires = fires_of naive desc in
      if compare indexed_fires naive_fires <> 0 then
        Alcotest.failf "case %d: %s at %s (local %s)\n  indexed: [%s]\n  naive:   [%s]" !cases
          (Event.desc_to_string desc) event_site local_site
          (outcome_to_string indexed_fires) (outcome_to_string naive_fires);
      if indexed_fires <> [] then incr fired;
      (* A rule whose template matched but whose range kept it out of
         the candidates: a skip the differential vouches for. *)
      if template_matched naive desc > template_matched candidates desc then incr ranged
    done
  done;
  Alcotest.(check bool)
    (Printf.sprintf "ran >= 1500 condition cases (got %d)" !cases)
    true (!cases >= 1500);
  Alcotest.(check bool)
    (Printf.sprintf "conditions fire (%d/%d cases)" !fired !cases)
    true
    (!fired * 10 >= !cases);
  Alcotest.(check bool)
    (Printf.sprintf "ranges skip matching rules (%d/%d cases)" !ranged !cases)
    true
    (!ranged * 10 >= !cases)

(* The dispatch-local shape: four rules split one family by [b]'s
   range, so each event has one candidate at most. *)
let range_skip () =
  let lhs = Template.make "W" [ Expr.Item ("X", [ Expr.Var "n" ]); Expr.Var "b" ] in
  let cmp op c = Expr.Binop (op, Expr.Var "b", Expr.Const c) in
  let index = Rule_index.create () in
  List.iteri
    (fun j (lo, hi) ->
      Rule_index.add index ~lhs
        ~cond:(Expr.Binop (Expr.And, cmp Expr.Ge lo, cmp Expr.Lt hi))
        ~site:(Some "s") j)
    [ (Value.Int 0, Value.Int 10); (Value.Int 10, Value.Int 20);
      (Value.Float 20.0, Value.Str "a"); (Value.Null, Value.Int 0) ];
  let select index b =
    Rule_index.select index ~local_site:"s" ~event_site:"s"
      ~desc:(Event.w (Item.make "X" ~params:[ Value.Int 1 ]) b)
  in
  let check label expected b = Alcotest.(check (list int)) label expected (select index b) in
  check "lower bound is inclusive" [ 1 ] (Value.Int 10);
  check "upper bound is exclusive" [ 2 ] (Value.Float 20.0);
  check "-0.0 equals 0" [ 0 ] (Value.Float (-0.0));
  check "nan orders below every number" [ 3 ] (Value.Float Float.nan);
  check "strings order above numbers" [] (Value.Str "b");
  check "null meets a null lower bound" [ 3 ] Value.Null;
  (* Without the condition the rule is a plain candidate. *)
  let plain = Rule_index.create () in
  Rule_index.add plain ~lhs ~site:(Some "s") 0;
  Alcotest.(check (list int)) "no condition, no range" [ 0 ] (select plain (Value.Str "z"));
  (* A variable first bound inside an item gets no range: the binding is
     the item's parameter, which the later argument need only equal. *)
  let inner = Rule_index.create () in
  let two53 = 1 lsl 53 in
  Rule_index.add inner
    ~lhs:(Template.make "W" [ Expr.Item ("X", [ Expr.Var "b" ]); Expr.Var "b" ])
    ~cond:(cmp Expr.Gt (Value.Int two53)) ~site:(Some "s") 0;
  Alcotest.(check (list int)) "first bound inside an item: no range" [ 0 ]
    (Rule_index.select inner ~local_site:"s" ~event_site:"s"
       ~desc:(Event.w (Item.make "X" ~params:[ Value.Int (two53 + 1) ]) (Value.Float 0x1p53)))

(* Selection allocates nothing: the words 1000 [iter]s allocate stay
   below one per call. *)
let iter_allocates_nothing () =
  let lhs = Template.make "W" [ Expr.Item ("X", [ Expr.Var "n" ]); Expr.Var "b" ] in
  let cond = Expr.Binop (Expr.Ge, Expr.Var "b", Expr.Const (Value.Int 5)) in
  let index = Rule_index.create () in
  for j = 0 to 7 do
    Rule_index.add index ~lhs ~cond ~site:(if j mod 2 = 0 then Some "s" else None) j
  done;
  let desc = Event.w (Item.make "X" ~params:[ Value.Int 1 ]) (Value.Int 7) in
  let count = ref 0 in
  let f _ = incr count in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Rule_index.iter index ~local_site:"s" ~event_site:"s" ~desc f
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every candidate visited" 8000 !count;
  Alcotest.(check bool) (Printf.sprintf "1000 selects allocate < 1000 words (%.0f)" words) true
    (words < 1000.0)

let base_discrimination () =
  let index = Rule_index.create () in
  let item_tpl base = Template.make "Ev" [ Expr.Item (base, []); Expr.Var "v" ] in
  Rule_index.add index ~lhs:(item_tpl "X") ~site:(Some "s0") "x";
  Rule_index.add index ~lhs:(item_tpl "Y") ~site:(Some "s0") "y";
  Rule_index.add index
    ~lhs:(Template.make "Ev" [ Expr.Var "a"; Expr.Var "v" ])
    ~site:(Some "s0") "free";
  let desc base =
    { Event.name = "Ev"; args = [ Event.Ai (Item.make base); Event.Av (Value.Int 0) ] }
  in
  Alcotest.(check (list string)) "X event skips the Y bucket" [ "x"; "free" ]
    (Rule_index.select index ~local_site:"s0" ~event_site:"s0" ~desc:(desc "X"));
  Alcotest.(check (list string)) "Y event skips the X bucket" [ "y"; "free" ]
    (Rule_index.select index ~local_site:"s0" ~event_site:"s0" ~desc:(desc "Y"));
  let no_item = { Event.name = "Ev"; args = [ Event.Av (Value.Int 1) ] } in
  Alcotest.(check (list string))
    "itemless event consults only the base-free bucket" [ "free" ]
    (Rule_index.select index ~local_site:"s0" ~event_site:"s0" ~desc:no_item);
  let buckets, largest = Rule_index.bucket_stats index in
  Alcotest.(check int) "three discrimination buckets" 3 buckets;
  Alcotest.(check int) "singleton buckets" 1 largest;
  Alcotest.(check int) "length counts every registration" 3
    (Rule_index.length index)

let () =
  Alcotest.run "rule_index"
    [
      ( "differential",
        [
          Alcotest.test_case "1500 random programs/events: indexed = naive"
            `Quick differential_cases;
          Alcotest.test_case
            "epoch churn (remove + re-add rounds): indexed = naive" `Quick
            churn_differential_cases;
          Alcotest.test_case "1500 programs with LHS conditions: ranged = naive + condition"
            `Quick condition_differential;
        ] );
      ( "discrimination",
        [
          Alcotest.test_case "registration order" `Quick registration_order;
          Alcotest.test_case "base buckets" `Quick base_discrimination;
          Alcotest.test_case "range skip" `Quick range_skip;
          Alcotest.test_case "select allocates nothing" `Quick iter_allocates_nothing;
        ] );
    ]
