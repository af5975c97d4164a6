open Cm_rule

type t = {
  strategy_name : string;
  description : string;
  rules : Rule.t list;
  aux_init : (Item.t * Value.t) list;
}

let tt = Expr.Const (Value.Bool true)
let step ?(guard = tt) template = { Rule.guard; template }
let var x = Expr.Var x

let rid prefix name =
  match prefix with Some p -> p ^ "/" ^ name | None -> name

let propagate ?prefix ~delta ~source ~target () =
  {
    strategy_name = "propagate";
    description = "forward every notification as a write request";
    rules =
      [
        Rule.make ~id:(rid prefix "prop") ~delta
          ~lhs:(Template.make "N" [ source; var "b" ])
          (Rule.Steps [ step (Template.make "WR" [ target; var "b" ]) ]);
      ];
    aux_init = [];
  }

let propagate_cached ?prefix ~delta ~source ~target ~cache () =
  let cache_item = Expr.Item (cache, []) in
  {
    strategy_name = "propagate-cached";
    description = "forward notifications whose value differs from the CM cache";
    rules =
      [
        Rule.make ~id:(rid prefix "propc") ~delta
          ~lhs:(Template.make "N" [ source; var "b" ])
          (Rule.Steps
             [
               step
                 ~guard:(Expr.Binop (Expr.Ne, cache_item, var "b"))
                 (Template.make "WR" [ target; var "b" ]);
               step (Template.make "W" [ cache_item; var "b" ]);
             ]);
      ];
    (* The cache starts as Null, which differs from every real value, so
       the first notification is always forwarded. *)
    aux_init = [ (Item.make cache, Value.Null) ];
  }

let poll ?prefix ~period ~delta ~source ~target () =
  (match source with
   | Expr.Item (_, args)
     when List.for_all (function Expr.Const _ -> true | _ -> false) args ->
     ()
   | _ -> invalid_arg "Strategy.poll: the polled item must be a concrete item");
  {
    strategy_name = "poll";
    description = "periodically read the source and forward the value";
    rules =
      [
        Rule.make ~id:(rid prefix "tick") ~delta:1.0
          ~lhs:(Template.make "P" [ Expr.Const (Value.Float period) ])
          (Rule.Steps [ step (Template.make "RR" [ source ]) ]);
        Rule.make ~id:(rid prefix "fwd") ~delta
          ~lhs:(Template.make "R" [ source; var "b" ])
          (Rule.Steps [ step (Template.make "WR" [ target; var "b" ]) ]);
      ];
    aux_init = [];
  }

type monitor_aux = { flag : Item.t; tb : Item.t; cx : Item.t; cy : Item.t }

let monitor_base ?prefix () =
  let suffix = match prefix with Some p -> "_" ^ p | None -> "" in
  ( "Flag" ^ suffix, "Tb" ^ suffix, "Cx" ^ suffix, "Cy" ^ suffix )

let monitor_items ?prefix () =
  let flag, tb, cx, cy = monitor_base ?prefix () in
  {
    flag = Item.make flag;
    tb = Item.make tb;
    cx = Item.make cx;
    cy = Item.make cy;
  }

let monitor ?prefix ~delta ~x ~y () =
  let flag, tb, cx, cy = monitor_base ?prefix () in
  let fi = Expr.Item (flag, []) in
  let tbi = Expr.Item (tb, []) in
  let cxi = Expr.Item (cx, []) in
  let cyi = Expr.Item (cy, []) in
  let clock = Expr.Item ("Clock", []) in
  let eq a b = Expr.Binop (Expr.Eq, a, b) in
  let ne a b = Expr.Binop (Expr.Ne, a, b) in
  let conj a b = Expr.Binop (Expr.And, a, b) in
  let caches_equal = eq cxi cyi in
  let flag_false = eq fi (Expr.Const (Value.Bool false)) in
  (* On each notification: refresh the cache, then (caches equal and the
     flag was down) start a new validity window at the current time, then
     set or clear the flag.  Step order matters: Tb is written before
     Flag so a reader seeing Flag = true also sees the matching Tb. *)
  let on_notify id cache_to_update source_pattern =
    Rule.make ~id ~delta
      ~lhs:(Template.make "N" [ source_pattern; var "b" ])
      (Rule.Steps
         [
           step (Template.make "W" [ cache_to_update; var "b" ]);
           step
             ~guard:(conj caches_equal (conj flag_false (eq clock (var "t"))))
             (Template.make "W" [ tbi; var "t" ]);
           step ~guard:caches_equal
             (Template.make "W" [ fi; Expr.Const (Value.Bool true) ]);
           step ~guard:(ne cxi cyi)
             (Template.make "W" [ fi; Expr.Const (Value.Bool false) ]);
         ])
  in
  {
    strategy_name = "monitor";
    description = "maintain Flag/Tb auxiliary data indicating when X = Y held";
    rules =
      [
        on_notify (rid prefix "monx") cxi x;
        on_notify (rid prefix "mony") cyi y;
      ];
    aux_init =
      [
        (Item.make flag, Value.Bool false);
        (Item.make tb, Value.Float 0.0);
      ];
  }

let refint_cache ?prefix ~delta ~parent ~cache () =
  let parent_pat = Expr.Item (parent, [ var "k" ]) in
  let cache_pat = Expr.Item (cache, [ var "k" ]) in
  {
    strategy_name = "refint-cache";
    description = "mirror parent existence into a CM-local cache";
    rules =
      [
        Rule.make ~id:(rid prefix "ins") ~delta
          ~lhs:(Template.make "INS" [ parent_pat ])
          (Rule.Steps
             [ step (Template.make "W" [ cache_pat; Expr.Const (Value.Bool true) ]) ]);
        Rule.make ~id:(rid prefix "del") ~delta
          ~lhs:(Template.make "DEL" [ parent_pat ])
          (Rule.Steps
             [ step (Template.make "W" [ cache_pat; Expr.Const (Value.Bool false) ]) ]);
      ];
    aux_init = [];
  }

let combine ts =
  {
    strategy_name = String.concat "+" (List.map (fun t -> t.strategy_name) ts);
    description = String.concat "; " (List.map (fun t -> t.description) ts);
    rules = List.concat_map (fun t -> t.rules) ts;
    aux_init = List.concat_map (fun t -> t.aux_init) ts;
  }
