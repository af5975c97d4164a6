open Cm_rule

type candidate = {
  candidate_name : string;
  strategy : Strategy.t;
  guarantees : Guarantee.t list;
  report : Derive.report option;
  notes : string;
}

let rule_delta = 5.0
let poll_period = 60.0

(* Guarantees are expressed over representative concrete items; for a
   family pattern the representative is the bare base item. *)
let representative = function
  | Expr.Item (base, []) -> Item.make base
  | Expr.Item (base, args) ->
    let concrete =
      List.filter_map (function Expr.Const v -> Some v | _ -> None) args
    in
    if List.length concrete = List.length args then Item.make base ~params:concrete
    else Item.make base
  | e -> invalid_arg ("Suggest: not an item pattern: " ^ Expr.to_string e)

let statements_of interfaces base =
  List.filter (fun r -> Interface.served_base r = Some base) interfaces

let kinds_of interfaces base = Interface.kinds_of_rules (statements_of interfaces base)

let has kind kinds = List.mem kind kinds

(* The slowest notification statement [base] offers. *)
let notify_delta interfaces base =
  List.fold_left
    (fun acc r ->
      match Interface.classify r with
      | Some (Interface.Notify | Interface.Conditional_notify) -> Float.max acc r.Rule.delta
      | _ -> acc)
    0.0 (statements_of interfaces base)

let poll_strategy ~target_base ~source ~target =
  match source with
  | Expr.Item (_, args)
    when List.for_all (function Expr.Const _ -> true | _ -> false) args ->
    ( Strategy.poll ~prefix:target_base ~period:poll_period ~delta:rule_delta ~source
        ~target (),
      "" )
  | _ ->
    (* A read request must name a concrete item, so a parameterized
       family gets only the forwarding half here; the toolkit user
       installs one tick rule per instance. *)
    ( {
        Strategy.strategy_name = "poll-family";
        description = "forward read responses (per-instance tick rules required)";
        rules =
          [
            Rule.make ~id:(target_base ^ "/fwd") ~delta:rule_delta
              ~lhs:(Template.make "R" [ source; Expr.Var "b" ])
              (Rule.Steps
                 [
                   {
                     Rule.guard = Expr.Const (Value.Bool true);
                     template = Template.make "WR" [ target; Expr.Var "b" ];
                   };
                 ]);
          ];
        aux_init = [];
      },
      "; install one P(p) -> RR rule per family instance" )

let copy_candidates interfaces source target =
  let source_base = Constraint_def.base_of_pattern source in
  let target_base = Constraint_def.base_of_pattern target in
  let src_kinds = kinds_of interfaces source_base in
  let tgt_kinds = kinds_of interfaces target_base in
  let pair = { Guarantee.leader = representative source; follower = representative target } in
  (* A copy candidate offers what Derive proves over the statements plus
     the candidate's own rules — nothing else. *)
  let derived candidate_name strategy notes =
    let report =
      Derive.copy_guarantees ~interfaces ~strategy:strategy.Strategy.rules ~source ~target
    in
    { candidate_name; strategy; guarantees = Derive.guarantees pair report;
      report = Some report; notes }
  in
  let notifies =
    List.exists (fun k -> has k src_kinds)
      [ Interface.Notify; Interface.Conditional_notify; Interface.Periodic_notify ]
  in
  let writable = has Interface.Write tgt_kinds in
  let observed kinds = has Interface.Notify kinds || has Interface.Conditional_notify kinds in
  List.concat
    [
      (if writable && notifies then
         [
           derived "propagate"
             (Strategy.propagate ~prefix:target_base ~delta:rule_delta ~source ~target ())
             "forwards whichever notifications the source offers; the derivation \
              shows what they support";
         ]
       else []);
      (if writable && has Interface.Notify src_kinds then
         [
           derived "propagate-cached"
             (Strategy.propagate_cached ~prefix:target_base ~delta:rule_delta ~source
                ~target ~cache:("C_" ^ target_base) ())
             "as propagate, but duplicate values are not re-sent; locate the cache \
              item C_<target> at the target's shell";
         ]
       else []);
      (if writable && has Interface.Read src_kinds && not notifies then
         let strategy, extra_note = poll_strategy ~target_base ~source ~target in
         [
           derived "poll" strategy
             (Printf.sprintf "read-only source: the CM reads it every %gs (§4.2.3)%s"
                poll_period extra_note);
         ]
       else []);
      (* No write access to the target: monitoring is the best we can do. *)
      (if (not writable) && observed src_kinds && observed tgt_kinds then
         let aux = Strategy.monitor_items ~prefix:target_base () in
         let kappa =
           rule_delta
           +. Float.max (notify_delta interfaces source_base)
                (notify_delta interfaces target_base)
         in
         [
           {
             candidate_name = "monitor";
             strategy =
               Strategy.monitor ~prefix:target_base ~delta:rule_delta ~x:source ~y:target ();
             guarantees =
               [
                 Guarantee.Monitor_window
                   { flag = aux.Strategy.flag; tb = aux.Strategy.tb; x = pair.leader;
                     y = pair.follower; kappa };
               ];
             report = None;
             notes = "CM cannot write either item: monitor only (§6.3)";
           };
         ]
       else []);
    ]

let leq_candidates interfaces smaller larger =
  let s_kinds = kinds_of interfaces smaller.Item.base in
  let l_kinds = kinds_of interfaces larger.Item.base in
  if
    has Interface.Write s_kinds && has Interface.Read s_kinds
    && has Interface.Write l_kinds && has Interface.Read l_kinds
  then
    let mk policy name =
      let x =
        { Demarcation.bal = smaller.Item.base; lim = smaller.Item.base ^ "_lim";
          pend = "Pend_" ^ smaller.Item.base }
      in
      let y =
        { Demarcation.bal = larger.Item.base; lim = larger.Item.base ^ "_lim";
          pend = "Pend_" ^ larger.Item.base }
      in
      {
        candidate_name = name;
        strategy =
          Demarcation.rules ~prefix:smaller.Item.base ~policy ~delta:rule_delta ~x ~y ();
        guarantees = [ Guarantee.Always_leq { smaller; larger } ];
        report = None;
        notes =
          "Demarcation Protocol (§6.1): requires local CHECK enforcement of \
           the limits and <base>_lim limit items bound on both databases";
      }
    in
    [
      mk Demarcation.Conservative "demarcation (conservative grants)";
      mk Demarcation.Eager "demarcation (eager grants)";
    ]
  else []

let refint_candidates ~parent ~child ~bound_secs =
  let cache = "C_" ^ parent in
  [
    {
      candidate_name = "refint-sweep";
      strategy = Strategy.refint_cache ~prefix:child ~delta:rule_delta ~parent ~cache ();
      guarantees =
        [
          Guarantee.Exists_within
            {
              antecedent = Item.make child;
              consequent = Item.make parent;
              bound = bound_secs;
            };
        ];
      report = None;
      notes =
        Printf.sprintf
          "cache parent existence at the child's shell; a periodic sweep (every \
           %gs at most) deletes orphaned children (§6.2)"
          bound_secs;
    };
  ]

let for_constraint ~interfaces constraint_def =
  match constraint_def with
  | Constraint_def.Copy { source; target } -> copy_candidates interfaces source target
  | Constraint_def.Leq { smaller; larger } -> leq_candidates interfaces smaller larger
  | Constraint_def.Ref_int { parent; child; bound } ->
    refint_candidates ~parent ~child ~bound_secs:bound

let describe c =
  let lines f xs = String.concat "\n" (List.map f xs) in
  let rules = lines (fun r -> "    " ^ Rule.to_string r) c.strategy.Strategy.rules in
  let guarantees =
    if c.guarantees = [] then "    none proved"
    else
      lines
        (fun g -> Printf.sprintf "    %s: %s" (Guarantee.name g) (Guarantee.to_string g))
        c.guarantees
  in
  let derivation =
    match c.report with
    | None -> ""
    | Some r ->
      "\n  derivation:\n"
      ^ lines (fun l -> "    " ^ l) (String.split_on_char '\n' (Derive.report_to_string r))
  in
  Printf.sprintf "%s — %s\n  rules:\n%s\n  guarantees:\n%s%s\n  note: %s"
    c.candidate_name c.strategy.Strategy.description rules guarantees derivation c.notes
