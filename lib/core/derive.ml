open Cm_rule

type verdict =
  | Proved of { kappa : float option; derivation : string list }
  | Unprovable of string

type report = {
  follows : verdict;
  leads : verdict;
  strictly_follows : verdict;
  metric_follows : verdict;
}

let verdict_to_string = function
  | Proved { kappa; derivation } ->
    let k = match kappa with Some k -> Printf.sprintf " (kappa = %g)" k | None -> "" in
    "PROVED" ^ k ^ "\n    " ^ String.concat "\n    " derivation
  | Unprovable reason -> "UNPROVABLE: " ^ reason

let report_to_string r =
  String.concat "\n"
    [
      "(1) follows:          " ^ verdict_to_string r.follows;
      "(2) leads:            " ^ verdict_to_string r.leads;
      "(3) strictly-follows: " ^ verdict_to_string r.strictly_follows;
      "(4) metric-follows:   " ^ verdict_to_string r.metric_follows;
    ]

let kappa r =
  match r.metric_follows with
  | Proved { kappa; _ } -> kappa
  | Unprovable _ -> None

let blocking_reason = function
  | { follows = Unprovable reason; leads = Unprovable _;
      strictly_follows = Unprovable _; metric_follows = Unprovable _ } ->
    Some reason
  | _ -> None

type survival = Kept | Upgraded | Lost of string | Never of string

let survival before after =
  match before, after with
  | Proved _, Proved _ -> Kept
  | Unprovable _, Proved _ -> Upgraded
  | Proved _, Unprovable reason -> Lost reason
  | Unprovable _, Unprovable reason -> Never reason

let survival_status = function
  | Kept -> "kept"
  | Upgraded -> "upgraded"
  | Lost _ -> "lost"
  | Never _ -> "never"

(* ---- interface classification per item base ---- *)

type source_channel =
  | Complete of { delta : float; via : string }
  | Filtered of { delta : float; via : string }
  | Sampled of { period : float; delta : float; via : string }

let channel_event = function
  | Complete _ | Filtered _ -> "N"
  | Sampled { via; _ } ->
    (* periodic notify delivers N events; polling delivers R events *)
    if String.length via >= 4 && String.sub via 0 4 = "poll" then "R" else "N"

(* Worst-case observation bound.  A sampled channel (periodic notify,
   read+polling) can sit on a fresh value for a whole period before the
   next sample observes it, so the period is part of the bound — the
   "plus the sampling period" half of the §3.3.1 κ. *)
let channel_delta = function
  | Complete { delta; _ } | Filtered { delta; _ } -> delta
  | Sampled { period; delta; _ } -> period +. delta

let channel_describe = function
  | Complete { via; delta } ->
    Printf.sprintf "complete observation via %s (bound %g)" via delta
  | Filtered { via; delta } ->
    Printf.sprintf "filtered observation via %s (bound %g): some updates unseen" via delta
  | Sampled { via; period; delta } ->
    Printf.sprintf "sampled observation via %s every %gs (bound %g): intermediate values unseen"
      via period delta

let base_of_interface_rule rule =
  match Template.item_base rule.Rule.lhs with
  | Some base -> Some base
  | None ->
    (* periodic notify: the item is on the RHS *)
    List.find_map
      (fun (s : Rule.step) -> Template.item_base s.template)
      (Rule.rhs_steps rule)

let interfaces_of base rules =
  List.filter_map
    (fun rule ->
      match base_of_interface_rule rule with
      | Some b when String.equal b base ->
        Option.map (fun kind -> (kind, rule)) (Interface.classify rule)
      | _ -> None)
    rules

let period_of_p_template (tpl : Template.t) =
  match tpl.Template.name, tpl.Template.args with
  | "P", [ Expr.Const v ] -> Some (Value.to_float v)
  | _ -> None

(* ---- chain search ---- *)

type guard_status =
  | Unconditional
  | Cache_guarded of string
  | Conditional of string

type chain = {
  chain_rules : string list;
  chain_delta : float;
  status : guard_status;
}

let combine_status a b =
  match a, b with
  | Conditional m, _ | _, Conditional m -> Conditional m
  | Cache_guarded c, _ | _, Cache_guarded c -> Cache_guarded c
  | Unconditional, Unconditional -> Unconditional

let is_true = function Expr.Const (Value.Bool true) -> true | _ -> false

(* Detect the §3.2 cache pattern inside a rule's step list: a WR/event
   step guarded by [Cache <> v] followed by an unconditional [W(Cache, v)]
   refreshing the same cache with the same variable. *)
let cache_pattern_ok steps index guard value_var =
  match guard with
  | Expr.Binop (Expr.Ne, Expr.Item (cache, []), Expr.Var v)
  | Expr.Binop (Expr.Ne, Expr.Var v, Expr.Item (cache, [])) ->
    if not (String.equal v value_var) then None
    else
      let refresh_found =
        List.exists
          (fun (s : Rule.step) ->
            is_true s.Rule.guard
            &&
            match s.Rule.template.Template.name, s.Rule.template.Template.args with
            | "W", [ Expr.Item (c, []); Expr.Var v' ] ->
              String.equal c cache && String.equal v' value_var
            | _ -> false)
          (List.filteri (fun i _ -> i > index) steps)
      in
      if refresh_found then Some cache else None
  | _ -> None

(* An event shape: name + item base + which argument position carries the
   source's value (we only track the simple two-argument forms the menu
   strategies use: Name(item, value)). *)
type shape = { ev_name : string; ev_base : string }

let lhs_shape (rule : Rule.t) =
  match rule.Rule.lhs.Template.args with
  | [ Expr.Item (base, _); Expr.Var v ] ->
    Some ({ ev_name = rule.Rule.lhs.Template.name; ev_base = base }, v)
  | _ -> None

let find_chains ~strategy ~start_shape ~target_base =
  let found = ref [] in
  let rec search visited shape path delta status depth =
    if depth <= 5 && not (List.mem shape visited) then
      List.iter
        (fun rule ->
          match lhs_shape rule with
          | Some (s, value_var)
            when String.equal s.ev_name shape.ev_name
                 && String.equal s.ev_base shape.ev_base ->
            let status =
              if is_true rule.Rule.lhs_cond then status
              else combine_status status (Conditional (Expr.to_string rule.Rule.lhs_cond))
            in
            let steps = Rule.rhs_steps rule in
            List.iteri
              (fun i (step : Rule.step) ->
                let step_status =
                  if is_true step.Rule.guard then status
                  else
                    match cache_pattern_ok steps i step.Rule.guard value_var with
                    | Some cache -> combine_status status (Cache_guarded cache)
                    | None ->
                      combine_status status (Conditional (Expr.to_string step.Rule.guard))
                in
                match step.Rule.template.Template.name, step.Rule.template.Template.args with
                | "WR", [ Expr.Item (b, _); Expr.Var v ]
                  when String.equal b target_base && String.equal v value_var ->
                  found :=
                    {
                      chain_rules = path @ [ rule.Rule.id ];
                      chain_delta = delta +. rule.Rule.delta;
                      status = step_status;
                    }
                    :: !found
                | name, [ Expr.Item (b, _); Expr.Var v ]
                  when String.equal v value_var && name <> "W" ->
                  (* value forwarded under another event name: follow it *)
                  search (shape :: visited)
                    { ev_name = name; ev_base = b }
                    (path @ [ rule.Rule.id ])
                    (delta +. rule.Rule.delta) step_status (depth + 1)
                | _ -> ())
              steps
          | _ -> ())
        strategy
  in
  search [] start_shape [] 0.0 Unconditional 0;
  List.rev !found

(* ---- interference: any rule writing the target outside the chains ---- *)

let interfering_rules ~strategy ~target_base ~chain_rule_ids =
  List.filter
    (fun rule ->
      (not (List.mem rule.Rule.id chain_rule_ids))
      && List.exists
           (fun (step : Rule.step) ->
             match step.Rule.template.Template.name, step.Rule.template.Template.args with
             | ("WR" | "W"), (Expr.Item (b, _) :: _) -> String.equal b target_base
             | _ -> false)
           (Rule.rhs_steps rule))
    strategy

(* ---- the derivation ---- *)

let copy_guarantees ~interfaces ~strategy ~source ~target =
  let source_base = Constraint_def.base_of_pattern source in
  let target_base = Constraint_def.base_of_pattern target in
  let src_if = interfaces_of source_base interfaces in
  let tgt_if = interfaces_of target_base interfaces in
  (* 1. observation channels for the source *)
  let poll_channels =
    (* strategy rule P(p) -> RR(source) paired with a read interface *)
    List.filter_map
      (fun rule ->
        match period_of_p_template rule.Rule.lhs with
        | None -> None
        | Some period ->
          let polls_source =
            List.exists
              (fun (step : Rule.step) ->
                String.equal step.Rule.template.Template.name "RR"
                && Template.item_base step.Rule.template = Some source_base)
              (Rule.rhs_steps rule)
          in
          if not polls_source then None
          else
            List.find_map
              (fun (kind, r) ->
                if kind = Interface.Read then
                  Some
                    (Sampled
                       {
                         period;
                         delta = rule.Rule.delta +. r.Rule.delta;
                         via = "polling rule " ^ rule.Rule.id ^ " + read interface";
                       })
                else None)
              src_if)
      strategy
  in
  let channels =
    List.filter_map
      (fun (kind, r) ->
        match kind with
        | Interface.Notify ->
          Some (Complete { delta = r.Rule.delta; via = "notify interface " ^ r.Rule.id })
        | Interface.Conditional_notify ->
          Some (Filtered { delta = r.Rule.delta; via = "conditional notify " ^ r.Rule.id })
        | Interface.Periodic_notify ->
          let period =
            Option.value (period_of_p_template r.Rule.lhs) ~default:infinity
          in
          Some
            (Sampled
               { period; delta = r.Rule.delta; via = "periodic notify " ^ r.Rule.id })
        | _ -> None)
      src_if
    @ poll_channels
  in
  let write_delta =
    List.find_map
      (fun (kind, r) -> if kind = Interface.Write then Some r.Rule.delta else None)
      tgt_if
  in
  let target_quiet =
    List.exists (fun (kind, _) -> kind = Interface.No_spontaneous_write) tgt_if
  in
  (* 2. chains from each channel *)
  let chains_of channel =
    find_chains ~strategy
      ~start_shape:{ ev_name = channel_event channel; ev_base = source_base }
      ~target_base
  in
  let channel_chains = List.map (fun c -> (c, chains_of c)) channels in
  let live = List.filter (fun (_, chains) -> chains <> []) channel_chains in
  let all_chain_rule_ids =
    List.concat_map (fun (_, chains) -> List.concat_map (fun c -> c.chain_rules) chains) live
  in
  let interference = interfering_rules ~strategy ~target_base ~chain_rule_ids:all_chain_rule_ids in
  (* 3. verdicts *)
  match write_delta with
  | None ->
    let blocked = Unprovable ("no write interface on " ^ target_base) in
    { follows = blocked; leads = blocked; strictly_follows = blocked; metric_follows = blocked }
  | Some write_delta -> (
    match live with
    | [] ->
      let blocked =
        Unprovable
          (Printf.sprintf "no propagation chain from %s observations to WR(%s, ...)"
             source_base target_base)
      in
      { follows = blocked; leads = blocked; strictly_follows = blocked;
        metric_follows = blocked }
    | _ ->
      let conditional_chain =
        List.find_map
          (fun (_, chains) ->
            List.find_map
              (fun c ->
                match c.status with Conditional m -> Some m | _ -> None)
              chains)
          live
      in
      let describe_chains () =
        List.concat_map
          (fun (channel, chains) ->
            channel_describe channel
            :: List.map
                 (fun c ->
                   Printf.sprintf "chain [%s], rule bounds sum %g%s"
                     (String.concat " -> " c.chain_rules)
                     c.chain_delta
                     (match c.status with
                      | Unconditional -> ""
                      | Cache_guarded cache ->
                        Printf.sprintf " (cache pattern on %s: sound skip)" cache
                      | Conditional m -> " (CONDITIONAL on " ^ m ^ ")"))
                 chains)
          live
      in
      let base_derivation = describe_chains () in
      let follows =
        if not target_quiet then
          Unprovable
            (Printf.sprintf
               "%s may be updated spontaneously — declare a no-spontaneous-write \
                interface to rule out foreign values"
               target_base)
        else if interference <> [] then
          Unprovable
            ("other rules also write the target: "
            ^ String.concat ", " (List.map (fun r -> r.Rule.id) interference))
        else
          match conditional_chain with
          | Some m -> Unprovable ("a chain is guarded by an unrecognized condition: " ^ m)
          | None ->
            Proved
              {
                kappa = None;
                derivation =
                  base_derivation
                  @ [
                      "every write to " ^ target_base
                      ^ " carries a value observed at " ^ source_base ^ " unchanged";
                      "no spontaneous writes on " ^ target_base ^ " (declared interface)";
                    ];
              }
      in
      let leads =
        let complete =
          List.find_opt
            (fun (channel, chains) ->
              (match channel with Complete _ -> true | _ -> false)
              && List.exists
                   (fun c ->
                     match c.status with Unconditional | Cache_guarded _ -> true | Conditional _ -> false)
                   chains)
            live
        in
        match complete with
        | Some (channel, _) ->
          Proved
            {
              kappa = None;
              derivation =
                [
                  channel_describe channel;
                  "every spontaneous update is observed and forwarded unconditionally";
                  "write interface performs every requested write within "
                  ^ string_of_float write_delta ^ "s";
                ];
            }
        | None ->
          Unprovable
            "no complete observation channel: filtered/sampled channels can miss \
             values (§4.2.3)"
      in
      let strictly_follows =
        match follows with
        | Unprovable m -> Unprovable m
        | Proved _ ->
          let chain_count =
            List.fold_left (fun acc (_, chains) -> acc + List.length chains) 0 live
          in
          if chain_count > 1 then
            Unprovable
              (Printf.sprintf
                 "%d distinct propagation chains could race; ordering cannot be \
                  established" chain_count)
          else
            Proved
              {
                kappa = None;
                derivation =
                  base_derivation
                  @ [
                      "single chain + in-order message processing (Appendix A.2, p7) \
                       preserve update order";
                    ];
              }
      in
      let metric_follows =
        match follows with
        | Unprovable m -> Unprovable m
        | Proved _ ->
          let worst =
            List.fold_left
              (fun acc (channel, chains) ->
                List.fold_left
                  (fun acc c ->
                    Float.max acc (channel_delta channel +. c.chain_delta +. write_delta))
                  acc chains)
              0.0 live
          in
          Proved
            {
              kappa = Some worst;
              derivation =
                base_derivation
                @ [
                    Printf.sprintf
                      "kappa = observation bound + rule bounds + write bound = %g" worst;
                  ];
            }
      in
      { follows; leads; strictly_follows; metric_follows })
