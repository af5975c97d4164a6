module Rule = Cm_rule.Rule
module Template = Cm_rule.Template
module Expr = Cm_rule.Expr
module Item = Cm_rule.Item
module Value = Cm_rule.Value
module Parser = Cm_rule.Parser
module Cmrid = Cm_core.Cmrid
module Chase = Cm_chase.Chase
module Interface = Cm_core.Interface
module Toolkit = Cm_core.Toolkit
module Json = Cm_util.Json
module Derive = Cm_core.Derive

type severity = Error | Warning | Info

type finding = {
  code : string;
  severity : severity;
  file : string;
  line : int option;
  site : string option;
  message : string;
}

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let compare_finding a b =
  let line f = Option.value f.line ~default:0 in
  let c = compare a.file b.file in
  if c <> 0 then c
  else
    let c = compare (line a) (line b) in
    if c <> 0 then c
    else
      let c = compare a.code b.code in
      if c <> 0 then c
      else
        let c = compare a.site b.site in
        if c <> 0 then c else compare a.message b.message

let summary findings =
  List.fold_left
    (fun (e, w, i) f ->
      match f.severity with
      | Error -> (e + 1, w, i)
      | Warning -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) findings

let exit_code ?(deny_warnings = false) findings =
  let errors, warnings, _ = summary findings in
  if errors > 0 then 1 else if deny_warnings && warnings > 0 then 1 else 0

let finding_to_string f =
  let loc = match f.line with Some l -> Printf.sprintf "%s:%d" f.file l | None -> f.file in
  let site = match f.site with Some s -> Printf.sprintf " (site %s)" s | None -> "" in
  Printf.sprintf "%s: %s[%s]%s: %s" loc (severity_to_string f.severity) f.code site f.message

let to_text findings =
  match findings with
  | [] -> "no findings"
  | fs ->
    let errors, warnings, infos = summary fs in
    String.concat "\n" (List.map finding_to_string fs)
    ^ Printf.sprintf "\n%d error(s), %d warning(s), %d info(s)" errors warnings infos

let to_json ~checked findings =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\"checked\":\"%s\",\"findings\":[" (Json.escape checked));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"code\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%s,\"site\":%s,\"message\":\"%s\"}"
           (Json.escape f.code)
           (severity_to_string f.severity)
           (Json.escape f.file)
           (match f.line with Some l -> string_of_int l | None -> "null")
           (match f.site with Some s -> "\"" ^ Json.escape s ^ "\"" | None -> "null")
           (Json.escape f.message)))
    findings;
  let errors, warnings, infos = summary findings in
  Buffer.add_string buf
    (Printf.sprintf "],\"errors\":%d,\"warnings\":%d,\"infos\":%d}" errors warnings infos);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Analysis context                                                    *)

(* An item declaration reduced to what the checks need. *)
type item_info = {
  ii_site : string;
  ii_arity : int;
  ii_line : int;
  ii_params : string list;
  ii_readable : bool;
  ii_writable : bool;
  ii_deletable : bool;
  ii_notifies : bool;  (* has a spontaneous (Ws-triggered) notify channel *)
  ii_no_spontaneous : bool;
}

(* A rule with its provenance, for file:line diagnostics. *)
type lrule = {
  rule : Rule.t;
  rfile : string;
  rline : int option;
  kind : Interface.kind option;  (* Some _ = interface statement *)
}

type ctx = {
  items : (string, item_info) Hashtbl.t;  (* empty in rule-level mode *)
  aux : (string, string * int) Hashtbl.t;  (* CM-auxiliary base -> site, line *)
  locator : Item.locator;
  config_mode : bool;
  ifaces : lrule list;  (* interface statements (synthesized + extra) *)
  strategy : lrule list;
  all : lrule list;  (* ifaces @ strategy: the trigger-graph nodes *)
}

let is_true_expr = function Expr.Const (Value.Bool true) -> true | _ -> false

let contains_substring hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* Every (base, arity) an expression references, in occurrence order. *)
let rec expr_refs acc (e : Expr.t) =
  match e with
  | Expr.Item (b, args) | Expr.Exists (b, args) ->
    List.fold_left expr_refs ((b, List.length args) :: acc) args
  | Expr.Unop (_, a) -> expr_refs acc a
  | Expr.Binop (_, a, b) -> expr_refs (expr_refs acc a) b
  | Expr.Const _ | Expr.Var _ | Expr.Wildcard -> acc

let template_refs acc (t : Template.t) = List.fold_left expr_refs acc t.Template.args

let rule_refs (r : Rule.t) =
  let acc = template_refs [] r.Rule.lhs in
  let acc = expr_refs acc r.Rule.lhs_cond in
  let acc =
    List.fold_left
      (fun acc (s : Rule.step) -> template_refs (expr_refs acc s.Rule.guard) s.Rule.template)
      acc (Rule.rhs_steps r)
  in
  List.sort_uniq compare acc

(* Item bases read by the rule's conditions (LHS condition + step guards). *)
let cond_read_bases (r : Rule.t) =
  let acc = expr_refs [] r.Rule.lhs_cond in
  let acc =
    List.fold_left (fun acc (s : Rule.step) -> expr_refs acc s.Rule.guard) acc (Rule.rhs_steps r)
  in
  List.sort_uniq compare (List.map fst acc)

let step_bases names (r : Rule.t) =
  List.filter_map
    (fun (s : Rule.step) ->
      if List.mem s.Rule.template.Template.name names then Template.item_base s.Rule.template
      else None)
    (Rule.rhs_steps r)
  |> List.sort_uniq compare

(* Does any rule in [lrs] emit an event [name] on [base]? *)
let emits lrs name base =
  List.exists
    (fun lr ->
      List.exists
        (fun (s : Rule.step) ->
          String.equal s.Rule.template.Template.name name
          && Template.item_base s.Rule.template = Some base)
        (Rule.rhs_steps lr.rule))
    lrs

(* The rule's canonical text without its label, for duplicate detection. *)
let body_string (r : Rule.t) =
  let s = Rule.to_string r in
  let p = String.length r.Rule.id + 2 in
  if String.length s >= p then String.sub s p (String.length s - p) else s

let iface_kinds_for ctx base =
  List.filter_map
    (fun lr -> if Interface.served_base lr.rule = Some base then lr.kind else None)
    ctx.ifaces

let rule_ids lrs = List.sort_uniq compare (List.map (fun lr -> lr.rule.Rule.id) lrs)

let where lr = (lr.rfile, lr.rline)

(* Keep the first occurrence of each (label, body) pair: the same rule
   shipped both inline in the configuration and in a rule file is one
   rule, not a duplicate. *)
let dedup_exact lrs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun lr ->
      let k = (lr.rule.Rule.id, body_string lr.rule) in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    lrs

(* ------------------------------------------------------------------ *)
(* Interface synthesis: the statements the translators Toolkit.build
   configures report, each pointing at its item declaration.           *)

let synth_interfaces ~file (config : Cmrid.t) =
  List.concat_map
    (fun (src : Cmrid.source_decl) ->
      List.concat_map
        (fun (it : Cmrid.item_decl) ->
          List.map
            (fun r ->
              {
                rule = r;
                rfile = file;
                rline = Some it.Cmrid.i_line;
                kind = Interface.classify r;
              })
            (Toolkit.item_interfaces src it))
        src.Cmrid.s_items)
    config.Cmrid.sources

(* ------------------------------------------------------------------ *)
(* Pass 1: resolution                                                  *)

let resolution_pass ctx add =
  List.iter
    (fun lr ->
      let file, line = where lr in
      let id = lr.rule.Rule.id in
      let unknown = ref false in
      if ctx.config_mode then
        List.iter
          (fun (base, arity) ->
            match Hashtbl.find_opt ctx.items base with
            | Some ii ->
              if arity <> ii.ii_arity then
                add
                  {
                    code = "R002";
                    severity = Error;
                    file;
                    line;
                    site = Some ii.ii_site;
                    message =
                      Printf.sprintf
                        "rule %s uses %s with %d parameter(s), but it is declared with %d" id
                        base arity ii.ii_arity;
                  }
            | None ->
              if not (Hashtbl.mem ctx.aux base) then begin
                unknown := true;
                add
                  {
                    code = "R001";
                    severity = Error;
                    file;
                    line;
                    site = None;
                    message =
                      Printf.sprintf
                        "rule %s references undeclared item base %s (no item or location declares it)"
                        id base;
                  }
              end)
          (rule_refs lr.rule);
      match Rule.check_well_formed lr.rule ctx.locator with
      | Stdlib.Ok () -> ()
      | Stdlib.Error msg ->
        let msg =
          (* check_well_formed already names the rule *)
          if contains_substring msg id then msg else Printf.sprintf "rule %s: %s" id msg
        in
        if contains_substring msg "unbound" then
          add { code = "R003"; severity = Error; file; line; site = None; message = msg }
        else if not !unknown then
          (* An undeclared base resolves to the "unknown" site, so the
             multi-site complaint would be a cascade of R001. *)
          add { code = "R004"; severity = Error; file; line; site = None; message = msg })
    (ctx.strategy @ ctx.ifaces)

let location_pass ~file (config : Cmrid.t) add =
  let source_sites = List.map (fun s -> s.Cmrid.s_site) config.Cmrid.sources in
  List.iter
    (fun (l : Cmrid.location_decl) ->
      if not (List.mem l.Cmrid.l_site source_sites) then
        add
          {
            code = "R005";
            severity = Warning;
            file;
            line = Some l.Cmrid.l_line;
            site = Some l.Cmrid.l_site;
            message =
              Printf.sprintf
                "location places %s at site %s, which no source declares — a CM-Shell runs there with no data source behind it (possible typo)"
                l.Cmrid.l_base l.Cmrid.l_site;
          })
    config.Cmrid.locations

(* ------------------------------------------------------------------ *)
(* Pass 2: capability checking against the declared interfaces (§3.1.1) *)

let capability_pass ctx add =
  let declared base = Hashtbl.find_opt ctx.items base in
  let has_kind base k = List.mem k (iface_kinds_for ctx base) in
  let writable base =
    if ctx.config_mode then
      match declared base with Some ii -> Some ii.ii_writable | None -> None
    else Some (has_kind base Interface.Write)
  in
  let deletable base =
    if ctx.config_mode then
      match declared base with Some ii -> Some ii.ii_deletable | None -> None
    else Some (has_kind base Interface.Delete)
  in
  let spontaneous_notify base =
    (match declared base with Some ii -> ii.ii_notifies | None -> false)
    || has_kind base Interface.Notify
    || has_kind base Interface.Conditional_notify
  in
  let periodic_notify base = has_kind base Interface.Periodic_notify in
  let no_spontaneous base =
    (match declared base with Some ii -> ii.ii_no_spontaneous | None -> false)
    || has_kind base Interface.No_spontaneous_write
  in
  let site_of base =
    match declared base with
    | Some ii -> Some ii.ii_site
    | None -> (
      match Hashtbl.find_opt ctx.aux base with
      | Some (site, _) -> Some site
      | None -> if ctx.config_mode then None else Some (ctx.locator (Item.make base)))
  in
  List.iter
    (fun lr ->
      let file, line = where lr in
      let r = lr.rule in
      let id = r.Rule.id in
      let mk code severity base message =
        add { code; severity; file; line; site = site_of base; message }
      in
      (* Requests the rule issues. *)
      List.iter
        (fun (s : Rule.step) ->
          match s.Rule.template.Template.name, Template.item_base s.Rule.template with
          | "WR", Some base -> (
            match writable base with
            | Some false ->
              mk "CAP001" Error base
                (Printf.sprintf
                   "rule %s issues the write request WR(%s), but %s has no write interface (§3.1.1) — the translator will reject it"
                   id base base)
            | _ -> ())
          | "DR", Some base -> (
            match deletable base with
            | Some false ->
              mk "CAP003" Error base
                (Printf.sprintf
                   "rule %s issues the delete request DR(%s), but %s has no delete interface (§3.1.1)"
                   id base base)
            | _ -> ())
          | _ -> ())
        (Rule.rhs_steps r);
      (* Events the rule waits for. *)
      match r.Rule.lhs.Template.name, Template.item_base r.Rule.lhs with
      | "N", Some base ->
        let known = ctx.config_mode = false || declared base <> None || Hashtbl.mem ctx.aux base in
        if known then
          if
            not
              (spontaneous_notify base || periodic_notify base || emits ctx.strategy "N" base)
          then
            mk "CAP002" Error base
              (Printf.sprintf
                 "rule %s subscribes to N(%s), but %s offers no notification interface and no rule emits N(%s) — the rule can never fire"
                 id base base base)
          else if
            no_spontaneous base
            && (not (periodic_notify base))
            && not (emits ctx.strategy "N" base)
          then
            mk "CAP004" Warning base
              (Printf.sprintf
                 "rule %s waits for notifications of %s, a no-spontaneous source: only CM-initiated writes occur there and those raise no N events"
                 id base)
      | "Ws", Some base ->
        if no_spontaneous base && not (emits ctx.strategy "Ws" base) then
          mk "CAP004" Warning base
            (Printf.sprintf
               "rule %s triggers on Ws(%s), but %s declares no spontaneous writes — the trigger can never occur"
               id base base)
      | _ -> ())
    ctx.strategy

(* ------------------------------------------------------------------ *)
(* Pass 3: conflict analysis over the static rule dependency graph     *)

(* Tarjan's strongly connected components, shared with the chase-based
   dependency analysis via Cm_util.Graph. *)
let sccs = Cm_util.Graph.sccs

let conflict_pass ctx add =
  let rules = Array.of_list ctx.all in
  let n = Array.length rules in
  (* Edges: rule a's step can produce an event matching rule b's trigger.
     An edge is damped when the producing step is guarded or the consumer
     has a non-trivial LHS condition — the loop-breaking conditions of
     Appendix A. *)
  let compatible pb cb =
    match pb, cb with Some a, Some b -> String.equal a b | _ -> true
  in
  let edges = Array.make n [] in
  for a = 0 to n - 1 do
    List.iter
      (fun (s : Rule.step) ->
        if not (Template.is_false s.Rule.template) then
          for b = 0 to n - 1 do
            let consumer = rules.(b).rule in
            if
              (not (Template.is_false consumer.Rule.lhs))
              && String.equal s.Rule.template.Template.name consumer.Rule.lhs.Template.name
              && compatible
                   (Template.item_base s.Rule.template)
                   (Template.item_base consumer.Rule.lhs)
            then
              let damped =
                (not (is_true_expr s.Rule.guard)) || not (is_true_expr consumer.Rule.lhs_cond)
              in
              if not (List.mem (b, damped) edges.(a)) then
                edges.(a) <- (b, damped) :: edges.(a)
          done)
      (Rule.rhs_steps rules.(a).rule)
  done;
  let succs_of keep v = List.filter_map (fun (w, d) -> if keep d then Some w else None) edges.(v) in
  let cyclic = Cm_util.Graph.cyclic in
  let comp_finding code severity comp message_of =
    let members = List.map (fun v -> rules.(v)) comp in
    let ids = rule_ids members in
    let lines = List.filter_map (fun lr -> lr.rline) members in
    let line = match lines with [] -> None | ls -> Some (List.fold_left min max_int ls) in
    let file =
      match List.find_opt (fun lr -> lr.rline = line || line = None) members with
      | Some lr -> lr.rfile
      | None -> (List.hd members).rfile
    in
    add { code; severity; file; line; site = None; message = message_of ids }
  in
  let undamped_succs = succs_of (fun d -> not d) in
  let undamped_comps = List.filter (cyclic undamped_succs) (sccs n undamped_succs) in
  List.iter
    (fun comp ->
      comp_finding "CON002" Error comp (fun ids ->
          Printf.sprintf
            "rules %s form a firing cycle with no damping condition — guaranteed non-termination once triggered (Appendix A)"
            (String.concat ", " ids)))
    undamped_comps;
  let all_succs = succs_of (fun _ -> true) in
  let covered = List.map (fun comp -> List.sort compare comp) undamped_comps in
  List.iter
    (fun comp ->
      let sorted = List.sort compare comp in
      let subsumes inner = List.for_all (fun v -> List.mem v sorted) inner in
      if cyclic all_succs comp && not (List.exists subsumes covered) then
        comp_finding "CON004" Info comp (fun ids ->
            Printf.sprintf
              "rules %s form a firing cycle broken only by their conditions — verify the damping condition eventually turns false (Appendix A)"
              (String.concat ", " ids)))
    (sccs n all_succs);
  (* Write/write: two strategy rules detecting at different sites write
     the same item; their firings race and the last write wins. *)
  let writers = Hashtbl.create 8 in
  List.iter
    (fun lr ->
      List.iter
        (fun base ->
          let prior = Option.value (Hashtbl.find_opt writers base) ~default:[] in
          if not (List.memq lr prior) then Hashtbl.replace writers base (lr :: prior))
        (step_bases [ "WR"; "W" ] lr.rule))
    ctx.strategy;
  Hashtbl.fold (fun base lrs acc -> (base, List.rev lrs) :: acc) writers []
  |> List.sort compare
  |> List.iter (fun (base, lrs) ->
         let sites =
           List.filter_map (fun lr -> Rule.lhs_site lr.rule ctx.locator) lrs
           |> List.sort_uniq compare
         in
         if List.length sites >= 2 then begin
           let lines = List.filter_map (fun lr -> lr.rline) lrs in
           let line = match lines with [] -> None | ls -> Some (List.fold_left min max_int ls) in
           add
             {
               code = "CON001";
               severity = Warning;
               file = (List.hd lrs).rfile;
               line;
               site = None;
               message =
                 Printf.sprintf
                   "rules %s all write %s but detect their triggers at different sites (%s) — concurrent firings race on the item (write/write conflict)"
                   (String.concat ", " (rule_ids lrs))
                   base
                   (String.concat ", " sites);
             }
         end);
  (* Trigger/write: two rules fired by the same event where one writes an
     item the other's condition reads — the outcome depends on order. *)
  let strategy = Array.of_list ctx.strategy in
  for i = 0 to Array.length strategy - 1 do
    for j = i + 1 to Array.length strategy - 1 do
      let a = strategy.(i) and b = strategy.(j) in
      let la = a.rule.Rule.lhs and lb = b.rule.Rule.lhs in
      if
        (not (Template.is_false la))
        && String.equal la.Template.name lb.Template.name
        && compatible (Template.item_base la) (Template.item_base lb)
      then begin
        let hazard writer reader =
          let overlap =
            List.filter
              (fun base -> List.mem base (cond_read_bases reader.rule))
              (step_bases [ "WR"; "W" ] writer.rule)
          in
          match overlap with
          | [] -> ()
          | base :: _ ->
            let lines = List.filter_map (fun lr -> lr.rline) [ writer; reader ] in
            let line = match lines with [] -> None | ls -> Some (List.fold_left min max_int ls) in
            add
              {
                code = "CON003";
                severity = Warning;
                file = writer.rfile;
                line;
                site = None;
                message =
                  Printf.sprintf
                    "rules %s and %s fire on the same trigger; %s writes %s while %s reads it in a condition — the outcome depends on firing order (trigger/write conflict)"
                    writer.rule.Rule.id reader.rule.Rule.id writer.rule.Rule.id base
                    reader.rule.Rule.id;
              }
        in
        hazard a b;
        hazard b a
      end
    done
  done

(* ------------------------------------------------------------------ *)
(* Pass 4: guarantee feasibility (drives the Derive prover, §3.3.1)    *)

let guarantee_pass ctx ~file (config : Cmrid.t) add =
  List.iter
    (fun (c : Cmrid.constraint_decl) ->
      let line = Some c.Cmrid.c_line in
      let missing base =
        add
          {
            code = "R001";
            severity = Error;
            file;
            line;
            site = None;
            message =
              Printf.sprintf "constraint copy references undeclared item base %s" base;
          }
      in
      match
        ( Hashtbl.find_opt ctx.items c.Cmrid.c_source,
          Hashtbl.find_opt ctx.items c.Cmrid.c_target )
      with
      | None, _ -> missing c.Cmrid.c_source
      | _, None -> missing c.Cmrid.c_target
      | Some si, Some ti ->
        let pattern base (ii : item_info) = Interface.family base ii.ii_params in
        let report =
          Derive.copy_guarantees
            ~interfaces:(List.map (fun lr -> lr.rule) ctx.ifaces)
            ~strategy:(List.map (fun lr -> lr.rule) ctx.strategy)
            ~source:(pattern c.Cmrid.c_source si)
            ~target:(pattern c.Cmrid.c_target ti)
        in
        (* The "all four unprovable" condition and its reason come from
           Derive's report vocabulary, shared with the read router. *)
        (match Derive.blocking_reason report with
        | None -> ()
        | Some reason ->
          add
            {
              code = "GRT001";
              severity = Warning;
              file;
              line;
              site = Some ti.ii_site;
              message =
                Printf.sprintf
                  "constraint %s = copy(%s): none of the four §3.3.1 guarantees is provable from these specifications — %s"
                  c.Cmrid.c_target c.Cmrid.c_source reason;
            }))
    config.Cmrid.constraints

(* ------------------------------------------------------------------ *)
(* Pass 5: hygiene                                                     *)

let duplicate_pass ctx add =
  let user = ctx.all in
  let groups key lrs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun lr ->
        let k = key lr in
        let prior = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
        Hashtbl.replace tbl k (lr :: prior))
      lrs;
    Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl [] |> List.sort compare
  in
  (* Same label, different bodies: later definitions shadow nothing — both
     fire, but references to the label are ambiguous. *)
  List.iter
    (fun (id, lrs) ->
      if List.length lrs > 1 then
        let locations =
          List.map
            (fun lr ->
              match lr.rline with
              | Some l -> Printf.sprintf "%s:%d" lr.rfile l
              | None -> lr.rfile)
            lrs
        in
        add
          {
            code = "HYG002";
            severity = Warning;
            file = (List.hd lrs).rfile;
            line = (List.hd lrs).rline;
            site = None;
            message =
              Printf.sprintf "label %s names %d different rules (%s)" id (List.length lrs)
                (String.concat ", " locations);
          })
    (groups (fun lr -> lr.rule.Rule.id) user);
  (* Same body under different labels: both fire on every trigger. *)
  List.iter
    (fun (_, lrs) ->
      if List.length lrs > 1 then
        add
          {
            code = "HYG002";
            severity = Warning;
            file = (List.hd lrs).rfile;
            line = (List.hd lrs).rline;
            site = None;
            message =
              Printf.sprintf
                "rules %s are identical apart from their labels — each trigger fires all of them"
                (String.concat ", " (rule_ids lrs));
          })
    (groups (fun lr -> body_string lr.rule) user)

let reachability_pass ctx add =
  List.iter
    (fun lr ->
      let file, line = where lr in
      let r = lr.rule in
      let id = r.Rule.id in
      let name = r.Rule.lhs.Template.name in
      let dead base message =
        let site =
          match Hashtbl.find_opt ctx.items base with
          | Some ii -> Some ii.ii_site
          | None -> Option.map fst (Hashtbl.find_opt ctx.aux base)
        in
        add { code = "HYG001"; severity = Warning; file; line; site; message }
      in
      match Template.item_base r.Rule.lhs with
      | None -> ()  (* P(p) and item-free CM-internal events: reachable *)
      | Some base ->
        let known = Hashtbl.mem ctx.items base || Hashtbl.mem ctx.aux base in
        if known then (
          let info = Hashtbl.find_opt ctx.items base in
          let emitted n = emits ctx.strategy n base in
          match name with
          | "WR" | "RR" | "DR" ->
            if not (emitted name) then
              dead base
                (Printf.sprintf
                   "rule %s triggers on %s(%s), but %s events are only issued by rules and none emits one for %s — the rule can never fire"
                   id name base name base)
          | "W" ->
            if not (emitted "W" || emitted "WR") then
              dead base
                (Printf.sprintf
                   "rule %s triggers on W(%s), but nothing writes %s under CM control (no rule emits W or WR for it) — spontaneous writes raise Ws, not W"
                   id base base)
          | "R" ->
            if not (emitted "R") then (
              match info with
              | Some ii when ii.ii_readable ->
                if not (emitted "RR") then
                  dead base
                    (Printf.sprintf
                       "rule %s triggers on R(%s), but read responses only follow read requests and no rule emits RR(%s)"
                       id base base)
              | Some _ ->
                dead base
                  (Printf.sprintf
                     "rule %s triggers on R(%s), but %s has no read interface and no rule emits R for it"
                     id base base)
              | None ->
                dead base
                  (Printf.sprintf
                     "rule %s triggers on R(%s), but %s is CM-auxiliary: no translator answers reads for it and no rule emits R"
                     id base base))
          | "Ws" ->
            if info = None && not (emitted "Ws") then
              dead base
                (Printf.sprintf
                   "rule %s triggers on Ws(%s), but %s is CM-auxiliary and CM writes are never spontaneous"
                   id base base)
          | _ -> ()))
    ctx.strategy

let unused_pass ctx ~file (config : Cmrid.t) add =
  if Hashtbl.length ctx.items > 0 then begin
    let used = Hashtbl.create 32 in
    List.iter
      (fun lr -> List.iter (fun (base, _) -> Hashtbl.replace used base ()) (rule_refs lr.rule))
      ctx.all;
    List.iter
      (fun (c : Cmrid.constraint_decl) ->
        Hashtbl.replace used c.Cmrid.c_source ();
        Hashtbl.replace used c.Cmrid.c_target ())
      config.Cmrid.constraints;
    (* Dependency atoms reference items the same way rules do. *)
    List.iter
      (fun (d : Cmrid.dependency_decl) ->
        match Chase.parse d.Cmrid.d_text with
        | Ok dep ->
          List.iter
            (fun (a : Chase.atom) -> Hashtbl.replace used a.Chase.a_base ())
            (Chase.body_atoms dep @ Chase.head_atoms dep)
        | Error _ -> ())
      config.Cmrid.dependencies;
    Hashtbl.fold (fun base ii acc -> (base, ii) :: acc) ctx.items []
    |> List.sort compare
    |> List.iter (fun (base, ii) ->
           if not (Hashtbl.mem used base) then
             add
               {
                 code = "HYG003";
                 severity = Info;
                 file;
                 line = Some ii.ii_line;
                 site = Some ii.ii_site;
                 message =
                   Printf.sprintf
                     "item %s is declared but no rule or constraint mentions it" base;
               })
  end

(* ------------------------------------------------------------------ *)
(* Pass 7: chase-based dependency analysis (DEP001–DEP005, §4.1)       *)

(* The [dependency] declarations are TGD/EGD constraints over the item
   bases.  The chase repairs them at runtime; these checks decide,
   before anything runs, that the chase terminates (weak acyclicity via
   the shared Tarjan machinery), that its repairs are executable against
   the declared §3.1.1 interfaces, and that each dependency can fire at
   all. *)
let dependency_pass ctx ~file (config : Cmrid.t) add =
  let mk code severity line site message = add { code; severity; file; line; site; message } in
  let parsed =
    List.mapi
      (fun i (d : Cmrid.dependency_decl) ->
        (d, Chase.parse ~label:(Printf.sprintf "d%d" (i + 1)) d.Cmrid.d_text))
      config.Cmrid.dependencies
  in
  let deps =
    List.filter_map
      (fun (d, r) -> match r with Ok dep -> Some (d, dep) | Error _ -> None)
      parsed
  in
  let declared base = Hashtbl.find_opt ctx.items base in
  let is_aux base = Hashtbl.mem ctx.aux base in
  List.iter
    (fun ((d : Cmrid.dependency_decl), r) ->
      match r with
      | Ok _ -> ()
      | Error m ->
        mk "DEP005" Error (Some d.Cmrid.d_line) None ("dependency does not parse: " ^ m))
    parsed;
  List.iter
    (fun ((d : Cmrid.dependency_decl), (dep : Chase.dep)) ->
      (* Arity under the value-last convention: an item with k declared
         parameters takes k + 1 atom arguments. *)
      List.iter
        (fun (a : Chase.atom) ->
          match declared a.Chase.a_base with
          | Some ii when List.length a.Chase.a_args <> ii.ii_arity + 1 ->
            mk "DEP005" Error (Some d.Cmrid.d_line) (Some ii.ii_site)
              (Printf.sprintf
                 "dependency %s: atom %s takes %d argument(s), but item %s declares %d parameter(s) — atoms take the parameters plus the value"
                 dep.Chase.d_label (Chase.atom_to_string a) (List.length a.Chase.a_args)
                 a.Chase.a_base ii.ii_arity)
          | _ -> ())
        (Chase.body_atoms dep @ Chase.head_atoms dep);
      let bases = Chase.body_bases dep in
      if not (List.exists (fun b -> declared b <> None || is_aux b) bases) then
        mk "DEP004" Warning (Some d.Cmrid.d_line) None
          (Printf.sprintf
             "dependency %s is unreachable: none of its body bases (%s) is declared by any source or location, so it can never have an active trigger"
             dep.Chase.d_label (String.concat ", " bases));
      List.iter
        (fun base ->
          match declared base with
          | Some ii when not ii.ii_writable ->
            mk "DEP003" Error (Some d.Cmrid.d_line) (Some ii.ii_site)
              (Printf.sprintf
                 "dependency %s: its repair writes %s, but %s offers no write interface (§3.1.1) — the chase-derived repair cannot execute"
                 dep.Chase.d_label base base)
          | Some _ -> ()
          | None ->
            if not (is_aux base) then
              mk "DEP003" Error (Some d.Cmrid.d_line) None
                (Printf.sprintf
                   "dependency %s: its repair writes %s, which no source or location declares"
                   dep.Chase.d_label base))
        (Chase.written_bases dep))
    deps;
  let program = List.map snd deps in
  let line_of_label label =
    List.fold_left
      (fun acc ((d : Cmrid.dependency_decl), (dep : Chase.dep)) ->
        if dep.Chase.d_label = label then
          match acc with
          | Some l -> Some (min l d.Cmrid.d_line)
          | None -> Some d.Cmrid.d_line
        else acc)
      None deps
  in
  let min_line labels =
    List.fold_left
      (fun acc l ->
        match line_of_label l, acc with
        | Some x, Some y -> Some (min x y)
        | Some x, None -> Some x
        | None, acc -> acc)
      None labels
  in
  List.iter
    (fun (c : Chase.cycle) ->
      mk "DEP001" Error (min_line c.Chase.c_labels) None
        (Printf.sprintf
           "dependencies %s are not weakly acyclic: positions %s form a cycle through an existential (⁎) edge — chase termination cannot be guaranteed, repairs may cascade forever"
           (String.concat ", " c.Chase.c_labels)
           (String.concat ", " (List.map Chase.position_to_string c.Chase.c_positions))))
    (Chase.special_cycles program);
  List.iter
    (fun group ->
      let labels = List.map (fun (dep : Chase.dep) -> dep.Chase.d_label) group in
      mk "DEP002" Warning (min_line labels) None
        (Printf.sprintf
           "dependencies %s form an EGD/TGD interaction cycle: the EGD can merge labelled nulls the TGD creates and re-enable it — restricted-chase termination becomes firing-order-dependent"
           (String.concat ", " labels)))
    (Chase.interaction_cycles program)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let finish findings =
  List.sort_uniq
    (fun a b ->
      let c = compare_finding a b in
      if c <> 0 then c else compare a b)
    findings

let check_config ?(rule_files = []) ~file text =
  let config, perrors = Cmrid.parse_partial text in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  List.iter
    (fun (e : Cmrid.error) ->
      add
        {
          code = "CFG001";
          severity = Error;
          file;
          line = (if e.Cmrid.e_line = 0 then None else Some e.Cmrid.e_line);
          site = None;
          message = e.Cmrid.e_msg;
        })
    perrors;
  let items = Hashtbl.create 16 in
  let aux = Hashtbl.create 16 in
  List.iter
    (fun (src : Cmrid.source_decl) ->
      List.iter
        (fun (it : Cmrid.item_decl) ->
          let relational = src.Cmrid.s_kind = Cmrid.Relational in
          Hashtbl.replace items it.Cmrid.i_base
            {
              ii_site = src.Cmrid.s_site;
              ii_arity = List.length it.Cmrid.i_params;
              ii_line = it.Cmrid.i_line;
              ii_params = it.Cmrid.i_params;
              ii_readable = (if relational then it.Cmrid.i_read <> None else true);
              ii_writable =
                (if relational then it.Cmrid.i_write <> None else it.Cmrid.i_writable);
              ii_deletable =
                (if relational then it.Cmrid.i_delete <> None else it.Cmrid.i_writable);
              ii_notifies =
                (match it.Cmrid.i_notify with Some n -> n.Cmrid.n_send | None -> false);
              ii_no_spontaneous = it.Cmrid.i_no_spontaneous;
            })
        src.Cmrid.s_items)
    config.Cmrid.sources;
  List.iter
    (fun (l : Cmrid.location_decl) ->
      if not (Hashtbl.mem items l.Cmrid.l_base) then
        Hashtbl.replace aux l.Cmrid.l_base (l.Cmrid.l_site, l.Cmrid.l_line))
    config.Cmrid.locations;
  location_pass ~file config add;
  let config_rules =
    List.filter_map
      (fun (d : Cmrid.rule_decl) ->
        match Parser.parse_rule d.Cmrid.r_text with
        | r ->
          Some { rule = r; rfile = file; rline = Some d.Cmrid.r_line; kind = Interface.classify r }
        | exception Parser.Parse_error { message; _ } ->
          add
            {
              code = "CFG002";
              severity = Error;
              file;
              line = Some d.Cmrid.r_line;
              site = None;
              message = "rule does not parse: " ^ message;
            };
          None)
      config.Cmrid.rules
  in
  let file_rules =
    List.concat_map
      (fun (fname, contents) ->
        let rules, err = Parser.parse_program contents in
        (match err with
        | Some (l, m) ->
          add
            {
              code = "CFG002";
              severity = Error;
              file = fname;
              line = Some l;
              site = None;
              message = "rule does not parse: " ^ m;
            }
        | None -> ());
        List.map
          (fun (r, l) -> { rule = r; rfile = fname; rline = Some l; kind = Interface.classify r })
          rules)
      rule_files
  in
  let user_rules = dedup_exact (config_rules @ file_rules) in
  let synth = synth_interfaces ~file config in
  (* Interface statements in rule files extend the synthesized set; a
     statement restating a declared capability is the same interface. *)
  let restated = Interface.restates ~declared:(List.map (fun lr -> lr.rule) synth) in
  let extra = List.filter (fun lr -> lr.kind <> None && not (restated lr.rule)) user_rules in
  let strategy = List.filter (fun lr -> lr.kind = None) user_rules in
  let ifaces =
    (* Synthesized rules carry [rline] of their item declaration but are
       distinguishable from user rules: they never appear in [user_rules]. *)
    synth @ extra
  in
  let ctx =
    {
      items;
      aux;
      locator = Cmrid.locator config;
      config_mode = true;
      ifaces;
      strategy;
      all = ifaces @ strategy;
    }
  in
  (* The user's interface statements still need resolution checks even
     when they duplicate a synthesized capability. *)
  let user_ifaces = List.filter (fun lr -> lr.kind <> None) user_rules in
  let resolution_ctx = { ctx with ifaces = user_ifaces } in
  resolution_pass resolution_ctx add;
  capability_pass ctx add;
  conflict_pass ctx add;
  guarantee_pass ctx ~file config add;
  duplicate_pass { ctx with all = user_rules } add;
  reachability_pass ctx add;
  unused_pass { ctx with all = user_rules } ~file config add;
  dependency_pass ctx ~file config add;
  finish !findings

let check_rules ?(file = "<rules>") ~interfaces ~strategy ~locator () =
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let ifaces =
    List.map (fun r -> { rule = r; rfile = file; rline = None; kind = Interface.classify r }) interfaces
  in
  let strategy =
    dedup_exact
      (List.map (fun r -> { rule = r; rfile = file; rline = None; kind = None }) strategy)
  in
  let ctx =
    {
      items = Hashtbl.create 1;
      aux = Hashtbl.create 1;
      locator;
      config_mode = false;
      ifaces;
      strategy;
      all = ifaces @ strategy;
    }
  in
  resolution_pass { ctx with ifaces = [] } add;
  capability_pass ctx add;
  conflict_pass ctx add;
  duplicate_pass { ctx with all = strategy } add;
  finish !findings
