(* cmtool: command-line front end to the constraint-management toolkit.

   - parse:    check a rule file (interfaces or strategies) and print the
               normalized rules
   - suggest:  list applicable strategies + derived guarantees for a
               copy constraint over a configuration's interfaces
   - derive:   the guarantees a configuration's program proves for a
               copy constraint
   - config:   validate a CM-RID file and show what each source offers
   - demo:     run the §4.2 payroll scenario and report guarantees

   Flag conventions, positional parsing, file loading, and route's
   static preflight gate live in Cmtool_cli. *)

open Cmdliner
module Interface = Cm_core.Interface
module Suggest = Cm_core.Suggest
module Analysis = Cm_analysis.Analysis
module Json = Cm_util.Json

let read_file = Cmtool_cli.read_file

(* ---- parse ---- *)

let parse_cmd_run file =
  match Cm_rule.Parser.parse_rules (read_file file) with
  | exception Cm_rule.Parser.Parse_error { line; message; _ } ->
    Printf.eprintf "%s:%d: parse error: %s\n" file line message;
    1
  | exception Sys_error m ->
    Printf.eprintf "%s\n" m;
    1
  | rules ->
    Printf.printf "# %d rule(s)\n" (List.length rules);
    List.iter
      (fun r ->
        let kind =
          match Interface.classify r with
          | Some k -> " # " ^ Interface.kind_to_string k ^ " interface"
          | None -> ""
        in
        Printf.printf "%s%s\n" (Cm_rule.Rule.to_string r) kind)
      rules;
    0

let parse_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse and normalize a rule file")
    Term.(const parse_cmd_run $ file)

(* ---- suggest ---- *)

(* The item bases CONFIG declares or its rules and the rule files name:
   a copy between any others is a typo, not an interface verdict. *)
let require_known_bases (config : Cm_core.Cmrid.t) rules flags =
  let known = Hashtbl.create 16 in
  let note base = Hashtbl.replace known base () in
  List.iter
    (fun (s : Cm_core.Cmrid.source_decl) ->
      List.iter (fun (i : Cm_core.Cmrid.item_decl) -> note i.i_base) s.s_items)
    config.sources;
  List.iter (fun (l : Cm_core.Cmrid.location_decl) -> note l.l_base) config.locations;
  List.iter (fun r -> List.iter (fun (base, _) -> note base) (Analysis.rule_refs r)) rules;
  List.iter
    (fun (flag, base) ->
      if not (Hashtbl.mem known base) then
        Cmtool_cli.usage_error "%s %s names no item base of CONFIG or its rule files" flag
          base)
    flags

(* CONFIG built, its RULES declared as `cmtool check` merges them, and
   the copy's bases checked: the program suggest and derive reason
   from. *)
let copy_program config_file rule_files ~source ~target =
  match Cmtool_cli.build_config config_file with
  | Error c -> Error c
  | Ok (config, built) -> (
    match Cmtool_cli.parse_rule_files rule_files with
    | Error c -> Error c
    | Ok extra_rules ->
      let system = built.Cm_core.Toolkit.system in
      Cmtool_cli.declare_rule_files system extra_rules;
      require_known_bases config
        (extra_rules
        @ Cm_core.System.interface_rules system
        @ Cm_core.System.strategy_rules system)
        [ ("--source", source); ("--target", target) ];
      Ok system)

let suggest_cmd_run config_file rule_files source target =
  match copy_program config_file rule_files ~source ~target with
  | Error c -> c
  | Ok system ->
    let constraint_def =
      Cm_core.Constraint_def.Copy
        {
          source = Interface.family source [ "n" ];
          target = Interface.family target [ "n" ];
        }
    in
    (match
       Suggest.for_constraint ~interfaces:(Cm_core.System.interface_rules system)
         constraint_def
     with
    | [] ->
      Printf.printf
        "No applicable strategy: the configuration's interfaces cannot support the \
         constraint.\n"
    | candidates ->
      Printf.printf "Constraint: %s\n\n" (Cm_core.Constraint_def.to_string constraint_def);
      List.iteri
        (fun i c -> Printf.printf "[%d] %s\n\n" (i + 1) (Suggest.describe c))
        candidates);
    0

let suggest_cmd =
  let config_file = Cmtool_cli.config_pos in
  let rule_files =
    Cmtool_cli.rules_pos ~after:0
      ~doc:
        "Rule files describing the running program, as in $(b,cmtool check); \
         their interface statements join the ones the translators report"
  in
  let source =
    Arg.(value & opt string "Salary1" & info [ "source" ] ~docv:"BASE")
  in
  let target =
    Arg.(value & opt string "Salary2" & info [ "target" ] ~docv:"BASE")
  in
  Cmd.v
    (Cmd.info "suggest"
       ~doc:
         "Suggest strategies for a copy constraint over a CM-RID \
          configuration's interfaces, each with the guarantees the Derive \
          prover establishes for it")
    Term.(const suggest_cmd_run $ config_file $ rule_files $ source $ target)

(* ---- derive ---- *)

let derive_cmd_run config_file rule_files source target =
  match copy_program config_file rule_files ~source ~target with
  | Error c -> c
  | Ok system ->
    Cm_core.System.declare_copies system [ (source, target) ];
    let view = Option.get (Cm_core.System.copy_view system ~source ~target) in
    Printf.printf "Derivation for the copy constraint %s(n) = %s(n):\n\n%s\n" target
      source
      (Cm_core.Derive.report_to_string view.Cm_core.System.Guarantee_view.gv_report);
    0

let derive_cmd =
  let rule_files =
    Cmtool_cli.rules_pos ~after:0
      ~doc:"Rule files describing the running program, as in $(b,cmtool check)"
  in
  let source = Arg.(value & opt string "Salary1" & info [ "source" ] ~docv:"BASE") in
  let target = Arg.(value & opt string "Salary2" & info [ "target" ] ~docv:"BASE") in
  Cmd.v
    (Cmd.info "derive"
       ~doc:
         "Derive which copy-constraint guarantees a CM-RID configuration's \
          program proves (the paper's proof rules, mechanized)")
    Term.(const derive_cmd_run $ Cmtool_cli.config_pos $ rule_files $ source $ target)

(* ---- config ---- *)

let config_cmd_run file =
  match Cm_core.Cmrid.parse_file file with
  | Error errors ->
    List.iter
      (fun (e : Cm_core.Cmrid.error) ->
        Printf.eprintf "%s:%d: %s\n" file e.Cm_core.Cmrid.e_line e.Cm_core.Cmrid.e_msg)
      errors;
    1
  | Ok config -> (
    match Cm_core.Toolkit.build config with
    | Error m ->
      Printf.eprintf "%s: %s\n" file m;
      1
    | Ok built ->
      Printf.printf "sites: %s\n\n" (String.concat ", " (Cm_core.Cmrid.sites config));
      Printf.printf "interfaces reported by the translators:\n";
      List.iter
        (fun (base, kinds) ->
          Printf.printf "  %-12s %s\n" base (String.concat ", " kinds))
        (Cm_core.Toolkit.interface_summary built);
      Printf.printf "\ninterface statements:\n";
      List.iter
        (fun r -> Printf.printf "  %s\n" (Cm_rule.Rule.to_string r))
        (Cm_core.System.interface_rules built.Cm_core.Toolkit.system);
      0)

let config_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "config" ~doc:"Validate a CM-RID configuration file")
    Term.(const config_cmd_run $ file)

(* ---- check ---- *)

let check_cmd_run file rule_files json deny_warnings =
  match (read_file file, List.map (fun f -> (f, read_file f)) rule_files) with
  | exception Sys_error m ->
    Printf.eprintf "%s\n" m;
    1
  | text, rule_files ->
    let findings = Analysis.check_config ~rule_files ~file text in
    if json then print_endline (Analysis.to_json ~checked:file findings)
    else print_endline (Analysis.to_text findings);
    Analysis.exit_code ~deny_warnings findings

let check_cmd =
  let file = Cmtool_cli.config_pos in
  let rule_files =
    Cmtool_cli.rules_pos ~after:0
      ~doc:
        "Additional rule files; interface statements extend the declared \
         interfaces, the rest is strategy"
  in
  let json = Cmtool_cli.json_arg ~doc:"Emit findings as JSON" in
  let deny_warnings =
    Cmtool_cli.deny_warnings_arg
      ~doc:"Exit non-zero on warnings, not just errors"
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Statically analyze a CM-RID configuration plus optional rule files: \
          resolution, interface capabilities (§3.1.1), write/write and \
          trigger/write conflicts, rule-firing cycles (Appendix A), guarantee \
          feasibility via the Derive prover (§3.3.1), and hygiene.  Exits \
          non-zero on errors, and on warnings with --deny-warnings")
    Term.(const check_cmd_run $ file $ rule_files $ json $ deny_warnings)

(* ---- deps ---- *)

module Chase = Cm_chase.Chase

let deps_cmd_run config_file json =
  match Cmtool_cli.load_config config_file with
  | Error c -> c
  | Ok config ->
    let parsed =
      List.mapi
        (fun i (d : Cm_core.Cmrid.dependency_decl) ->
          (d, Chase.parse ~label:(Printf.sprintf "d%d" (i + 1)) d.Cm_core.Cmrid.d_text))
        config.Cm_core.Cmrid.dependencies
    in
    let bad =
      List.filter_map
        (fun ((d : Cm_core.Cmrid.dependency_decl), r) ->
          match r with
          | Error m -> Some (d.Cm_core.Cmrid.d_line, m)
          | Ok _ -> None)
        parsed
    in
    if bad <> [] then begin
      List.iter (fun (line, m) -> Printf.eprintf "%s:%d: %s\n" config_file line m) bad;
      1
    end
    else begin
      let deps =
        List.filter_map (fun ((d : Cm_core.Cmrid.dependency_decl), r) ->
            match r with Ok dep -> Some (d.Cm_core.Cmrid.d_line, dep) | Error _ -> None)
          parsed
      in
      let program = List.map snd deps in
      let edges = Chase.dependency_graph program in
      let cycles = Chase.special_cycles program in
      let interactions = Chase.interaction_cycles program in
      let compiled = Chase.to_rules program in
      if json then begin
        let buf = Buffer.create 1024 in
        Buffer.add_string buf
          (Printf.sprintf "{\"config\":\"%s\",\"dependencies\":[" (Json.escape config_file));
        List.iteri
          (fun i (line, (dep : Chase.dep)) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "{\"label\":\"%s\",\"kind\":\"%s\",\"line\":%d,\"text\":\"%s\"}"
                 (Json.escape dep.Chase.d_label) (Chase.kind_name dep) line
                 (Json.escape (Chase.to_string dep))))
          deps;
        Buffer.add_string buf "],\"edges\":[";
        List.iteri
          (fun i (e : Chase.edge) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "{\"src\":\"%s\",\"dst\":\"%s\",\"special\":%b,\"dep\":\"%s\"}"
                 (Chase.position_to_string e.Chase.e_src)
                 (Chase.position_to_string e.Chase.e_dst)
                 e.Chase.e_special (Json.escape e.Chase.e_dep)))
          edges;
        Buffer.add_string buf
          (Printf.sprintf "],\"weakly_acyclic\":%b,\"special_cycles\":[" (cycles = []));
        List.iteri
          (fun i (c : Chase.cycle) ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "{\"positions\":[%s],\"labels\":[%s]}"
                 (String.concat ","
                    (List.map
                       (fun p -> "\"" ^ Chase.position_to_string p ^ "\"")
                       c.Chase.c_positions))
                 (String.concat ","
                    (List.map (fun l -> "\"" ^ Json.escape l ^ "\"") c.Chase.c_labels))))
          cycles;
        Buffer.add_string buf "],\"interaction_cycles\":[";
        List.iteri
          (fun i group ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_string buf
              (Printf.sprintf "[%s]"
                 (String.concat ","
                    (List.map
                       (fun (d : Chase.dep) -> "\"" ^ Json.escape d.Chase.d_label ^ "\"")
                       group))))
          interactions;
        (match compiled with
        | Ok rules ->
          Buffer.add_string buf "],\"rules\":[";
          List.iteri
            (fun i r ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf
                ("\"" ^ Json.escape (Cm_rule.Rule.to_string r) ^ "\""))
            rules;
          Buffer.add_string buf "]}"
        | Error m ->
          Buffer.add_string buf
            (Printf.sprintf "],\"rules\":null,\"rules_error\":\"%s\"}" (Json.escape m)));
        print_endline (Buffer.contents buf)
      end
      else begin
        Printf.printf "# %d dependenc%s\n" (List.length deps)
          (if List.length deps = 1 then "y" else "ies");
        List.iter
          (fun (line, (dep : Chase.dep)) ->
            Printf.printf "%4d  %-4s %s\n" line (Chase.kind_name dep) (Chase.to_string dep))
          deps;
        let specials = List.length (List.filter (fun (e : Chase.edge) -> e.Chase.e_special) edges) in
        Printf.printf "\nposition graph: %d edge(s), %d existential\n" (List.length edges) specials;
        List.iter
          (fun (e : Chase.edge) ->
            Printf.printf "  %s %s %s  [%s]\n"
              (Chase.position_to_string e.Chase.e_src)
              (if e.Chase.e_special then "->*" else "-> ")
              (Chase.position_to_string e.Chase.e_dst)
              e.Chase.e_dep)
          edges;
        if cycles = [] then
          Printf.printf "weakly acyclic: yes — the chase terminates on every instance\n"
        else begin
          Printf.printf "weakly acyclic: NO\n";
          List.iter
            (fun (c : Chase.cycle) ->
              Printf.printf "  cycle through ⁎ edge: positions %s  [%s]\n"
                (String.concat ", " (List.map Chase.position_to_string c.Chase.c_positions))
                (String.concat ", " c.Chase.c_labels))
            cycles
        end;
        if interactions = [] then Printf.printf "interaction cycles: none\n"
        else
          List.iter
            (fun group ->
              Printf.printf "interaction cycle: %s\n"
                (String.concat ", "
                   (List.map (fun (d : Chase.dep) -> d.Chase.d_label) group)))
            interactions;
        (match compiled with
        | Ok rules ->
          Printf.printf "\ncompiled rules:\n";
          List.iter (fun r -> Printf.printf "  %s\n" (Cm_rule.Rule.to_string r)) rules
        | Error m -> Printf.printf "\ncompiled rules: none — %s\n" m)
      end;
      if cycles = [] then 0 else 1
    end

let deps_cmd =
  let file = Cmtool_cli.config_pos in
  let json = Cmtool_cli.json_arg ~doc:"Emit the dependency report as JSON" in
  Cmd.v
    (Cmd.info "deps"
       ~doc:
         "Analyze the [dependency] TGD/EGD constraints of a CM-RID \
          configuration: position graph with ordinary vs existential (⁎) \
          edges, weak-acyclicity verdict (chase termination), EGD/TGD \
          interaction cycles, and the CM rules the weakly-acyclic program \
          compiles to.  Exits non-zero when the program is not weakly \
          acyclic")
    Term.(const deps_cmd_run $ file $ json)

(* ---- evolve ---- *)

let parse_rule_file = Cmtool_cli.parse_rule_file

let evolve_cmd_run config_file proposed_file rule_files json deny_warnings
    dry_run =
  match Cmtool_cli.build_config config_file with
  | Error c -> c
  | Ok (config, built) -> (
    let system = built.Cm_core.Toolkit.system in
    match
      (Cmtool_cli.parse_rule_files rule_files, parse_rule_file proposed_file)
    with
    | Error c, _ | _, Error c -> c
    | Ok extra_rules, Ok proposed_rules ->
      let is_iface r = Interface.classify r <> None in
      (* Current epoch: the built system's program, extended by the
         extra rule files as cmtool check merges them. *)
      Cmtool_cli.declare_rule_files system extra_rules;
      let interfaces_before = Cm_core.System.interface_rules system
      and strategy_before = Cm_core.System.strategy_rules system in
        (* Proposed epoch: its interface statements, when present,
           REPLACE the current set — an interface change (§4.2.3) means
           capabilities disappear, not accumulate.  A proposal with no
           interface statements changes only the strategy. *)
        let prop_ifaces, strategy_after =
          List.partition is_iface proposed_rules
        in
        let interfaces_after =
          if prop_ifaces = [] then interfaces_before else prop_ifaces
        in
        (* Preflight the proposed epoch exactly as `cmtool check` would
           check a running system's rules: capabilities against the
           proposed interfaces, conflicts, cycles. *)
        let findings =
          Analysis.check_rules ~file:proposed_file
            ~interfaces:interfaces_after ~strategy:strategy_after
            ~locator:(Cm_core.System.locator system) ()
        in
        let preflight_code = Analysis.exit_code ~deny_warnings findings in
        if preflight_code <> 0 then begin
          if json then
            print_endline (Analysis.to_json ~checked:proposed_file findings)
          else begin
            print_endline (Analysis.to_text findings);
            Printf.printf
              "proposed epoch rejected by preflight; not comparing guarantees\n"
          end;
          preflight_code
        end
        else begin
          let constraints =
            List.map
              (fun (c : Cm_core.Cmrid.constraint_decl) ->
                (c.Cm_core.Cmrid.c_source, c.Cm_core.Cmrid.c_target))
              config.Cm_core.Cmrid.constraints
          in
          let survivals =
            Cm_core.Evolution.compare_programs ~interfaces_before
              ~interfaces_after ~strategy_before ~strategy_after ~constraints
          in
          if json then
            print_endline (Cm_core.Evolution.survivals_to_json survivals)
          else begin
            Printf.printf "proposed epoch %s: %d interface statement(s), %d strategy rule(s)\n"
              proposed_file (List.length prop_ifaces)
              (List.length strategy_after);
            Printf.printf "preflight: %s\n\n"
              (match Analysis.summary findings with
              | 0, 0, 0 -> "no findings"
              | e, w, i -> Printf.sprintf "%d error(s), %d warning(s), %d info(s)" e w i);
            if constraints = [] then
              Printf.printf "no copy constraints declared; nothing to compare\n"
            else print_string (Cm_core.Evolution.survivals_to_text survivals)
          end;
          if dry_run then 0
          else begin
            (* Live rollout on a freshly built instance of the
               configuration: cut over mid-run, let the old epoch drain,
               retire it once the transport is quiescent. *)
            let sim = Cm_core.System.sim system in
            Cm_core.System.declare_copies system constraints;
            let evo =
              Cm_core.Evolution.create
                ~required:(Cm_core.Cmrid.required_constraints config)
                system
            in
            let strategy =
              { Cm_core.Strategy.strategy_name = "proposed";
                description = "proposed epoch from " ^ proposed_file;
                rules = strategy_after;
                aux_init = [] }
            in
            let cutover_at = 10.0 in
            Cm_sim.Sim.schedule_at sim cutover_at (fun () ->
                match Cm_core.Evolution.evolve ~quiesce:true evo strategy with
                | Ok _ -> ()
                | Error m -> failwith ("evolve: " ^ m));
            Cm_core.System.run system ~until:60.0;
            if not json then begin
              Printf.printf "\nlive rollout (simulated):\n";
              List.iter
                (fun (tr : Cm_core.Evolution.transition) ->
                  Printf.printf "  t=%.2f  cutover epoch %d -> %d (%s)\n"
                    tr.Cm_core.Evolution.tr_at tr.Cm_core.Evolution.tr_from
                    tr.Cm_core.Evolution.tr_to
                    tr.Cm_core.Evolution.tr_strategy)
                (Cm_core.Evolution.transitions evo);
              Printf.printf
                "  current epoch %d; retirements %d; draining [%s]; \
                 stale-epoch rejections %d\n"
                (Cm_core.Evolution.current_epoch evo)
                (Cm_core.Evolution.retirements evo)
                (String.concat ", "
                   (List.map string_of_int (Cm_core.Evolution.draining evo)))
                (Cm_core.Evolution.stale_rejections evo);
              List.iter
                (fun (rb : Cm_core.Evolution.rollback) ->
                  Printf.printf
                    "  t=%.2f  ROLLED BACK epoch %d -> %d (via %d): required \
                     guarantee(s) lost: %s\n"
                    rb.Cm_core.Evolution.rb_at rb.Cm_core.Evolution.rb_from
                    rb.Cm_core.Evolution.rb_to rb.Cm_core.Evolution.rb_via
                    (String.concat ", "
                       (List.map
                          (fun (s, tg, g) -> Printf.sprintf "%s->%s %s" s tg g)
                          rb.Cm_core.Evolution.rb_lost)))
                (Cm_core.Evolution.rollbacks evo)
            end;
            0
          end
        end)

let evolve_cmd =
  let config_file = Cmtool_cli.config_pos in
  let proposed_file =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"PROPOSED"
          ~doc:"Rule file for the proposed epoch; its interface statements \
                (if any) replace the current interfaces, the rest is the \
                new strategy")
  in
  let rule_files =
    Cmtool_cli.rules_pos ~after:1
      ~doc:
        "Rule files describing the currently installed epoch, as in \
         $(b,cmtool check)"
  in
  let json = Cmtool_cli.json_arg ~doc:"Emit the survival report as JSON" in
  let deny_warnings =
    Cmtool_cli.deny_warnings_arg
      ~doc:"Fail the preflight on warnings, not just errors"
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"Static analysis only: preflight + guarantee-survival \
                comparison, no simulated rollout")
  in
  Cmd.v
    (Cmd.info "evolve"
       ~doc:
         "Propose a new rule epoch for a CM-RID configuration: preflight it \
          through the static checker, report which \194\1673.3 guarantees of each \
          declared copy constraint are kept, upgraded, or lost across the \
          cutover, and (without --dry-run) perform the drain-and-cutover on \
          a simulated instance of the configuration")
    Term.(
      const evolve_cmd_run $ config_file $ proposed_file $ rule_files $ json
      $ deny_warnings $ dry_run)

(* ---- check-trace ---- *)

let item_of_string s =
  match Cm_rule.Parser.parse_expr s with
  | Cm_rule.Expr.Item (base, args) ->
    let params =
      List.filter_map
        (function Cm_rule.Expr.Const v -> Some v | _ -> None)
        args
    in
    if List.length params = List.length args then
      Ok (Cm_rule.Item.make base ~params)
    else Error (s ^ " is not a concrete item")
  | _ -> Error (s ^ " is not an item")
  | exception Cm_rule.Parser.Parse_error { message; _ } -> Error message

let check_trace_cmd_run trace_file rules_file source target kappa =
  match Cm_rule.Trace_io.read_file trace_file with
  | Error m ->
    Printf.eprintf "%s: %s\n" trace_file m;
    1
  | Ok trace -> (
    match Cm_rule.Parser.parse_rules (read_file rules_file) with
    | exception Cm_rule.Parser.Parse_error { line; message; _ } ->
      Printf.eprintf "%s:%d: parse error: %s\n" rules_file line message;
      1
    | rules ->
      (* Without a configured locator, site restrictions cannot apply;
         every rule is checked wherever its LHS matches. *)
      let locator _ = "?" in
      let violations = Cm_rule.Validity.check ~rules ~locator trace in
      Printf.printf "%d event(s), %d rule(s): %d validity violation(s)\n"
        (Cm_rule.Trace.length trace) (List.length rules) (List.length violations);
      List.iter
        (fun v -> Printf.printf "  %s\n" (Cm_rule.Validity.violation_to_string v))
        violations;
      (match source, target with
       | Some source, Some target -> (
         match item_of_string source, item_of_string target with
         | Ok leader, Ok follower ->
           let tl = Cm_rule.Timeline.of_trace trace in
           let horizon = Cm_rule.Trace.last_time trace in
           List.iter
             (fun g ->
               let r = Cm_core.Guarantee.check ~horizon tl g in
               Printf.printf "  %-22s %s\n" (Cm_core.Guarantee.name g)
                 (if r.Cm_core.Guarantee.holds then "holds"
                  else
                    "VIOLATED: "
                    ^ String.concat "; " r.Cm_core.Guarantee.counterexamples))
             (Cm_core.Guarantee.for_copy_constraint ~source:leader ~target:follower
                ~kappa)
         | Error m, _ | _, Error m ->
           Printf.eprintf "%s\n" m)
       | _ -> ());
      if violations = [] then 0 else 1)

let check_trace_cmd =
  let trace_file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let rules_file = Arg.(required & pos 1 (some file) None & info [] ~docv:"RULES") in
  let source =
    Arg.(value & opt (some string) None
         & info [ "check-copy-source" ] ~docv:"ITEM"
             ~doc:"Also check the copy guarantees with this concrete source item")
  in
  let target =
    Arg.(value & opt (some string) None & info [ "check-copy-target" ] ~docv:"ITEM")
  in
  let kappa = Arg.(value & opt float 10.0 & info [ "kappa" ] ~docv:"SECONDS") in
  Cmd.v
    (Cmd.info "check-trace"
       ~doc:"Re-check a dumped execution trace offline: Appendix-A validity \
             against a rule file, and optionally the copy guarantees")
    Term.(const check_trace_cmd_run $ trace_file $ rules_file $ source $ target $ kappa)

(* ---- demo ---- *)

let run_demo seed minutes dump_trace =
  let module Payroll = Cm_workload.Payroll in
  let module Sys_ = Cm_core.System in
  let module Guarantee = Cm_core.Guarantee in
  let p = Payroll.create ~config:(Cm_core.System.Config.seeded seed) ~employees:5 () in
  Payroll.install_propagation p;
  let horizon = float_of_int minutes *. 60.0 in
  Payroll.random_updates p ~mean_interarrival:45.0 ~until:(horizon -. 60.0);
  Sys_.run p.Payroll.system ~until:horizon;
  Printf.printf "ran %d simulated minute(s); %d events recorded\n" minutes
    (Cm_rule.Trace.length (Sys_.trace p.Payroll.system));
  let tl = Sys_.timeline ~initial:p.Payroll.initial p.Payroll.system in
  List.iter
    (fun g ->
      let r = Guarantee.check ~horizon ~ignore_after:(horizon -. 60.0) tl g in
      Printf.printf "  %-22s %s\n" (Guarantee.name g)
        (if r.Guarantee.holds then "holds" else "VIOLATED"))
    (Payroll.guarantees p ~emp:"e1");
  let violations = Sys_.check_validity p.Payroll.system in
  Printf.printf "  %-22s %d violation(s)\n" "appendix-A validity" (List.length violations);
  (match dump_trace with
   | Some path ->
     Cm_rule.Trace_io.write_file path (Sys_.trace p.Payroll.system);
     let rules_path = path ^ ".rules" in
     Out_channel.with_open_text rules_path (fun oc ->
         List.iter
           (fun r -> output_string oc (Cm_rule.Rule.to_string r ^ "\n"))
           (Sys_.all_rules p.Payroll.system));
     Printf.printf
       "trace written to %s, rules to %s\n\
        recheck with: cmtool check-trace %s %s\n"
       path rules_path path rules_path
   | None -> ());
  0

let demo_cmd_run seed minutes dump_trace =
  Cmtool_cli.require_at_least "--minutes" ~min:1 minutes;
  run_demo seed minutes dump_trace

let demo_cmd =
  let seed = Cmtool_cli.seed_arg () in
  let minutes = Arg.(value & opt int 20 & info [ "minutes" ] ~docv:"N") in
  let dump_trace =
    Arg.(value & opt (some string) None & info [ "dump-trace" ] ~docv:"FILE")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run the payroll scenario and check its guarantees")
    Term.(const demo_cmd_run $ seed $ minutes $ dump_trace)

(* ---- faults ---- *)

let run_faults seed drop dup minutes employees no_reliable heartbeat =
  let module Payroll = Cm_workload.Payroll in
  let module Sys_ = Cm_core.System in
  let module Net = Cm_net.Net in
  let module Reliable = Cm_core.Reliable in
  let module Guarantee = Cm_core.Guarantee in
  let horizon = float_of_int minutes *. 60.0 in
  (* Stop injecting updates well before the horizon so retransmission
     chains can drain and the final states are comparable. *)
  let updates_until = Float.max 60.0 (horizon -. 120.0) in
  let run config =
    let p = Payroll.create ~config ~employees () in
    Payroll.install_propagation p;
    Payroll.random_updates p ~mean_interarrival:30.0 ~until:updates_until;
    Sys_.run p.Payroll.system ~until:horizon;
    p
  in
  let finals p =
    List.map
      (fun emp ->
        (emp, Payroll.salary_at p `A emp, Payroll.salary_at p `B emp))
      p.Payroll.employees
  in
  let clean = run (Sys_.Config.seeded seed) in
  let faulty_config =
    let c =
      Sys_.Config.(
        seeded seed |> with_faults { Net.drop_prob = drop; dup_prob = dup })
    in
    if no_reliable then c
    else
      Sys_.Config.with_reliable
        { Reliable.default_config with heartbeat_period = heartbeat }
        c
  in
  let faulty = run faulty_config in
  Printf.printf
    "payroll scenario, seed %d, %d employee(s), %d simulated minute(s)\n\
     every link: drop %.2f, duplicate %.2f; reliable layer: %s\n\n"
    seed employees minutes drop dup
    (if no_reliable then "OFF (ablation)" else "on");
  let net = Sys_.net faulty.Payroll.system in
  Printf.printf "network (faulty run):\n";
  Printf.printf "  raw messages sent     %6d\n" (Net.messages_sent net);
  Printf.printf "  lost to faults        %6d\n" (Net.drops_by net Net.Faulty);
  Printf.printf "  duplicated in flight  %6d\n" (Net.messages_duplicated net);
  Printf.printf "  endpoint down (send)  %6d\n" (Net.endpoint_down_at_send net);
  Printf.printf "  endpoint down (flight)%6d\n" (Net.endpoint_down_in_flight net);
  (match Sys_.reliable faulty.Payroll.system with
   | None -> Printf.printf "\nreliable layer disabled: no retransmission.\n"
   | Some r ->
     let s = Reliable.stats r in
     Printf.printf "\nreliable delivery (faulty run):\n";
     Printf.printf "  data envelopes        %6d\n" s.Reliable.data_sent;
     Printf.printf "  retransmissions       %6d\n" s.Reliable.retransmits;
     Printf.printf "  acks sent             %6d\n" s.Reliable.acks_sent;
     Printf.printf "  delivered exactly-once%6d\n" s.Reliable.delivered;
     Printf.printf "  duplicates suppressed %6d\n" s.Reliable.dup_suppressed;
     Printf.printf "  reorderings repaired  %6d\n" s.Reliable.reordered;
     Printf.printf "  envelopes abandoned   %6d\n" s.Reliable.give_ups);
  Printf.printf "\nfinal salaries (clean A | clean B | faulty A | faulty B):\n";
  List.iter2
    (fun (emp, ca, cb) (_, fa, fb) ->
      Printf.printf "  %-4s %8s %8s %8s %8s%s\n" emp
        (Cm_rule.Value.to_string ca) (Cm_rule.Value.to_string cb)
        (Cm_rule.Value.to_string fa) (Cm_rule.Value.to_string fb)
        (if (ca, cb) = (fa, fb) then "" else "   <-- DIVERGED"))
    (finals clean) (finals faulty);
  let g1 =
    Sys_.check_guarantee ~initial:faulty.Payroll.initial faulty.Payroll.system
      (Guarantee.Follows
         {
           Guarantee.leader = Payroll.source_item "e1";
           follower = Payroll.target_item "e1";
         })
  in
  let checks =
    [
      ("final state identical to zero-fault run", finals clean = finals faulty);
      ( "no envelope lost or abandoned",
        match Sys_.reliable faulty.Payroll.system with
        | None -> false
        | Some r ->
          let s = Reliable.stats r in
          s.Reliable.give_ups = 0 && s.Reliable.delivered = s.Reliable.data_sent );
      ( "faults actually exercised",
        drop = 0.0
        || Net.drops_by net Net.Faulty > 0
           &&
           match Sys_.reliable faulty.Payroll.system with
           | None -> true
           | Some r -> (Reliable.stats r).Reliable.retransmits > 0 );
      ("guarantee (1) follows holds", g1.Guarantee.holds);
    ]
  in
  Printf.printf "\nchecks:\n";
  List.iter
    (fun (name, ok) ->
      Printf.printf "  [%s] %s\n" (if ok then "ok" else "FAILED") name)
    checks;
  if List.for_all snd checks then 0 else 1

let faults_cmd_run seed drop dup minutes employees no_reliable heartbeat =
  Cmtool_cli.require_probability "--drop" drop;
  Cmtool_cli.require_probability "--dup" dup;
  Cmtool_cli.require_at_least "--minutes" ~min:1 minutes;
  Cmtool_cli.require_at_least "--employees" ~min:1 employees;
  Cmtool_cli.require_seconds "--heartbeat" heartbeat;
  run_faults seed drop dup minutes employees no_reliable heartbeat

let faults_cmd =
  let seed = Cmtool_cli.seed_arg () in
  let drop =
    Arg.(value & opt float 0.2
         & info [ "drop" ] ~docv:"P" ~doc:"Per-message loss probability on every link")
  in
  let dup =
    Arg.(value & opt float 0.2
         & info [ "dup" ] ~docv:"P"
             ~doc:"Per-message duplication probability on every link")
  in
  let minutes = Arg.(value & opt int 20 & info [ "minutes" ] ~docv:"N") in
  let employees = Arg.(value & opt int 5 & info [ "employees" ] ~docv:"N") in
  let no_reliable =
    Arg.(value & flag
         & info [ "no-reliable" ]
             ~doc:"Ablation: run the faulty network without the reliable-delivery \
                   layer (expected to fail the checks)")
  in
  let heartbeat =
    Arg.(value & opt float 0.0
         & info [ "heartbeat" ] ~docv:"SECONDS"
             ~doc:"Heartbeat period for the failure detector (0 disables)")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Run the payroll scenario twice at the same seed — once on a clean \
             network, once with loss and duplication on every link plus the \
             reliable-delivery layer — and verify the final states are identical")
    Term.(const faults_cmd_run $ seed $ drop $ dup $ minutes $ employees
          $ no_reliable $ heartbeat)

(* ---- chaos ---- *)

let chaos_cmd_run seed events crashes crash_min crash_max workload durability
    churn heal shards sites =
  let module Chaos = Cm_chaos.Chaos in
  Cmtool_cli.require_at_least "--events" ~min:0 events;
  Cmtool_cli.require_at_least "--crashes" ~min:0 crashes;
  Cmtool_cli.require_at_least "--churn" ~min:0 churn;
  Cmtool_cli.require_at_least "--shards" ~min:0 shards;
  if shards > 0 then Cmtool_cli.require_at_least "--sites" ~min:4 sites;
  Cmtool_cli.require_seconds "--crash-min" crash_min;
  Cmtool_cli.require_seconds "--crash-max" crash_max;
  let usage = Cmtool_cli.usage_error in
  if crash_min > crash_max then
    usage "--crash-min must be <= --crash-max (got %g > %g)" crash_min crash_max;
  let chaos_workload =
    match Chaos.workload_of_string workload with
    | Some w -> w
    | None -> usage "unknown workload %S (payroll|bank)" workload
  in
  if churn > 0 && chaos_workload <> Chaos.Payroll then
    usage "--churn is only defined for the payroll workload";
  if heal && chaos_workload <> Chaos.Payroll then
    usage "--heal is only defined for the payroll workload";
  let durability =
    match Cm_core.Journal.durability_of_string durability with
    | Some d -> d
    | None -> usage "unknown durability %S (none|journal|journal+checkpoint)" durability
  in
  if shards > 0 && (heal || churn > 0) then
    usage "--shards cannot be combined with --heal or --churn";
  let plan = { Chaos.crashes; crash_min_len = crash_min; crash_max_len = crash_max } in
  let mode =
    if shards > 0 then Chaos.Ring { sites; shards; crashes }
    else if heal then Chaos.Heal
    else
      match chaos_workload with
      | Chaos.Payroll -> Chaos.Payroll_faults { plan; churn }
      | Chaos.Bank -> Chaos.Bank_faults plan
  in
  let report = Chaos.run { Chaos.seed; events; durability; mode } in
  print_string (Chaos.report_to_string report);
  if Chaos.passed report then 0 else 1

let chaos_cmd =
  let seed = Cmtool_cli.seed_arg () in
  let events =
    Arg.(value & opt int 200
         & info [ "events" ] ~docv:"N" ~doc:"Workload operations to inject")
  in
  let crashes =
    Arg.(value & opt int 5
         & info [ "crashes" ] ~docv:"N" ~doc:"Crash/restart cycles across the run")
  in
  let crash_min =
    Arg.(value & opt float 10.0
         & info [ "crash-min" ] ~docv:"SECONDS" ~doc:"Shortest crash window")
  in
  let crash_max =
    Arg.(value & opt float 60.0
         & info [ "crash-max" ] ~docv:"SECONDS"
             ~doc:"Longest crash window; above ~75s even the reliable layer's \
                   retransmission chain gives up and only a journal saves the \
                   messages")
  in
  let workload =
    Arg.(value & opt string "payroll"
         & info [ "workload" ] ~docv:"NAME" ~doc:"payroll or bank")
  in
  let durability =
    Arg.(value & opt string "journal+checkpoint"
         & info [ "durability" ] ~docv:"MODE"
             ~doc:"none, journal, or journal+checkpoint")
  in
  let churn =
    Arg.(value & opt int 0
         & info [ "churn" ] ~docv:"N"
             ~doc:"Live rule-program replacements (Evolution cutovers) to \
                   interleave with the faults — payroll only.  Each cutover \
                   swaps the propagation strategy for a different variant and \
                   the harness additionally checks that every epoch drains and \
                   retires cleanly and that guarantees proved under all epochs \
                   hold on the observed timeline")
  in
  let heal =
    Arg.(value & flag
         & info [ "heal" ]
             ~doc:"Run the self-healing schedule instead: silent-drop windows \
                   on the notify channel plus one bad rule rollout, under \
                   streaming guarantee monitors.  Checks that staleness is \
                   detected within kappa + one tick, no read is served from a \
                   stale copy, the bad cutover auto-rolls back (journaled), \
                   and every quarantined copy probes back to service — \
                   payroll only")
  in
  let shards =
    Arg.(value & opt int 0
         & info [ "shards" ] ~docv:"N"
             ~doc:"Run the sharded chaos schedule instead: a cross-shard \
                   notification ring over N OCaml domains with crashes on \
                   one shard while others keep firing.  The report is \
                   byte-identical across repeated runs and across shard \
                   counts for one seed (it omits N on purpose); 0 (the \
                   default) keeps the classic single-system workloads")
  in
  let sites =
    Arg.(value & opt int 6
         & info [ "sites" ] ~docv:"N"
             ~doc:"Ring size for --shards runs (at least 4; ignored \
                   otherwise)")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Derive a randomized crash/loss/partition schedule from the seed, \
             run the workload under it and fault-free, and check that recovery \
             turned every crash into a metric failure with nothing lost or \
             duplicated.  Output is byte-identical for identical arguments; \
             exits non-zero if any invariant fails")
    Term.(const chaos_cmd_run $ seed $ events $ crashes $ crash_min $ crash_max
          $ workload $ durability $ churn $ heal $ shards $ sites)

(* ---- stats / spans ---- *)

(* Shared runner for the observability exports: the E13 message-cost
   scenario (payroll over a faulty network with the reliable layer),
   instrumented with a registry.  Determinism contract: at a fixed seed
   the exported JSON is byte-identical across runs — CI compares two
   invocations, and the counters reconcile with EXPERIMENTS.md E13. *)
let observed_payroll ~seed ~employees ~drop ~dup =
  let module Payroll = Cm_workload.Payroll in
  let module Sys_ = Cm_core.System in
  let module Net = Cm_net.Net in
  let module Reliable = Cm_core.Reliable in
  Cmtool_cli.require_at_least "--employees" ~min:1 employees;
  Cmtool_cli.require_probability "--drop" drop;
  Cmtool_cli.require_probability "--dup" dup;
  let obs = Cm_core.Obs.create () in
  let config =
    Sys_.Config.(
      seeded seed
      |> with_faults { Net.drop_prob = drop; dup_prob = dup }
      |> with_reliable Reliable.default_config
      |> with_obs obs)
  in
  let p = Payroll.create ~config ~employees () in
  Payroll.install_propagation p;
  Payroll.random_updates p ~mean_interarrival:20.0 ~until:500.0;
  Sys_.run p.Payroll.system ~until:700.0;
  obs

let stats_cmd_run seed employees drop dup csv out =
  let obs = observed_payroll ~seed ~employees ~drop ~dup in
  Cmtool_cli.emit ~out
    (if csv then Cm_core.Obs.snapshot_to_csv obs
     else Cm_core.Obs.snapshot_to_json obs)

let spans_cmd_run seed employees drop dup csv out =
  let obs = observed_payroll ~seed ~employees ~drop ~dup in
  Cmtool_cli.emit ~out
    (if csv then Cm_core.Obs.spans_to_csv obs
     else Cm_core.Obs.spans_to_json obs)

let obs_args =
  let seed =
    Cmtool_cli.seed_arg ~default:1300
      ~doc:"Simulation seed (default matches bench experiment E13)" ()
  in
  let employees = Arg.(value & opt int 3 & info [ "employees" ] ~docv:"N") in
  let drop =
    Arg.(value & opt float 0.1
         & info [ "drop" ] ~docv:"P" ~doc:"Per-message loss probability")
  in
  let dup =
    Arg.(value & opt float 0.1
         & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplication probability")
  in
  let csv =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of JSON")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout")
  in
  (seed, employees, drop, dup, csv, out)

let stats_cmd =
  let seed, employees, drop, dup, csv, out = obs_args in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the E13 payroll scenario with the observability registry on \
             and export the metric snapshot (counters, gauges, latency \
             series).  Deterministic: same seed, byte-identical output")
    Term.(const stats_cmd_run $ seed $ employees $ drop $ dup $ csv $ out)

let spans_cmd =
  let seed, employees, drop, dup, csv, out = obs_args in
  Cmd.v
    (Cmd.info "spans"
       ~doc:"Run the E13 payroll scenario and export the rule-firing spans \
             (fire -> retransmit* -> execute -> step*), parent/child ids \
             included")
    Term.(const spans_cmd_run $ seed $ employees $ drop $ dup $ csv $ out)

(* ---- route ---- *)

let route_cmd_run config_file rule_files slo json no_check =
  if not (Cmtool_cli.preflight_config ~no_check ~file:config_file rule_files)
  then 1
  else
    match Cmtool_cli.build_config config_file with
    | Error c -> c
    | Ok (config, built) -> (
      match Cmtool_cli.parse_rule_files rule_files with
      | Error c -> c
      | Ok extra_rules ->
        let system = built.Cm_core.Toolkit.system in
        Cmtool_cli.declare_rule_files system extra_rules;
        let route = Cm_route.Route.of_cmrid system config in
        (* Static routing table: every declared site acts as a client
           location, sorted so the output is byte-deterministic. *)
        let client_sites =
          List.sort String.compare (Cm_core.Cmrid.sites config)
        in
        let decisions =
          Cm_route.Route.plan ?within_kappa:slo route ~client_sites
        in
        print_string
          (if json then Cm_route.Route.report_to_json ?slo route decisions
           else Cm_route.Route.report_to_text ?slo route decisions);
        0)

let route_cmd =
  let config_file = Cmtool_cli.config_pos in
  let rule_files =
    Cmtool_cli.rules_pos ~after:0
      ~doc:
        "Rule files describing the running program, as in $(b,cmtool check); \
         the Derive prover sees them when computing each copy's \xce\xba"
  in
  let slo =
    Arg.(
      value & opt (some float) None
      & info [ "slo" ] ~docv:"KAPPA"
          ~doc:
            "Per-read staleness budget in seconds: a copy qualifies when its \
             derived \xce\xba is at most this (inclusive).  Without it any \
             proved \xce\xba qualifies")
  in
  let json = Cmtool_cli.json_arg ~doc:"Emit the catalog and routes as JSON" in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Constraint-aware read routing over a CM-RID configuration: derive \
          the replica catalog from its $(b,constraint copy) directives \
          (\xc2\xa73.3.1 guarantees via the Derive prover) and print where each \
          site's reads would be served under the given staleness SLO — \
          cheapest qualifying replica, master fallback, or forced \
          synchronous poll.  Output is byte-deterministic")
    Term.(
      const route_cmd_run $ config_file $ rule_files $ slo $ json
      $ Cmtool_cli.no_check_arg)

let () =
  let info =
    Cmd.info "cmtool" ~version:"1.0"
      ~doc:"Constraint management toolkit for heterogeneous information systems"
  in
  exit (Cmd.eval' (Cmd.group info
       [ parse_cmd; suggest_cmd; derive_cmd; config_cmd; check_cmd; deps_cmd;
         evolve_cmd; check_trace_cmd; demo_cmd; faults_cmd; chaos_cmd;
         stats_cmd; spans_cmd; route_cmd ]))
