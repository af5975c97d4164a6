(* Shared plumbing for cmtool subcommands: the flags every command
   re-declared by hand (--json, --deny-warnings, --no-check, --seed),
   the CONFIG [RULES…] positional convention, config/rule-file loading
   with uniform error reporting, the interface-merge semantics shared by
   check/evolve/route, and the static-check preflight gates. *)

open Cmdliner
module Interface = Cm_core.Interface
module Analysis = Cm_analysis.Analysis

(* ---- common flags ---- *)

let json_arg ~doc = Arg.(value & flag & info [ "json" ] ~doc)

let deny_warnings_arg ~doc =
  Arg.(value & flag & info [ "deny-warnings" ] ~doc)

let no_check_arg =
  Arg.(
    value & flag
    & info [ "no-check" ]
        ~doc:"Skip the static rule check that normally gates this command")

let seed_arg ?(default = 42) ?(doc = "Simulation seed") () =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"N" ~doc)

(* A malformed flag is a usage error: one line on stderr, exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* A count flag below its floor, or a duration flag that is not a
   finite, non-negative number of seconds. *)
let require_at_least flag ~min v =
  if v < min then usage_error "%s must be >= %d (got %d)" flag min v

let require_seconds flag v =
  if not (Float.is_finite v && v >= 0.0) then
    usage_error "%s must be a finite number >= 0 (got %g)" flag v

(* ---- CONFIG [RULES…] positionals ---- *)

let config_pos = Arg.(required & pos 0 (some file) None & info [] ~docv:"CONFIG")

let rules_pos ~after ~doc = Arg.(value & pos_right after file [] & info [] ~docv:"RULES" ~doc)

(* ---- file loading with uniform diagnostics ---- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

let parse_rule_file file =
  match Cm_rule.Parser.parse_rules (read_file file) with
  | exception Cm_rule.Parser.Parse_error { line; message; _ } ->
    Printf.eprintf "%s:%d: parse error: %s\n" file line message;
    Error 1
  | exception Sys_error m ->
    Printf.eprintf "%s\n" m;
    Error 1
  | rules -> Ok rules

let parse_rule_files files =
  List.fold_left
    (fun acc f ->
      match acc, parse_rule_file f with
      | Error c, _ | _, Error c -> Error c
      | Ok rs, Ok more -> Ok (rs @ more))
    (Ok []) files

let load_config file =
  match Cm_core.Cmrid.parse_file file with
  | Error errors ->
    List.iter
      (fun (e : Cm_core.Cmrid.error) ->
        Printf.eprintf "%s:%d: %s\n" file e.Cm_core.Cmrid.e_line
          e.Cm_core.Cmrid.e_msg)
      errors;
    Error 1
  | Ok config -> Ok config

let build_config ?sys_config file =
  match load_config file with
  | Error c -> Error c
  | Ok config -> (
    match Cm_core.Toolkit.build ?config:sys_config config with
    | Error m ->
      Printf.eprintf "%s: %s\n" file m;
      Error 1
    | Ok built -> Ok (config, built))

(* ---- interface merge (check/evolve/route agree on it) ---- *)

(* Base item an interface statement serves: the LHS item if there is one,
   else the first RHS item (periodic-notify rules have a P(...) LHS). *)
let iface_base (r : Cm_rule.Rule.t) =
  match Cm_rule.Template.item_base r.Cm_rule.Rule.lhs with
  | Some b -> Some b
  | None ->
    List.find_map
      (fun (s : Cm_rule.Rule.step) ->
        Cm_rule.Template.item_base s.Cm_rule.Rule.template)
      (Cm_rule.Rule.rhs_steps r)

let iface_key r =
  match Interface.classify r with
  | None -> None
  | Some kind -> Option.map (fun b -> (kind, b)) (iface_base r)

(* Split extra rule files against a system's synthesized interfaces:
   interface statements extend the declared set — except restatements of
   a capability the translators already declared, which are the same
   interface, not a second channel — and everything else is strategy. *)
let merge_program ~system extra_rules =
  let is_iface r = Interface.classify r <> None in
  let synth = Cm_core.System.interface_rules system in
  let synth_keys = List.filter_map iface_key synth in
  let extra_ifaces, extra_strategy = List.partition is_iface extra_rules in
  let extra_ifaces =
    List.filter
      (fun r ->
        match iface_key r with
        | Some k -> not (List.mem k synth_keys)
        | None -> true)
      extra_ifaces
  in
  ( synth @ extra_ifaces,
    Cm_core.System.strategy_rules system @ extra_strategy )

(* ---- preflight gates ---- *)

(* Static preflight over a built-in workload's rule set: refuse to run a
   scenario whose specifications the checker rejects (gate with
   --no-check).  Warnings never block, and are kept off the output so
   byte-compared runs stay stable. *)
let preflight ~label ~no_check workload =
  no_check
  ||
  let interfaces, strategy, locator = Cm_chaos.Chaos.static_rules workload in
  let findings = Analysis.check_rules ~file:label ~interfaces ~strategy ~locator () in
  let errors, _, _ = Analysis.summary findings in
  if errors = 0 then true
  else begin
    List.iter
      (fun (f : Analysis.finding) ->
        if f.Analysis.severity = Analysis.Error then
          Printf.eprintf "%s\n" (Analysis.finding_to_string f))
      findings;
    Printf.eprintf
      "%s: static check found %d error(s) in the workload's rules; \
       pass --no-check to run anyway\n"
      label errors;
    false
  end

(* Same gate over a CM-RID config + rule files (cmtool route). *)
let preflight_config ~no_check ~file rule_files =
  no_check
  ||
  match (read_file file, List.map (fun f -> (f, read_file f)) rule_files) with
  | exception Sys_error m ->
    Printf.eprintf "%s\n" m;
    false
  | text, rule_files ->
    let findings = Analysis.check_config ~rule_files ~file text in
    let errors, _, _ = Analysis.summary findings in
    if errors = 0 then true
    else begin
      List.iter
        (fun (f : Analysis.finding) ->
          if f.Analysis.severity = Analysis.Error then
            Printf.eprintf "%s\n" (Analysis.finding_to_string f))
        findings;
      Printf.eprintf
        "%s: static check found %d error(s); pass --no-check to run anyway\n"
        file errors;
      false
    end

(* ---- output ---- *)

let emit ~out text =
  match out with
  | None ->
    print_string text;
    0
  | Some path ->
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    Printf.printf "written to %s\n" path;
    0
