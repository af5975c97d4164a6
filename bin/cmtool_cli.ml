(* Shared plumbing for cmtool subcommands: the flags every command
   re-declared by hand (--json, --deny-warnings, --no-check, --seed),
   the CONFIG [RULES…] positional convention, config/rule-file loading
   with uniform error reporting, declaring extra rule files on a built
   system with check's merge rule, and route's static-check preflight
   gate. *)

open Cmdliner
module Interface = Cm_core.Interface
module System = Cm_core.System
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

(* A count flag below its floor, a duration flag that is not a finite,
   non-negative number of seconds, or a probability flag outside
   [0, 1]. *)
let require_at_least flag ~min v =
  if v < min then usage_error "%s must be >= %d (got %d)" flag min v

let require_seconds flag v =
  if not (Float.is_finite v && v >= 0.0) then
    usage_error "%s must be a finite number >= 0 (got %g)" flag v

let require_probability flag v =
  if not (Float.is_finite v && v >= 0.0 && v <= 1.0) then
    usage_error "%s must be a probability between 0 and 1 (got %g)" flag v

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

(* ---- extra rule files (check/evolve/route agree on them) ---- *)

(* Declare the rules of extra rule files on a built system, merged the
   way `cmtool check` merges them (Analysis.check_config): a rule
   identical to an installed or earlier one (same label and body) is
   the same rule; an interface statement restating a capability the
   translators report ({!Interface.restates}) is the same interface,
   not a second channel.  The remaining interface statements are
   declared, the remaining strategy rules installed. *)
let declare_rule_files system rules =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.replace seen (Cm_rule.Rule.to_string r) ())
    (System.strategy_rules system);
  let fresh r =
    let key = Cm_rule.Rule.to_string r in
    let is_new = not (Hashtbl.mem seen key) in
    Hashtbl.replace seen key ();
    is_new
  in
  let ifaces, strategy =
    List.partition (fun r -> Interface.classify r <> None) (List.filter fresh rules)
  in
  let restated = Interface.restates ~declared:(System.interface_rules system) in
  System.declare_interfaces system (List.filter (fun r -> not (restated r)) ifaces);
  if strategy <> [] then
    System.install system
      { Cm_core.Strategy.strategy_name = "rule-files";
        description = "strategy rules from the command line's rule files";
        rules = strategy;
        aux_init = [] }

(* ---- preflight gate ---- *)

(* Static preflight over a CM-RID config + rule files (cmtool route):
   refuse to route over a configuration the checker rejects (gate with
   --no-check).  Warnings never block. *)
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
