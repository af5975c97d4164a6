module Sim = Cm_sim.Sim
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Tr_rel = Cm_core.Tr_relational
module Db = Cm_relational.Database
module Strategy = Cm_core.Strategy
module Interface = Cm_core.Interface
module Cmrid = Cm_core.Cmrid
module Toolkit = Cm_core.Toolkit
open Cm_rule

type source_mode = Notify | Conditional of float | Read_only

type t = {
  system : Sys_.t;
  shell_a : Shell.t;
  shell_b : Shell.t;
  tr_a : Tr_rel.t;
  tr_b : Tr_rel.t;
  db_a : Db.t;
  db_b : Db.t;
  employees : string list;
  initial : (Item.t * Value.t) list;
}

let site_a = "sf"
let site_b = "ny"

let source_item emp = Item.make "Salary1" ~params:[ Value.Str emp ]
let target_item emp = Item.make "Salary2" ~params:[ Value.Str emp ]
let source_pattern = Interface.family "Salary1" [ "n" ]
let target_pattern = Interface.family "Salary2" [ "n" ]

let must = function
  | Ok r -> r
  | Error e -> failwith (Db.error_to_string e)

let initial_salary i = 1000 + (100 * i)

(* The federation as one CM-RID description (§4.1): both sites hold the
   employees table; A's salaries offer the [mode]'s notify interface, B's
   are observed only.  Floats are printed so they parse back exactly. *)
let description ~employees ~mode ~notify_latency ~notify_delta =
  let source site base notify =
    Printf.sprintf
      "source %s relational\n\
      \  init CREATE TABLE employees (empid TEXT PRIMARY KEY, salary INT NOT NULL)\n\
       %s\
      \  item %s(n)\n\
      \    read SELECT salary FROM employees WHERE empid = $n\n\
      \    write UPDATE employees SET salary = $b WHERE empid = $n\n\
      \    notify employees.salary key empid %s\n"
      site
      (String.concat ""
         (List.mapi
            (fun i emp ->
              Printf.sprintf "  init INSERT INTO employees VALUES ('%s', %d)\n" emp
                (initial_salary i))
            employees))
      base notify
  in
  let notify =
    match mode with
    | Notify -> ""
    | Conditional threshold -> Printf.sprintf "threshold %.17g" threshold
    | Read_only -> "observe"
  in
  match
    Cmrid.parse
      (source site_a "Salary1" notify
      ^ Printf.sprintf "  latency notify %.17g\n  delta notify %.17g\n" notify_latency
          notify_delta
      ^ source site_b "Salary2" "observe")
  with
  | Ok cmrid -> cmrid
  | Error errors -> failwith (Cmrid.errors_to_string errors)

(* Salary1 at A; everything else, CM-auxiliary items included, at B. *)
let locator =
  Cmrid.locator ~default:site_b
    (description ~employees:[] ~mode:Notify ~notify_latency:1.0 ~notify_delta:5.0)

let create ?(config = Sys_.Config.default) ?system ?(employees = 10)
    ?(mode = Notify) ?(notify_latency = 1.0) ?(notify_delta = 5.0) () =
  let employees = List.init employees (fun i -> "e" ^ string_of_int (i + 1)) in
  let system =
    match system with Some s -> s | None -> Sys_.create ~config locator
  in
  let built =
    match
      Toolkit.attach system
        (description ~employees ~mode ~notify_latency ~notify_delta)
    with
    | Ok built -> built
    | Error m -> failwith m
  in
  let at site =
    ( List.assoc site built.Toolkit.shells,
      List.assoc site built.relational,
      List.assoc site built.databases )
  in
  let shell_a, tr_a, db_a = at site_a and shell_b, tr_b, db_b = at site_b in
  let initial =
    List.concat
      (List.mapi
         (fun i emp ->
           let v = Value.Int (initial_salary i) in
           [ (source_item emp, v); (target_item emp, v) ])
         employees)
  in
  { system; shell_a; shell_b; tr_a; tr_b; db_a; db_b; employees; initial }

let install_propagation ?(delta = 5.0) t =
  Sys_.install t.system
    (Strategy.propagate ~delta ~source:source_pattern ~target:target_pattern ())

let install_polling ?(delta = 5.0) ~period t =
  List.iter
    (fun emp ->
      let concrete base = Expr.Item (base, [ Expr.Const (Value.Str emp) ]) in
      Sys_.install t.system
        (Strategy.poll ~prefix:("poll_" ^ emp) ~period ~delta
           ~source:(concrete "Salary1") ~target:(concrete "Salary2") ()))
    t.employees

let update_salary t ~emp ~salary =
  ignore
    (must
       (Tr_rel.exec_app t.tr_a "UPDATE employees SET salary = $b WHERE empid = $n"
          ~params:[ ("b", Value.Int salary); ("n", Value.Str emp) ]))

let schedule_update t ~at ~emp ~salary =
  Sim.schedule_at (Sys_.sim t.system) at (fun () -> update_salary t ~emp ~salary)

let random_updates t ~mean_interarrival ~until =
  let sim = Sys_.sim t.system in
  let rng = Cm_util.Prng.split (Sim.rng sim) in
  let employees = Array.of_list t.employees in
  Gen.poisson sim ~rng ~mean_interarrival ~until (fun () ->
      let emp = Cm_util.Prng.pick rng employees in
      let salary = 1000 + Cm_util.Prng.int rng 9000 in
      update_salary t ~emp ~salary)

let salary_at t side emp =
  let db = match side with `A -> t.db_a | `B -> t.db_b in
  match
    Db.exec db "SELECT salary FROM employees WHERE empid = $n"
      ~params:[ ("n", Value.Str emp) ]
  with
  | Ok (Db.Rows { rows = [ [ v ] ]; _ }) -> v
  | Ok _ -> failwith ("no such employee: " ^ emp)
  | Error e -> failwith (Db.error_to_string e)

let guarantees ?(kappa = 10.0) _t ~emp =
  Cm_core.Guarantee.for_copy_constraint ~source:(source_item emp)
    ~target:(target_item emp) ~kappa
