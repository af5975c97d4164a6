module Sim = Cm_sim.Sim
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Tr_rel = Cm_core.Tr_relational
module Db = Cm_relational.Database
module Strategy = Cm_core.Strategy
module Cmrid = Cm_core.Cmrid
module Toolkit = Cm_core.Toolkit
open Cm_rule

type t = {
  system : Sys_.t;
  shell_branch : Shell.t;
  shell_ho : Shell.t;
  tr_branch : Tr_rel.t;
  tr_ho : Tr_rel.t;
  db_branch : Db.t;
  db_ho : Db.t;
  accounts : string list;
  initial : (Item.t * Value.t) list;
}

let day = 86_400.0
let business_open = 9.0 *. 3600.0
let business_close = 17.0 *. 3600.0
let window_start = (17.0 *. 3600.0) +. (15.0 *. 60.0)
let window_end = day +. (8.0 *. 3600.0)

let must = function
  | Ok r -> r
  | Error e -> failwith (Db.error_to_string e)

let initial_balance i = 1000 * (i + 1)

(* The federation as one CM-RID description (§4.1): the branch's and the
   head office's accounts tables, observed only — the strategy reads the
   branch at the end of the day. *)
let description accounts =
  let source site base =
    Printf.sprintf
      "source %s relational\n\
      \  init CREATE TABLE accounts (acct TEXT PRIMARY KEY, bal INT NOT NULL)\n\
       %s\
      \  item %s(n)\n\
      \    read SELECT bal FROM accounts WHERE acct = $n\n\
      \    write UPDATE accounts SET bal = $b WHERE acct = $n\n\
      \    notify accounts.bal key acct observe\n"
      site
      (String.concat ""
         (List.mapi
            (fun i acct ->
              Printf.sprintf "  init INSERT INTO accounts VALUES ('%s', %d)\n" acct
                (initial_balance i))
            accounts))
      base
  in
  match Cmrid.parse (source "branch" "Bal1" ^ source "ho" "Bal2") with
  | Ok cmrid -> cmrid
  | Error errors -> failwith (Cmrid.errors_to_string errors)

let eod_rules =
  (* Eod(Bal1(n)) is the custom event the end-of-day job emits per account. *)
  Cm_rule.Parser.parse_rules
    {|eod_read: Eod(Bal1(n)) ->[60] RR(Bal1(n))
      eod_prop: R(Bal1(n), b) ->[300] WR(Bal2(n), b)|}

let create ?(config = Sys_.Config.default) ?(accounts = 5) () =
  let accounts = List.init accounts (fun i -> "a" ^ string_of_int (i + 1)) in
  let description = description accounts in
  (* Bal1 at the branch; everything else at the head office. *)
  let system = Sys_.create ~config (Cmrid.locator ~default:"ho" description) in
  let built =
    match Toolkit.attach system description with
    | Ok built -> built
    | Error m -> failwith m
  in
  let at site =
    ( List.assoc site built.Toolkit.shells,
      List.assoc site built.relational,
      List.assoc site built.databases )
  in
  let shell_branch, tr_branch, db_branch = at "branch"
  and shell_ho, tr_ho, db_ho = at "ho" in
  Sys_.install system
    {
      Strategy.strategy_name = "end-of-day";
      description = "daily read sweep propagated to the head office";
      rules = eod_rules;
      aux_init = [];
    };
  let initial =
    List.concat
      (List.mapi
         (fun i acct ->
           let v = Value.Int (initial_balance i) in
           [
             (Item.make "Bal1" ~params:[ Value.Str acct ], v);
             (Item.make "Bal2" ~params:[ Value.Str acct ], v);
           ])
         accounts)
  in
  { system; shell_branch; shell_ho; tr_branch; tr_ho; db_branch; db_ho; accounts;
    initial }

let update t acct bal =
  ignore
    (must
       (Tr_rel.exec_app t.tr_branch "UPDATE accounts SET bal = $b WHERE acct = $n"
          ~params:[ ("b", Value.Int bal); ("n", Value.Str acct) ]))

let sweep t =
  let emit = Shell.emitter_for t.shell_branch ~site:"branch" in
  List.iter
    (fun acct ->
      let item = Item.make "Bal1" ~params:[ Value.Str acct ] in
      ignore
        (emit
           { Event.name = "Eod"; args = [ Event.Ai item ] }
           ~kind:Event.Spontaneous))
    t.accounts

let run_days t ~days ~updates_per_day =
  let sim = Sys_.sim t.system in
  let rng = Cm_util.Prng.split (Sim.rng sim) in
  let accounts = Array.of_list t.accounts in
  for d = 0 to days - 1 do
    let day_start = float_of_int d *. day in
    for _ = 1 to updates_per_day do
      let at =
        day_start +. Cm_util.Prng.uniform_in rng ~lo:business_open ~hi:business_close
      in
      let acct = Cm_util.Prng.pick rng accounts in
      let bal = 100 + Cm_util.Prng.int rng 10_000 in
      Sim.schedule_at sim at (fun () -> update t acct bal)
    done;
    Sim.schedule_at sim (day_start +. business_close) (fun () -> sweep t)
  done;
  Sys_.run t.system ~until:(float_of_int days *. day)

let guarantee acct =
  Cm_core.Guarantee.Periodic_equal
    {
      x = Item.make "Bal1" ~params:[ Value.Str acct ];
      y = Item.make "Bal2" ~params:[ Value.Str acct ];
      period = day;
      valid_from = window_start;
      valid_to = window_end;
    }

let balance_at t side acct =
  let db = match side with `Branch -> t.db_branch | `Head_office -> t.db_ho in
  match
    Db.exec db "SELECT bal FROM accounts WHERE acct = $n" ~params:[ ("n", Value.Str acct) ]
  with
  | Ok (Db.Rows { rows = [ [ v ] ]; _ }) -> v
  | _ -> failwith ("no such account: " ^ acct)
