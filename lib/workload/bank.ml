module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Tr_rel = Cm_core.Tr_relational
module Db = Cm_relational.Database
module Demarcation = Cm_core.Demarcation
module Cmrid = Cm_core.Cmrid
module Toolkit = Cm_core.Toolkit
open Cm_rule

type t = {
  system : Sys_.t;
  shell_a : Shell.t;
  shell_b : Shell.t;
  tr_a : Tr_rel.t;
  tr_b : Tr_rel.t;
  db_a : Db.t;
  db_b : Db.t;
  x : Demarcation.side;
  y : Demarcation.side;
}

(* The federation as one CM-RID description (§4.1): each branch's row
   and its CHECK (the local constraint manager), with the pending-request
   items placed at their own side. *)
let description =
  match
    Cmrid.parse
      {|source branch_a relational
  init CREATE TABLE acct (id TEXT PRIMARY KEY, bal INT NOT NULL, lim INT NOT NULL, CHECK (bal <= lim))
  init INSERT INTO acct VALUES ('x', 0, 50)
  item Xbal
    read SELECT bal FROM acct
    write UPDATE acct SET bal = $b
    notify acct.bal key id observe
  item Xlim
    read SELECT lim FROM acct
    write UPDATE acct SET lim = $b
    notify acct.lim key id observe

source branch_b relational
  init CREATE TABLE acct (id TEXT PRIMARY KEY, bal INT NOT NULL, lim INT NOT NULL, CHECK (bal >= lim))
  init INSERT INTO acct VALUES ('y', 100, 50)
  item Ybal
    read SELECT bal FROM acct
    write UPDATE acct SET bal = $b
    notify acct.bal key id observe
  item Ylim
    read SELECT lim FROM acct
    write UPDATE acct SET lim = $b
    notify acct.lim key id observe

location PendX branch_a
location PendY branch_b|}
  with
  | Ok cmrid -> cmrid
  | Error errors -> failwith (Cmrid.errors_to_string errors)

let locator = Cmrid.locator ~default:"branch_b" description

let create ?(config = Sys_.Config.default) ?system ~policy () =
  let system =
    match system with Some s -> s | None -> Sys_.create ~config locator
  in
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
  let shell_a, tr_a, db_a = at "branch_a" and shell_b, tr_b, db_b = at "branch_b" in
  let x = { Demarcation.bal = "Xbal"; lim = "Xlim"; pend = "PendX" } in
  let y = { Demarcation.bal = "Ybal"; lim = "Ylim"; pend = "PendY" } in
  Sys_.install system (Demarcation.rules ~policy ~delta:30.0 ~x ~y ());
  { system; shell_a; shell_b; tr_a; tr_b; db_a; db_b; x; y }

type outcome = Applied | Requested

let try_set_x t v =
  match
    Tr_rel.exec_app t.tr_a "UPDATE acct SET bal = $b" ~params:[ ("b", Value.Int v) ]
  with
  | Ok _ -> Applied
  | Error (Db.Check_failed _) ->
    Demarcation.request_increase_x
      ~emit:(Shell.emitter_for t.shell_a ~site:"branch_a")
      ~x:t.x ~wanted:(Value.Int v);
    Requested
  | Error e -> failwith (Db.error_to_string e)

let try_set_y t v =
  match
    Tr_rel.exec_app t.tr_b "UPDATE acct SET bal = $b" ~params:[ ("b", Value.Int v) ]
  with
  | Ok _ -> Applied
  | Error (Db.Check_failed _) ->
    Demarcation.request_decrease_y
      ~emit:(Shell.emitter_for t.shell_b ~site:"branch_b")
      ~y:t.y ~wanted:(Value.Int v);
    Requested
  | Error e -> failwith (Db.error_to_string e)

let read_col db col =
  match Db.exec db (Printf.sprintf "SELECT %s FROM acct" col) with
  | Ok (Db.Rows { rows = [ [ v ] ]; _ }) -> Value.to_float v
  | _ -> failwith "bank: account row missing"

let x_bal t = read_col t.db_a "bal"
let y_bal t = read_col t.db_b "bal"
let x_lim t = read_col t.db_a "lim"
let y_lim t = read_col t.db_b "lim"

let always_leq_guarantee =
  Cm_core.Guarantee.Always_leq
    { smaller = Item.make "Xbal"; larger = Item.make "Ybal" }

let initial t =
  [
    (Item.make "Xbal", Value.Float (x_bal t));
    (Item.make "Ybal", Value.Float (y_bal t));
    (Item.make "Xlim", Value.Float (x_lim t));
    (Item.make "Ylim", Value.Float (y_lim t));
  ]
