module Bibdb = Cm_sources.Bibdb
module Health = Cm_sources.Health
open Cm_rule

type t = { db : Bibdb.t; base : string; port : Cmi.port; cmi : Cmi.t }

let health t = Bibdb.health t.db
let cmi t = t.cmi
let interface_rules t = t.cmi.Cmi.interface_rules

let key_of_item (item : Item.t) =
  match item.Item.params with
  | [ Value.Str key ] -> Some key
  | [ v ] -> Some (Value.to_string v)
  | _ -> None

let read db base (item : Item.t) =
  if not (String.equal item.Item.base base) then None
  else
    Option.bind (key_of_item item) (fun key ->
        Option.map (fun p -> Value.Str p.Bibdb.title) (Bibdb.lookup db key))

let create ~sim ~db ~site ~emit ~report ?(latency = 0.5) ?delta ~base () =
  let port =
    Cmi.port ~sim ~site ~emit ~report ~health:(Bibdb.health db)
      ~latency:(Cmi.uniform latency) ?delta:(Option.map Cmi.uniform delta) ()
  in
  let cmi =
    Cmi.make port ~bases:[ base ]
      ~interfaces:
        [
          Interface.read ~id:(Cmi.rule_id ~site base "read") ~delta:port.Cmi.delta.read
            (Interface.family base [ "k" ]);
        ]
      ~read:(read db base) ()
  in
  { db; base; port; cmi }

let papers_by_author t author =
  Health.check (health t) ~name:"bibdb";
  Bibdb.by_author t.db author

let add_app t paper =
  Bibdb.add t.db paper;
  let item = Item.make t.base ~params:[ Value.Str paper.Bibdb.key ] in
  ignore (t.port.Cmi.emit (Event.ins item) ~kind:Event.Spontaneous)

let withdraw_app t key =
  let existed = Bibdb.withdraw t.db key in
  if existed then begin
    let item = Item.make t.base ~params:[ Value.Str key ] in
    ignore (t.port.Cmi.emit (Event.del item) ~kind:Event.Spontaneous)
  end;
  existed
