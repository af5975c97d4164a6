module Sim = Cm_sim.Sim
module Health = Cm_sources.Health
open Cm_rule

type emit = Event.desc -> kind:Event.kind -> Event.t

type failure_report = Msg.failure_kind -> unit

type t = {
  site : string;
  bases : string list;
  interface_rules : Rule.t list;
  current_value : Item.t -> Value.t option;
  request : Event.desc -> kind:Event.kind -> unit;
}

type timing = { read : float; write : float; notify : float; delete : float }

let uniform s = { read = s; write = s; notify = s; delete = s }

let default_deltas l =
  { read = l.read *. 5.0; write = l.write *. 5.0; notify = l.notify *. 5.0;
    delete = l.delete *. 5.0 }

type port = {
  sim : Sim.t;
  site : string;
  emit : emit;
  report : failure_report;
  health : Health.t;
  latency : timing;
  delta : timing;
}

let port ~sim ~site ~emit ~report ~health ~latency ?(delta = default_deltas latency) () =
  { sim; site; emit; report; health; latency; delta }

let rule_id ~site base kind = String.concat "/" [ site; base; kind ]

let index ~what base_of bindings =
  let table = Hashtbl.create 8 in
  List.iter
    (fun b ->
      let base = base_of b in
      if Hashtbl.mem table base then invalid_arg (what ^ ": duplicate binding for " ^ base);
      Hashtbl.replace table base b)
    bindings;
  table

type outcome = (unit, Msg.failure_kind) result

let down p = Health.mode p.health = Health.Down

let provenance p (item : Item.t) kind (trigger : Event.t) =
  Event.Generated
    { rule_id = rule_id ~site:p.site item.Item.base kind; trigger = trigger.Event.id }

(* Run [deliver] after [latency] plus any injected degradation; a
   response later than [bound] is a metric failure. *)
let after p ~latency ~bound deliver =
  let delay = latency +. Health.extra_latency p.health in
  Sim.schedule p.sim ~delay (fun () ->
      deliver ();
      if delay > bound then p.report Msg.Metric)

let send_n p item v ~provenance =
  after p ~latency:p.latency.notify ~bound:p.delta.notify (fun () ->
      if down p then p.report Msg.Logical
      else ignore (p.emit (Event.n item v) ~kind:provenance))

(* A native write or delete has run: answer it, or report its failure. *)
let answer p ~provenance response = function
  | Ok () -> ignore (p.emit response ~kind:provenance)
  | Error kind -> p.report kind

let missing p what item =
  Logs.err (fun m ->
      m "translator %s: no %s interface for %s" p.site what (Item.to_string item))

let request p ~read ~write ~delete desc ~kind =
  let event = p.emit desc ~kind in
  match desc.Event.name, desc.Event.args with
  | "WR", [ Event.Ai item; Event.Av v ] -> (
    if down p then p.report Msg.Logical
    else
      match write item with
      | None -> missing p "write" item
      | Some op ->
        let provenance = provenance p item "write" event in
        after p ~latency:p.latency.write ~bound:p.delta.write (fun () ->
            if down p then p.report Msg.Logical
            else answer p ~provenance (Event.w item v) (op v)))
  | "RR", [ Event.Ai item ] -> (
    if down p then p.report Msg.Logical
    else
      match read item with
      | None -> ()  (* item absent: the read interface's condition X=b is false *)
      | Some v ->
        let provenance = provenance p item "read" event in
        after p ~latency:p.latency.read ~bound:p.delta.read (fun () ->
            ignore (p.emit (Event.r item v) ~kind:provenance)))
  | "DR", [ Event.Ai item ] -> (
    if down p then p.report Msg.Logical
    else
      match delete item with
      | None -> missing p "delete" item
      | Some op ->
        let provenance = provenance p item "delete" event in
        after p ~latency:p.latency.delete ~bound:p.delta.delete (fun () ->
            if down p then p.report Msg.Logical
            else answer p ~provenance (Event.del item) (op ())))
  | name, _ -> Logs.err (fun m -> m "translator %s: unsupported request %s" p.site name)

let tick p ~read item period () =
  if down p then p.report Msg.Logical
  else begin
    let p_event = p.emit (Event.p period) ~kind:Event.Spontaneous in
    if not (Health.dropping_notifications p.health) then
      match read item with
      | None -> ()
      | Some v -> send_n p item v ~provenance:(provenance p item "pnotify" p_event)
  end

let make p ~bases ~interfaces ~read ?(write = fun _ -> None) ?(delete = fun _ -> None)
    ?(periodic = []) () =
  List.iter
    (fun (item, period) ->
      Sim.every p.sim ~period (tick p ~read item period) ~cancel:(fun () -> false))
    periodic;
  {
    site = p.site;
    bases = List.sort_uniq String.compare bases;
    interface_rules = List.sort (fun a b -> compare a.Rule.id b.Rule.id) interfaces;
    current_value = (fun item -> if down p then None else read item);
    request = request p ~read ~write ~delete;
  }

let changed p ~notify ?filter item ~old_value ~new_value =
  let ws = p.emit (Event.ws ~old:old_value item new_value) ~kind:Event.Spontaneous in
  let wanted =
    notify && match filter with None -> true | Some f -> f ~old_value ~new_value
  in
  if wanted && not (Health.dropping_notifications p.health) then
    send_n p item new_value ~provenance:(provenance p item "notify" ws)
