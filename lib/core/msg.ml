type failure_kind = Metric | Logical

type t =
  | Fire of {
      rule : Cm_rule.Rule.t;
      rule_epoch : int;
      env : Cm_rule.Expr.env;
      trigger_id : int;
      span : int;
    }
  | Failure_notice of { origin_site : string; kind : failure_kind }
  | Reset_notice of { origin_site : string }
  | Data of { from_site : string; epoch : int; seq : int; mid : int; payload : t }
  | Ack of { from_site : string; epoch : int; seq : int }
  | Heartbeat of { origin_site : string; beat : int }
  | Suspect_down of { origin_site : string; suspect_site : string }

let failure_kind_to_string = function Metric -> "metric" | Logical -> "logical"

let rec summary = function
  | Fire { rule = { Cm_rule.Rule.id; _ }; rule_epoch; trigger_id; _ } ->
    (* The epoch tag only appears once a site has evolved past the base
       program, keeping journal bytes stable for non-evolving systems. *)
    if rule_epoch = 0 then Printf.sprintf "Fire(%s#%d)" id trigger_id
    else Printf.sprintf "Fire(%s#%d@e%d)" id trigger_id rule_epoch
  | Failure_notice { origin_site; kind } ->
    Printf.sprintf "Failure(%s,%s)" origin_site (failure_kind_to_string kind)
  | Reset_notice { origin_site } -> Printf.sprintf "Reset(%s)" origin_site
  | Data { from_site; epoch; seq; mid; payload } ->
    Printf.sprintf "Data(%s,e%d,s%d,m%d,%s)" from_site epoch seq mid
      (summary payload)
  | Ack { from_site; epoch; seq } ->
    Printf.sprintf "Ack(%s,e%d,s%d)" from_site epoch seq
  | Heartbeat { origin_site; beat } ->
    Printf.sprintf "Heartbeat(%s,%d)" origin_site beat
  | Suspect_down { origin_site; suspect_site } ->
    Printf.sprintf "Suspect(%s,%s)" origin_site suspect_site
