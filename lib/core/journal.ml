(* Per-site write-ahead log backing crash recovery (ISSUE 3, paper §5).

   The paper's crash-to-metric-failure claim rests on the database being
   able to "remember" messages that need to be sent out upon recovery.
   This module is that memory, made concrete in the ARIES tradition:
   an append-only record stream per site (events received, firing
   decisions, store writes, reliable-transport send/ack/deliver state,
   incarnation changes) plus optional periodic checkpoints that bound
   how much of the stream recovery has to replay.

   The journal survives Net.crash_site by construction: it is owned by
   the recovery manager, not by the site's volatile state, modelling a
   log on stable storage.  Everything is deterministic — appends happen
   in simulation order and serialization is canonical — so two replays
   of the same run produce byte-identical logs. *)

module Item = Cm_rule.Item
module Value = Cm_rule.Value
module Rule = Cm_rule.Rule

type durability = None | Journal | Journal_with_checkpoint

let durability_to_string = function
  | None -> "none"
  | Journal -> "journal"
  | Journal_with_checkpoint -> "journal+checkpoint"

let durability_of_string s : durability option =
  match s with
  | "none" -> Some None
  | "journal" -> Some Journal
  | "journal+checkpoint" | "checkpoint" -> Some Journal_with_checkpoint
  | _ -> None

(* Receiver- and sender-side transport state for one peer, as frozen by
   a checkpoint.  [unacked] and [delivered_mids] are in ascending order
   so checkpoints serialize canonically. *)
type link_state = {
  peer : string;
  next_mid : int;
  unacked : (int * int * int * Msg.t) list;  (* mid, epoch, seq, payload *)
  in_epoch : int;  (* epoch of the last inbound slot consumed from [peer] *)
  in_expected : int;  (* next seq expected from [peer] within [in_epoch] *)
  delivered_mids : int list;
}

(* Lifecycle of a rule epoch as recorded on stable storage; mirrors
   Shell's per-site state machine so recovery can replay a crashed site
   back into the epoch it was actually running. *)
type epoch_phase = Ep_proposed | Ep_active | Ep_draining | Ep_retired

let epoch_phase_to_string = function
  | Ep_proposed -> "proposed"
  | Ep_active -> "active"
  | Ep_draining -> "draining"
  | Ep_retired -> "retired"

type record =
  | Event of { time : float; site : string; desc : string }
  | Fire_sent of {
      time : float;
      rule_id : string;
      to_site : string;
      trigger_id : int;
    }
  | Store_write of { time : float; item : Item.t; value : Value.t }
  | Outbound of {
      time : float;
      to_site : string;
      mid : int;
      epoch : int;
      seq : int;
      payload : Msg.t;
    }
  | Acked of { time : float; to_site : string; mid : int }
  | Delivered of {
      time : float;
      from_site : string;
      epoch : int;
      seq : int;
      mid : int;
      applied : bool;  (* false: slot consumed but payload was a mid-dup *)
    }
  | Restarted of { time : float; incarnation : int }
  | Epoch_proposed of { time : float; epoch : int; rules : Rule.t list }
  | Epoch_cutover of { time : float; epoch : int }
  | Epoch_retired of { time : float; epoch : int }
  | Epoch_rollback of {
      time : float;
      from_epoch : int;  (* the cutover being undone *)
      to_epoch : int;  (* the epoch whose program is re-proposed *)
      reason : string;
    }
  | Checkpoint of {
      time : float;
      incarnation : int;
      store : (Item.t * Value.t) list;  (* in item order *)
      links : link_state list;  (* in peer order *)
      rule_epochs : (int * epoch_phase * Rule.t list) list;
          (* epochs other than a sole base epoch, ascending; epoch 0's
             rules are configuration and serialize as [] *)
      active_epoch : int;
    }

(* [record_kind r] is [kinds.(kind_index r)]; the index picks a
   journal's pre-resolved [journal_appends] handle. *)
let kinds =
  [| "event"; "fire_sent"; "store_write"; "outbound"; "acked"; "delivered";
     "restarted"; "epoch_proposed"; "epoch_cutover"; "epoch_retired";
     "epoch_rollback"; "checkpoint" |]

let checkpoint_kind = 11

let kind_index = function
  | Event _ -> 0
  | Fire_sent _ -> 1
  | Store_write _ -> 2
  | Outbound _ -> 3
  | Acked _ -> 4
  | Delivered _ -> 5
  | Restarted _ -> 6
  | Epoch_proposed _ -> 7
  | Epoch_cutover _ -> 8
  | Epoch_retired _ -> 9
  | Epoch_rollback _ -> 10
  | Checkpoint _ -> checkpoint_kind

let record_kind r = kinds.(kind_index r)

let link_state_to_string l =
  Printf.sprintf "%s next_mid=%d unacked=[%s] in=e%d/s%d mids=[%s]" l.peer
    l.next_mid
    (String.concat ";"
       (List.map
          (fun (mid, epoch, seq, payload) ->
            Printf.sprintf "m%d:e%d:s%d:%s" mid epoch seq (Msg.summary payload))
          l.unacked))
    l.in_epoch l.in_expected
    (String.concat ";" (List.map string_of_int l.delivered_mids))

let record_to_string r =
  match r with
  | Event { time; site; desc } ->
    Printf.sprintf "%.3f event %s %s" time site desc
  | Fire_sent { time; rule_id; to_site; trigger_id } ->
    Printf.sprintf "%.3f fire_sent %s -> %s trigger=%d" time rule_id to_site
      trigger_id
  | Store_write { time; item; value } ->
    Printf.sprintf "%.3f store_write %s = %s" time (Item.to_string item)
      (Value.to_string value)
  | Outbound { time; to_site; mid; epoch; seq; payload } ->
    Printf.sprintf "%.3f outbound -> %s m%d e%d s%d %s" time to_site mid epoch
      seq (Msg.summary payload)
  | Acked { time; to_site; mid } ->
    Printf.sprintf "%.3f acked -> %s m%d" time to_site mid
  | Delivered { time; from_site; epoch; seq; mid; applied } ->
    Printf.sprintf "%.3f delivered <- %s e%d s%d m%d %s" time from_site epoch
      seq mid
      (if applied then "applied" else "dup")
  | Restarted { time; incarnation } ->
    Printf.sprintf "%.3f restarted incarnation=%d" time incarnation
  | Epoch_proposed { time; epoch; rules } ->
    Printf.sprintf "%.3f epoch_proposed e%d rules={%s}" time epoch
      (String.concat "; " (List.map Rule.to_string rules))
  | Epoch_cutover { time; epoch } ->
    Printf.sprintf "%.3f epoch_cutover e%d" time epoch
  | Epoch_retired { time; epoch } ->
    Printf.sprintf "%.3f epoch_retired e%d" time epoch
  | Epoch_rollback { time; from_epoch; to_epoch; reason } ->
    Printf.sprintf "%.3f epoch_rollback e%d -> e%d (%s)" time from_epoch
      to_epoch reason
  | Checkpoint { time; incarnation; store; links; rule_epochs; active_epoch } ->
    (* The epochs section only appears once a site has evolved, keeping
       checkpoint bytes stable for non-evolving systems. *)
    let epochs_part =
      if rule_epochs = [] && active_epoch = 0 then ""
      else
        Printf.sprintf " epochs={%s} active=e%d"
          (String.concat "|"
             (List.map
                (fun (e, phase, rules) ->
                  Printf.sprintf "e%d:%s:{%s}" e (epoch_phase_to_string phase)
                    (String.concat "; " (List.map Rule.to_string rules)))
                rule_epochs))
          active_epoch
    in
    Printf.sprintf "%.3f checkpoint incarnation=%d store={%s} links={%s}%s" time
      incarnation
      (String.concat ";"
         (List.map
            (fun (item, v) ->
              Printf.sprintf "%s=%s" (Item.to_string item) (Value.to_string v))
            store))
      (String.concat "|" (List.map link_state_to_string links))
      epochs_part

type t = {
  site : string;
  obs : Obs.t;
  appends_by_kind : Obs.Counter.t array;  (* by [kind_index]; the only tally *)
  checkpoint_bytes : Obs.Series.t;
  mutable rev_records : record list;  (* newest first *)
  mutable incarnation : int;  (* count of Restarted records appended *)
}

type stats = {
  appends : int;
  bytes : int;
  checkpoints : int;
  incarnation : int;
}

let site t = t.site

(* One canonical line per record; its length is the journal-overhead
   metric. *)
let rendered_size r = String.length (record_to_string r) + 1

let append t r =
  t.rev_records <- r :: t.rev_records;
  Obs.Counter.incr t.appends_by_kind.(kind_index r);
  match r with
  | Restarted { incarnation; _ } -> t.incarnation <- incarnation
  | Checkpoint _ ->
    if Obs.enabled t.obs then
      Obs.Series.observe t.checkpoint_bytes (float_of_int (rendered_size r))
  | _ -> ()

let records t = List.rev t.rev_records

let length t =
  Array.fold_left (fun n c -> n + Obs.Counter.value c) 0 t.appends_by_kind

let incarnation (t : t) = t.incarnation

let stats t =
  {
    appends = length t;
    bytes = List.fold_left (fun n r -> n + rendered_size r) 0 t.rev_records;
    checkpoints = Obs.Counter.value t.appends_by_kind.(checkpoint_kind);
    incarnation = t.incarnation;
  }

(* Recovery reads the log as: the newest checkpoint (if any) plus every
   record after it, oldest first.  Without checkpoints the whole stream
   comes back. *)
let replay_base t : record option * record list =
  let rec split after rs : record option * record list =
    match rs with
    | [] -> (None, after)
    | Checkpoint _ as c :: _ -> (Some c, after)
    | r :: rest -> split (r :: after) rest
  in
  split [] t.rev_records

let to_string t =
  let buf = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string buf (record_to_string r);
      Buffer.add_char buf '\n')
    (records t);
  Buffer.contents buf

(* -- registry: one journal per site, on shared stable storage -- *)

type registry = { reg_obs : Obs.t; by_site : (string, t) Hashtbl.t }

let create_registry ?(obs = Obs.noop) () = { reg_obs = obs; by_site = Hashtbl.create 8 }

let for_site reg ~site =
  match Hashtbl.find reg.by_site site with
  | j -> j
  | exception Not_found ->
    let obs = reg.reg_obs in
    let j =
      {
        site;
        obs;
        appends_by_kind =
          Array.map
            (fun kind ->
              Obs.Counter.make obs "journal_appends"
                ~labels:[ ("site", site); ("kind", kind) ])
            kinds;
        checkpoint_bytes =
          Obs.Series.make obs "journal_checkpoint_bytes" ~labels:[ ("site", site) ];
        rev_records = [];
        incarnation = 0;
      }
    in
    Hashtbl.replace reg.by_site site j;
    j

let sites reg =
  Hashtbl.fold (fun site _ acc -> site :: acc) reg.by_site []
  |> List.sort compare
