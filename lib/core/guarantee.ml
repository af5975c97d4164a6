open Cm_rule

type copy_pair = { leader : Item.t; follower : Item.t }

type t =
  | Follows of copy_pair
  | Leads of copy_pair
  | Strictly_follows of copy_pair
  | Metric_follows of copy_pair * float
  | Always_leq of { smaller : Item.t; larger : Item.t }
  | Exists_within of { antecedent : Item.t; consequent : Item.t; bound : float }
  | Monitor_window of {
      flag : Item.t;
      tb : Item.t;
      x : Item.t;
      y : Item.t;
      kappa : float;
    }
  | Periodic_equal of {
      x : Item.t;
      y : Item.t;
      period : float;
      valid_from : float;
      valid_to : float;
    }

let name = function
  | Follows _ -> "(1) follows"
  | Leads _ -> "(2) leads"
  | Strictly_follows _ -> "(3) strictly-follows"
  | Metric_follows _ -> "(4) metric-follows"
  | Always_leq _ -> "always-leq"
  | Exists_within _ -> "exists-within"
  | Monitor_window _ -> "monitor-window"
  | Periodic_equal _ -> "periodic-equal"

let to_string = function
  | Follows { leader; follower } ->
    Printf.sprintf "(%s = y)@t1 => (%s = y)@t2 /\\ t2 <= t1" (Item.to_string follower)
      (Item.to_string leader)
  | Leads { leader; follower } ->
    Printf.sprintf "(%s = x)@t1 => (%s = x)@t2 /\\ t2 > t1" (Item.to_string leader)
      (Item.to_string follower)
  | Strictly_follows { leader; follower } ->
    Printf.sprintf "%s takes values in the order %s took them" (Item.to_string follower)
      (Item.to_string leader)
  | Metric_follows ({ leader; follower }, kappa) ->
    Printf.sprintf "(%s = y)@t1 => (%s = y)@t2 /\\ t1 - %g < t2 <= t1"
      (Item.to_string follower) (Item.to_string leader) kappa
  | Always_leq { smaller; larger } ->
    Printf.sprintf "%s <= %s always" (Item.to_string smaller) (Item.to_string larger)
  | Exists_within { antecedent; consequent; bound } ->
    Printf.sprintf "E(%s)@t => E(%s)@[t, t + %g]" (Item.to_string antecedent)
      (Item.to_string consequent) bound
  | Monitor_window { flag; tb; x; y; kappa } ->
    Printf.sprintf "((%s = true) /\\ (%s = s))@t => (%s = %s)@[s, t - %g]"
      (Item.to_string flag) (Item.to_string tb) (Item.to_string x) (Item.to_string y)
      kappa
  | Periodic_equal { x; y; period; valid_from; valid_to } ->
    Printf.sprintf "(%s = %s) during [k*%g + %g, k*%g + %g] for all k"
      (Item.to_string x) (Item.to_string y) period valid_from period valid_to

let is_metric = function
  | Follows _ | Leads _ | Strictly_follows _ | Always_leq _ -> false
  | Metric_follows _ | Exists_within _ | Monitor_window _ | Periodic_equal _ -> true

type report = {
  holds : bool;
  checked_points : int;
  counterexamples : string list;
}

(* --- interval view of a timeline --- *)

(* [(start, stop, value option)] covering [0, horizon), in order. *)
let intervals tl item ~horizon =
  let changes = Timeline.changes tl item in
  let rec build = function
    | [] -> []
    | [ (t, v) ] -> if t >= horizon then [] else [ (t, horizon, v) ]
    | (t, v) :: ((t', _) :: _ as rest) ->
      if t >= horizon then [] else (t, Float.min t' horizon, v) :: build rest
  in
  let built = build changes in
  match built with
  | (t0, _, _) :: _ when t0 > 0.0 -> (0.0, t0, None) :: built
  | [] -> [ (0.0, horizon, None) ]
  | _ -> built

let taken_until tl item limit =
  List.filter (fun (t, _) -> t <= limit) (Timeline.values_taken tl item)

(* --- a small accumulator for obligations --- *)

type acc = { mutable points : int; mutable bad : string list; mutable nbad : int }

let fresh_acc () = { points = 0; bad = []; nbad = 0 }

let obligation acc ok fail_msg =
  acc.points <- acc.points + 1;
  if not ok then begin
    acc.nbad <- acc.nbad + 1;
    if acc.nbad <= 5 then acc.bad <- fail_msg () :: acc.bad
  end

let finish acc =
  { holds = acc.nbad = 0; checked_points = acc.points; counterexamples = List.rev acc.bad }

(* --- the individual checkers --- *)

let check_follows tl ~horizon { leader; follower } =
  let acc = fresh_acc () in
  let leader_taken = taken_until tl leader horizon in
  List.iter
    (fun (t1, y) ->
      let ok = List.exists (fun (t2, x) -> t2 <= t1 && Value.equal x y) leader_taken in
      obligation acc ok (fun () ->
          Printf.sprintf "%s = %s at %.3f but %s never held it before"
            (Item.to_string follower) (Value.to_string y) t1 (Item.to_string leader)))
    (taken_until tl follower horizon);
  finish acc

let check_leads tl ~horizon ~ignore_after { leader; follower } =
  let acc = fresh_acc () in
  let follower_iv = intervals tl follower ~horizon in
  List.iter
    (fun (t1, x) ->
      let ok =
        List.exists
          (fun (_, stop, v) ->
            match v with Some v -> Value.equal v x && stop > t1 | None -> false)
          follower_iv
      in
      obligation acc ok (fun () ->
          Printf.sprintf "%s took %s at %.3f but %s never reflected it"
            (Item.to_string leader) (Value.to_string x) t1 (Item.to_string follower)))
    (taken_until tl leader ignore_after);
  finish acc

let check_strictly tl ~horizon { leader; follower } =
  let acc = fresh_acc () in
  let leader_seq = taken_until tl leader horizon in
  (* Greedy order-embedding of the follower's value sequence into the
     leader's: each follower value must match a leader occurrence after
     the previous match. *)
  let rec embed remaining = function
    | [] -> ()
    | (t1, y) :: rest -> (
      let rec seek = function
        | [] -> None
        | (_, x) :: tail -> if Value.equal x y then Some tail else seek tail
      in
      match seek remaining with
      | Some tail ->
        obligation acc true (fun () -> "");
        embed tail rest
      | None ->
        obligation acc false (fun () ->
            Printf.sprintf "%s = %s at %.3f is out of order w.r.t. %s's history"
              (Item.to_string follower) (Value.to_string y) t1 (Item.to_string leader));
        embed remaining rest)
  in
  embed leader_seq (taken_until tl follower horizon);
  finish acc

(* An item's changes as instants settle them: a value held only in the
   middle of an instant is held at no instant. *)
let rec settled = function
  | (t, _) :: ((t', _) :: _ as rest) when t = t' -> settled rest
  | change :: rest -> change :: settled rest
  | [] -> []

(* (4) binds every instant t1 <= horizon at which the follower holds a
   value y: the leader held y at some t2 in (t1 - κ, t1], i.e. t1 lies
   in the union of [a, b + κ) over the leader's intervals [a, b) holding
   y.  Each take's holding span — its present intervals up to the next
   take — must lie inside it; the take fails at the first instant it
   does not: the take itself (or its return after a deletion), or the
   instant the leader left y plus κ. *)
let check_metric_follows tl ~horizon { leader; follower } kappa =
  let acc = fresh_acc () in
  let rec coverage = function
    | (a, Some v) :: rest ->
      (a, (match rest with (b, _) :: _ -> b +. kappa | [] -> Float.infinity), v)
      :: coverage rest
    | (_, None) :: rest -> coverage rest
    | [] -> []
  in
  let coverage = coverage (settled (Timeline.changes tl leader)) in
  (* Coverage intervals come in start order, so one pass finds the
     first instant at or after [p] that none of them covers. *)
  let first_uncovered y p =
    List.fold_left
      (fun u (a, e, v) -> if a <= u && u < e && Value.equal v y then e else u)
      p coverage
  in
  let takes = Array.of_list (taken_until tl follower horizon) in
  let failed_at = Array.make (Array.length takes) None in
  let k = ref 0 in
  let rec present = function
    | (p, Some y) :: rest when p <= horizon ->
      let q = match rest with (q, _) :: _ -> q | [] -> Float.infinity in
      while !k + 1 < Array.length takes && fst takes.(!k + 1) <= p do incr k done;
      let u = first_uncovered y p in
      if u < q && u <= horizon && failed_at.(!k) = None then failed_at.(!k) <- Some u;
      present rest
    | (p, None) :: rest when p <= horizon -> present rest
    | _ -> ()
  in
  present (settled (Timeline.changes tl follower));
  Array.iteri
    (fun i (_, y) ->
      obligation acc (failed_at.(i) = None) (fun () ->
          Printf.sprintf "%s = %s at %.3f but %s did not hold it within the last %gs"
            (Item.to_string follower) (Value.to_string y)
            (Option.get failed_at.(i)) (Item.to_string leader) kappa))
    takes;
  finish acc

let check_always_leq tl ~horizon ~smaller ~larger =
  let acc = fresh_acc () in
  let points =
    0.0 :: List.filter (fun t -> t <= horizon) (Timeline.change_times tl)
    |> List.sort_uniq compare
  in
  List.iter
    (fun t ->
      match Timeline.value_at tl smaller t, Timeline.value_at tl larger t with
      | Some a, Some b ->
        obligation acc
          (Value.compare a b <= 0)
          (fun () ->
            Printf.sprintf "at %.3f: %s = %s > %s = %s" t (Item.to_string smaller)
              (Value.to_string a) (Item.to_string larger) (Value.to_string b))
      | _ -> ())
    points;
  finish acc

let check_exists_within tl ~horizon ~antecedent ~consequent ~bound =
  let acc = fresh_acc () in
  let absent =
    List.filter_map
      (fun (start, stop, v) -> if v = None then Some (start, stop) else None)
      (intervals tl consequent ~horizon)
  in
  let present_antecedent =
    List.filter_map
      (fun (start, stop, v) -> if v <> None then Some (start, stop) else None)
      (intervals tl antecedent ~horizon)
  in
  List.iter
    (fun (a, b) ->
      (* Violation iff the antecedent exists at some t with t + bound < b
         and t >= a: the consequent is then absent throughout [t, t+bound]. *)
      let window_end = b -. bound in
      if window_end > a then
        List.iter
          (fun (s, e) ->
            let lo = Float.max a s in
            let hi = Float.min window_end e in
            obligation acc (hi <= lo) (fun () ->
                Printf.sprintf
                  "%s exists at %.3f but %s is absent for more than %gs afterwards"
                  (Item.to_string antecedent) lo (Item.to_string consequent) bound))
          present_antecedent)
    absent;
  if acc.points = 0 then obligation acc true (fun () -> "");
  finish acc

let equal_at tl x y t =
  match Timeline.value_at tl x t, Timeline.value_at tl y t with
  | Some a, Some b -> Value.equal a b
  | _ -> false

let check_monitor tl ~horizon ~flag ~tb ~x ~y ~kappa =
  let acc = fresh_acc () in
  (* The obligation is universally quantified over time, and its truth can
     flip not only at state changes but also κ after one (when a change
     enters the window [s, t − κ]); sample at both families of points. *)
  let changes = List.filter (fun t -> t <= horizon) (Timeline.change_times tl) in
  let shifted =
    List.filter_map
      (fun t -> if t +. kappa <= horizon then Some (t +. kappa) else None)
      changes
  in
  let points = List.sort_uniq compare ((0.0 :: changes) @ shifted) in
  List.iter
    (fun t ->
      match Timeline.value_at tl flag t with
      | Some (Value.Bool true) -> (
        match Timeline.value_at tl tb t with
        | Some s_val when (match s_val with Value.Int _ | Value.Float _ -> true | _ -> false) ->
          let s = Value.to_float s_val in
          let upto = t -. kappa in
          if upto >= s then begin
            let window_points = s :: List.filter (fun p -> p > s && p <= upto) points in
            List.iter
              (fun p ->
                obligation acc (equal_at tl x y p) (fun () ->
                    Printf.sprintf
                      "Flag true at %.3f (Tb = %.3f) but %s <> %s at %.3f"
                      t s (Item.to_string x) (Item.to_string y) p))
              window_points
          end
        | _ -> ())
      | _ -> ())
    points;
  if acc.points = 0 then obligation acc true (fun () -> "");
  finish acc

let check_periodic tl ~horizon ~x ~y ~period ~valid_from ~valid_to =
  let acc = fresh_acc () in
  let points = List.filter (fun t -> t <= horizon) (Timeline.change_times tl) in
  let k = ref 0 in
  let continue = ref true in
  while !continue do
    let w_start = (float_of_int !k *. period) +. valid_from in
    let w_end = Float.min ((float_of_int !k *. period) +. valid_to) horizon in
    if w_start > horizon then continue := false
    else begin
      let window_points = w_start :: List.filter (fun p -> p > w_start && p <= w_end) points in
      List.iter
        (fun p ->
          obligation acc (equal_at tl x y p) (fun () ->
              Printf.sprintf "window %d: %s <> %s at %.3f" !k (Item.to_string x)
                (Item.to_string y) p))
        window_points;
      incr k
    end
  done;
  finish acc

let check ?ignore_after ~horizon tl guarantee =
  let ignore_after = Option.value ignore_after ~default:horizon in
  match guarantee with
  | Follows pair -> check_follows tl ~horizon pair
  | Leads pair -> check_leads tl ~horizon ~ignore_after pair
  | Strictly_follows pair -> check_strictly tl ~horizon pair
  | Metric_follows (pair, kappa) -> check_metric_follows tl ~horizon pair kappa
  | Always_leq { smaller; larger } -> check_always_leq tl ~horizon ~smaller ~larger
  | Exists_within { antecedent; consequent; bound } ->
    check_exists_within tl ~horizon ~antecedent ~consequent ~bound
  | Monitor_window { flag; tb; x; y; kappa } ->
    check_monitor tl ~horizon ~flag ~tb ~x ~y ~kappa
  | Periodic_equal { x; y; period; valid_from; valid_to } ->
    check_periodic tl ~horizon ~x ~y ~period ~valid_from ~valid_to

let for_copy_constraint ~source ~target ~kappa =
  let pair = { leader = source; follower = target } in
  [ Follows pair; Leads pair; Strictly_follows pair; Metric_follows (pair, kappa) ]
