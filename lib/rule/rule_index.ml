(* Entries carry a global registration sequence number so that a select
   over several buckets (site-specific and local/chaining, base-specific
   and base-free) can reproduce the exact interleaving a linear scan over
   the registration list would produce.  Buckets are growable arrays in
   registration order; select walks up to four of them at once, always
   taking the lowest [seq] next, so candidates come out in registration
   order with nothing allocated on the way. *)

module Stbl = Hashtbl.Make (String)

(* One side of a range: the condition's [x >= c] ([Incl]) or [x > c]
   ([Excl]) below, [x <= c] ([Incl]) or [x < c] ([Excl]) above, in
   [Value.compare] order. *)
type bound = Unbounded | Incl of Value.t | Excl of Value.t

(* What the leading comparisons of a rule's LHS condition demand of the
   event's argument at [pos], which the template binds to their
   variable; [Any] when they demand nothing. *)
type range = Any | Range of { pos : int; lo : bound; hi : bound }

type 'a entry = {
  seq : int;
  site : Item.site option;
  range : range;
  mutable live : bool;
  payload : 'a;
}

type 'a bucket = { mutable entries : 'a entry array; mutable len : int }

(* The buckets of one descriptor name.  Discrimination on the first
   template argument: [Expr.Item (b, _)] at position 0 matches only
   events whose first argument is an item with base [b] (see
   Template.matches), so such templates go in [based] under [b].  Any
   other first argument (or no arguments) leaves the template in
   [free], a candidate for every event with its name. *)
type 'a by_name = { free : 'a bucket; based : 'a bucket Stbl.t }

type 'a t = {
  mutable next_seq : int;
  mutable live_count : int;
  mutable dead : int;  (* tombstones still present in rev_all *)
  mutable rev_all : 'a entry list;  (* every entry, newest first *)
  sited : 'a by_name Stbl.t Stbl.t;  (* LHS site -> name -> buckets *)
  local : 'a by_name Stbl.t;  (* name -> site-free (chaining) buckets *)
  (* What a missing key reads as: no buckets, no entries. *)
  no_names : 'a by_name Stbl.t;
  no_name : 'a by_name;
  no_entries : 'a bucket;
}

let empty_bucket () = { entries = [||]; len = 0 }

let create () =
  let no_entries = empty_bucket () in
  {
    next_seq = 0;
    live_count = 0;
    dead = 0;
    rev_all = [];
    sited = Stbl.create 16;
    local = Stbl.create 8;
    no_names = Stbl.create 1;
    no_name = { free = no_entries; based = Stbl.create 1 };
    no_entries;
  }

(* --- ranges: the leading comparisons of the LHS condition --- *)

let rec conjuncts = function
  | Expr.Binop (Expr.And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

(* The argument position where [tpl] binds [x], if [x] first occurs as a
   whole top-level argument: matching then binds [x] to the event's
   argument there. *)
let binding_position (tpl : Template.t) x =
  let rec go i = function
    | [] -> None
    | Expr.Var y :: _ when String.equal x y -> Some i
    | a :: rest -> if List.mem x (Expr.free_vars a) then None else go (i + 1) rest
  in
  go 0 tpl.Template.args

(* Conditions evaluate conjuncts left to right and fail at the first
   false one, so the leading comparisons of one variable against
   constants — one bound on each side at most — must all hold for the
   rule to fire. *)
let range ~lhs cond =
  match conjuncts cond with
  | Expr.Binop ((Expr.Ge | Expr.Gt | Expr.Lt | Expr.Le), Expr.Var x, Expr.Const _) :: _ as cs
    -> (
    match binding_position lhs x with
    | None -> Any
    | Some pos ->
      let rec take lo hi = function
        | Expr.Binop (op, Expr.Var y, Expr.Const c) :: rest when String.equal x y -> (
          match op, lo, hi with
          | Expr.Ge, Unbounded, _ -> take (Incl c) hi rest
          | Expr.Gt, Unbounded, _ -> take (Excl c) hi rest
          | Expr.Le, _, Unbounded -> take lo (Incl c) rest
          | Expr.Lt, _, Unbounded -> take lo (Excl c) rest
          | _ -> (lo, hi))
        | _ -> (lo, hi)
      in
      let lo, hi = take Unbounded Unbounded cs in
      Range { pos; lo; hi })
  | _ -> Any

let above lo v =
  match lo with
  | Unbounded -> true
  | Incl c -> Value.compare v c >= 0
  | Excl c -> Value.compare v c > 0

let below hi v =
  match hi with
  | Unbounded -> true
  | Incl c -> Value.compare v c <= 0
  | Excl c -> Value.compare v c < 0

(* An item at [pos] would bind the variable to an item, which no
   comparison accepts; a shorter argument list matches no template. *)
let rec admits ~pos ~lo ~hi i (args : Event.arg list) =
  match args with
  | [] -> false
  | _ :: rest when i < pos -> admits ~pos ~lo ~hi (i + 1) rest
  | Event.Av v :: _ -> above lo v && below hi v
  | Event.Ai _ :: _ -> false

let admitted entry args =
  match entry.range with Any -> true | Range { pos; lo; hi } -> admits ~pos ~lo ~hi 0 args

(* --- registration --- *)

let arg0_base (tpl : Template.t) =
  match tpl.Template.args with
  | Expr.Item (base, _) :: _ -> Some base
  | _ -> None

let find_or_add tbl key make =
  match Stbl.find tbl key with
  | v -> v
  | exception Not_found ->
    let v = make () in
    Stbl.replace tbl key v;
    v

let bucket_for t ~lhs ~site =
  let names =
    match site with
    | Some s -> find_or_add t.sited s (fun () -> Stbl.create 4)
    | None -> t.local
  in
  let n =
    find_or_add names lhs.Template.name (fun () ->
        { free = empty_bucket (); based = Stbl.create 8 })
  in
  match arg0_base lhs with
  | Some base -> find_or_add n.based base empty_bucket
  | None -> n.free

let push b entry =
  if b.len = Array.length b.entries then begin
    let grown = Array.make (max 4 (2 * b.len)) entry in
    Array.blit b.entries 0 grown 0 b.len;
    b.entries <- grown
  end;
  b.entries.(b.len) <- entry;
  b.len <- b.len + 1

let add ?cond t ~lhs ~site payload =
  let range = match cond with Some c -> range ~lhs c | None -> Any in
  let entry = { seq = t.next_seq; site; range; live = true; payload } in
  t.next_seq <- t.next_seq + 1;
  t.live_count <- t.live_count + 1;
  t.rev_all <- entry :: t.rev_all;
  push (bucket_for t ~lhs ~site) entry

(* Removal is incremental: the discrimination bucket drops the entry
   (O(bucket), not O(rules)), while [rev_all] keeps a tombstone that the
   naive oracle skips.  Tombstones are compacted once they outnumber the
   live entries, keeping [select_naive] amortized O(live). *)
let remove t ~lhs ~site pred =
  let b = bucket_for t ~lhs ~site in
  let rec newest i = if i < 0 || pred b.entries.(i).payload then i else newest (i - 1) in
  let i = newest (b.len - 1) in
  if i < 0 then false
  else begin
    let e = b.entries.(i) in
    Array.blit b.entries (i + 1) b.entries i (b.len - i - 1);
    b.len <- b.len - 1;
    (* The vacated slot must not keep the removed payload alive. *)
    if b.len = 0 then b.entries <- [||] else b.entries.(b.len) <- b.entries.(0);
    e.live <- false;
    t.live_count <- t.live_count - 1;
    t.dead <- t.dead + 1;
    if t.dead > t.live_count && t.dead > 16 then begin
      t.rev_all <- List.filter (fun e -> e.live) t.rev_all;
      t.dead <- 0
    end;
    true
  end

(* --- selection --- *)

(* A miss neither raises (a raise costs more than a second hash) nor
   allocates an option. *)
let find tbl key default =
  if Stbl.length tbl > 0 && Stbl.mem tbl key then Stbl.find tbl key else default

let names_at t site = find t.sited site t.no_names
let by_name t names name = find names name t.no_name

let based t n (desc : Event.desc) =
  match desc.Event.args with
  | Event.Ai item :: _ -> find n.based item.Item.base t.no_entries
  | _ -> t.no_entries

let seq_at b i = if i < b.len then b.entries.(i).seq else max_int

let visit f args b i =
  let e = b.entries.(i) in
  if admitted e args then f e.payload

(* Visit the admitted entries of four buckets in ascending [seq]. *)
let rec merge f args b1 i1 b2 i2 b3 i3 b4 i4 =
  let s1 = seq_at b1 i1 and s2 = seq_at b2 i2 and s3 = seq_at b3 i3 and s4 = seq_at b4 i4 in
  let s = Int.min (Int.min s1 s2) (Int.min s3 s4) in
  if s = max_int then ()
  else if s = s1 then begin
    visit f args b1 i1;
    merge f args b1 (i1 + 1) b2 i2 b3 i3 b4 i4
  end
  else if s = s2 then begin
    visit f args b2 i2;
    merge f args b1 i1 b2 (i2 + 1) b3 i3 b4 i4
  end
  else if s = s3 then begin
    visit f args b3 i3;
    merge f args b1 i1 b2 i2 b3 (i3 + 1) b4 i4
  end
  else begin
    visit f args b4 i4;
    merge f args b1 i1 b2 i2 b3 i3 b4 (i4 + 1)
  end

let iter t ~local_site ~event_site ~(desc : Event.desc) f =
  let name = desc.Event.name in
  let sited = by_name t (names_at t event_site) name in
  let local =
    if String.equal event_site local_site then by_name t t.local name else t.no_name
  in
  merge f desc.Event.args sited.free 0 (based t sited desc) 0 local.free 0 (based t local desc) 0

let select t ~local_site ~event_site ~desc =
  let acc = ref [] in
  iter t ~local_site ~event_site ~desc (fun p -> acc := p :: !acc);
  List.rev !acc

let select_naive t ~local_site ~event_site =
  List.fold_left
    (fun acc entry ->
      let site_matches =
        match entry.site with
        | Some s -> String.equal s event_site
        | None -> String.equal event_site local_site
      in
      if entry.live && site_matches then entry.payload :: acc else acc)
    [] t.rev_all

let length t = t.live_count

let bucket_stats t =
  let count b (buckets, largest) =
    if b.len = 0 then (buckets, largest) else (buckets + 1, max largest b.len)
  in
  let of_names names acc =
    Stbl.fold
      (fun _ n acc -> Stbl.fold (fun _ b acc -> count b acc) n.based (count n.free acc))
      names acc
  in
  Stbl.fold (fun _ names acc -> of_names names acc) t.sited (of_names t.local (0, 0))
