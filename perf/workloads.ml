(* The four workloads.  Each one generates its inputs from the seed
   (untimed), then builds a fresh world per round through the toolkit's
   public API; the bench drives it to quiescence and checks the gates.

   With a ledger, the builders wrap every call into a layer the bench
   can reach from outside: emitters (bench-injected and translator
   ones), [Cmi.request], [Tr_relational.exec_app], [Monitor.feed] and
   [Route.read].  Without one they hand the raw functions over, so the
   untimed path allocates nothing extra. *)

module Sim = Cm_sim.Sim
module Net = Cm_net.Net
module Sys_ = Cm_core.System
module Shell = Cm_core.Shell
module Cmi = Cm_core.Cmi
module Tr = Cm_core.Tr_relational
module Monitor = Cm_core.Monitor
module Reliable = Cm_core.Reliable
module Journal = Cm_core.Journal
module Obs = Cm_core.Obs
module Strategy = Cm_core.Strategy
module Db = Cm_relational.Database
module Route = Cm_route.Route
module Prng = Cm_util.Prng
open Cm_rule

type gate = { gate : string; failed : int }
(** [failed] counts the ops the check found wrong. *)

(* A statement the relational layer ran, for the [Database.exec]
   replay: application SQL is parsed on every call, translator
   statements are pre-parsed. *)
type stmt =
  | App of string * (string * Value.t) list
  | Parsed of Cm_relational.Sql_ast.stmt * (string * Value.t) list

type world = {
  system : Sys_.t;
  ops : int;
  horizon : float;  (** simulated time by which every op is quiescent *)
  calls : Meter.samples;  (** wall time of each client call *)
  rules : Rule.t list;  (** the strategy rules, as installed *)
  copies : (string * string) list;  (** (leader, follower) item bases *)
  route : Route.t option;
  db_rows : int;  (** rows per relational table; 0 when there is none *)
  db_mix : stmt list ref;  (** newest first; filled only when traced *)
  finish : unit -> gate list;  (** after the run: checks the gates *)
}

type workload = {
  name : string;
  prepare : scale:float -> seed:int -> Meter.ledger option -> world;
      (** [prepare ~scale ~seed] generates the inputs (untimed); the
          function it returns builds one fresh world — the timed set-up *)
}

let scaled scale n = max 1 (int_of_float (Float.round (scale *. float_of_int n)))

let must = function
  | Ok r -> r
  | Error e -> failwith (Db.error_to_string e)

(* --- instrumentation (identity without a ledger) --- *)

let wrap_emit tracer (emit : Cmi.emit) : Cmi.emit =
  match tracer with
  | None -> emit
  | Some l -> fun desc ~kind -> Meter.span l Meter.Emit (fun () -> emit desc ~kind)

(* Time a client call into [calls], and into the ledger row [row] when
   traced. *)
let timed_call tracer row calls f =
  match tracer with
  | None ->
    let t0 = Meter.now_ns () in
    let v = f () in
    Meter.record calls (Meter.now_ns () - t0);
    v
  | Some l ->
    let t0 = Meter.now_ns () in
    let v = Meter.span l row f in
    Meter.record calls (Meter.now_ns () - t0);
    v

(* Self-rescheduling driver: op [i] runs at [times.(i)], so the sim
   queue stays shallow and holds only the work the ops cause. *)
let drive sim times f =
  let n = Array.length times in
  let rec go i () =
    f i;
    if i + 1 < n then Sim.schedule_at sim times.(i + 1) (go (i + 1))
  in
  if n > 0 then Sim.schedule_at sim times.(0) (go 0)

let periodic_times n ~rate = Array.init n (fun i -> float_of_int i /. rate)

let poisson_times rng n ~rate =
  let t = ref 0.0 in
  Array.init n (fun _ ->
      t := !t +. Prng.exponential rng ~mean:(1.0 /. rate);
      !t)

(* The number in a base name after its [skip]-letter prefix, up to an
   underscore: [X12_3] gives 12 with [~skip:1], [Copy2] gives 2 with
   [~skip:4]. *)
let index_of_base ~skip base =
  let stop =
    match String.index_from_opt base skip '_' with
    | Some i -> i
    | None -> String.length base
  in
  int_of_string (String.sub base skip (stop - skip))

let sum_shells system f =
  List.fold_left (fun acc (_, sh) -> acc + f sh) 0 (Sys_.shells system)

(* --- relational plumbing shared by propagate-durable and routed-reads --- *)

let table_sql = "CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)"
let update_sql = "UPDATE t SET v = $b WHERE k = $n"
let read_sql = "SELECT v FROM t WHERE k = $n"

let fresh_table rows =
  let db = Db.create () in
  ignore (must (Db.exec db table_sql));
  for k = 0 to rows - 1 do
    ignore
      (must
         (Db.exec db "INSERT INTO t VALUES ($k, 0)"
            ~params:[ ("k", Value.Int k); ("v", Value.Int 0) ]))
  done;
  db

let table_rows db =
  match must (Db.exec db "SELECT k, v FROM t ORDER BY k") with
  | Db.Rows { rows; _ } -> rows
  | Db.Affected _ | Db.Done -> []

let mismatched_rows a b =
  let ra = table_rows a and rb = table_rows b in
  if List.length ra <> List.length rb then max (List.length ra) (List.length rb)
  else
    List.fold_left2
      (fun n x y -> if List.equal Value.equal x y then n else n + 1)
      0 ra rb

let source_binding base =
  {
    Tr.base;
    params = [ "n" ];
    read_sql = Some read_sql;
    write_sql = None;
    delete_sql = None;
    notify =
      Some
        { Tr.table = "t"; column = "v"; key_column = "k"; send = true; filter = None;
          filter_expr = None };
    no_spontaneous = false;
    periodic = None;
  }

let copy_binding base =
  {
    Tr.base;
    params = [ "n" ];
    read_sql = Some read_sql;
    write_sql = Some update_sql;
    delete_sql = None;
    notify = None;
    no_spontaneous = true;
    periodic = None;
  }

let write_stmt = lazy (Cm_relational.Sql_parser.parse update_sql)

(* A translator registered with the bench's wrappers: its emitter opens
   emit spans, its [request] opens request spans and, when traced,
   records the write statement the translator will run. *)
let add_translator tracer system shell ~site ~db ~latencies ~mix binding =
  let tr =
    Tr.create ~sim:(Sys_.sim system) ~db ~site
      ~emit:(wrap_emit tracer (Shell.emitter_for shell ~site))
      ~report:(fun k -> Shell.report_failure shell k)
      ~latencies [ binding ]
  in
  let cmi = Tr.cmi tr in
  let cmi =
    match tracer with
    | None -> cmi
    | Some l ->
      let request desc ~kind =
        (match desc.Event.args with
         | [ Event.Ai item; Event.Av v ] when String.equal desc.Event.name "WR" ->
           let n = List.hd item.Item.params in
           mix := Parsed (Lazy.force write_stmt, [ ("n", n); ("b", v) ]) :: !mix
         | _ -> ());
        Meter.span l Meter.Request (fun () -> cmi.Cmi.request desc ~kind)
      in
      { cmi with Cmi.request }
  in
  Sys_.register_translator system ~shell cmi;
  tr

let exec_update tracer calls ~mix tr ~key ~value =
  let params = [ ("b", Value.Int value); ("n", Value.Int key) ] in
  (match tracer with Some _ -> mix := App (update_sql, params) :: !mix | None -> ());
  match timed_call tracer Meter.Exec_app calls (fun () -> Tr.exec_app tr ~params update_sql) with
  | Ok _ -> ()
  | Error e -> failwith ("application UPDATE failed: " ^ Db.error_to_string e)

let strategy name rules = { Strategy.strategy_name = name; description = name; rules; aux_init = [] }

(* ------------------------------------------------------------------ *)
(* dispatch-local                                                      *)
(* ------------------------------------------------------------------ *)

(* 32 sites × 256 CM-local families × 4 range-split copy rules: index
   select, template match, condition eval, Fire build and Trace.record
   are the whole path. *)
let dispatch_local =
  let sites = 32 and families = 256 and ranges = 4 and keys = 8 and width = 1000 in
  let site s = "s" ^ string_of_int s in
  let xbase s k = Printf.sprintf "X%d_%d" s k and ybase s k = Printf.sprintf "Y%d_%d" s k in
  let locator (item : Item.t) = site (index_of_base ~skip:1 item.Item.base) in
  let program s =
    let b = Buffer.create (families * ranges * 64) in
    for k = 0 to families - 1 do
      for j = 0 to ranges - 1 do
        Printf.bprintf b "d%d_%d_%d: W(%s(n), b) && b >= %d && b < %d ->[1] W(%s(n), b)\n" s
          k j (xbase s k) (j * width) ((j + 1) * width) (ybase s k)
      done
    done;
    Buffer.contents b
  in
  let prepare ~scale ~seed =
    let ops = scaled scale 75_000 in
    let rng = Prng.create ~seed in
    let inputs =
      Array.init ops (fun i ->
          let s = i mod sites in
          let k = Prng.int rng families and n = Prng.int rng keys in
          let b = Prng.int rng (ranges * width) in
          (s, k, n, b))
    in
    let descs =
      Array.map
        (fun (s, k, n, b) ->
          Event.w (Item.make (xbase s k) ~params:[ Value.Int n ]) (Value.Int b))
        inputs
    in
    let times = periodic_times ops ~rate:1000.0 in
    let texts = Array.init sites program in
    fun tracer ->
      let system = Sys_.create ~config:(Sys_.Config.seeded seed) locator in
      let shells = Array.init sites (fun s -> Sys_.add_shell system ~site:(site s)) in
      (* Rules are distributed by LHS site (§4.1): each shell gets only
         the rules it triggers. *)
      let rules =
        Array.mapi
          (fun s shell ->
            let rs = Parser.parse_rules texts.(s) in
            Shell.install_strategy shell rs;
            rs)
          shells
      in
      let emitters =
        Array.init sites (fun s -> wrap_emit tracer (Shell.emitter_for shells.(s) ~site:(site s)))
      in
      let calls = Meter.samples ops in
      drive (Sys_.sim system) times (fun i ->
          let s, _, _, _ = inputs.(i) in
          let t0 = Meter.now_ns () in
          ignore (emitters.(s) descs.(i) ~kind:Event.Spontaneous);
          Meter.record calls (Meter.now_ns () - t0));
      let finish () =
        let fires = sum_shells system Shell.fires_sent in
        let last = Hashtbl.create 4096 in
        Array.iter (fun (s, k, n, b) -> Hashtbl.replace last (s, k, n) b) inputs;
        let stale =
          Hashtbl.fold
            (fun (s, k, n) b acc ->
              let item = Item.make (ybase s k) ~params:[ Value.Int n ] in
              match Shell.read_aux shells.(s) item with
              | Some v when Value.equal v (Value.Int b) -> acc
              | _ -> acc + 1)
            last 0
        in
        [ { gate = "fires_sent = ops"; failed = abs (ops - fires) };
          { gate = "Y holds the last injected X"; failed = stale } ]
      in
      {
        system;
        ops;
        horizon = times.(ops - 1) +. 1.0;
        calls;
        rules = List.concat (Array.to_list rules);
        copies =
          List.concat
            (List.init sites (fun s -> List.init families (fun k -> (xbase s k, ybase s k))));
        route = None;
        db_rows = 0;
        db_mix = ref [];
        finish;
      }
  in
  { name = "dispatch-local"; prepare }

(* ------------------------------------------------------------------ *)
(* propagate-durable                                                   *)
(* ------------------------------------------------------------------ *)

(* §4.2.2 N -> WR propagation between relational sources over a lossy
   WAN with reliable delivery, a checkpointed journal and an Obs
   registry.  [pairs]/[rows]/[updates] are parameters so the same world
   doubles as the translator reference for workloads without one. *)
let propagate_world ~pairs ~rows ~updates ~seed =
  let msite p = "m" ^ string_of_int p and rsite p = "r" ^ string_of_int p in
  let src p = "Src" ^ string_of_int p and dst p = "Dst" ^ string_of_int p in
  let locator (item : Item.t) =
    let p = index_of_base ~skip:3 item.Item.base in
    if String.starts_with ~prefix:"Src" item.Item.base then msite p else rsite p
  in
  let text =
    String.concat "\n"
      (List.init pairs (fun p ->
           Printf.sprintf "p%d: N(%s(n), b) ->[5] WR(%s(n), b)" p (src p) (dst p)))
  in
  let rng = Prng.create ~seed in
  let inputs =
    Array.init updates (fun _ ->
        let p = Prng.int rng pairs in
        let key = Prng.int rng rows in
        (p, key, 1 + Prng.int rng 1_000_000))
  in
  let times = periodic_times updates ~rate:200.0 in
  fun tracer ->
    let config =
      Sys_.Config.(
        seeded seed
        |> with_latency { Net.base = 0.04; jitter = 0.02 }
        |> with_faults { Net.drop_prob = 0.02; dup_prob = 0.0 }
        |> with_reliable Reliable.default_config
        |> with_durability Journal.Journal_with_checkpoint
        |> with_obs (Obs.create ()))
    in
    let system = Sys_.create ~config locator in
    let mix = ref [] in
    let dbs =
      Array.init pairs (fun p ->
          let ms = Sys_.add_shell system ~site:(msite p) in
          let rs = Sys_.add_shell system ~site:(rsite p) in
          let mdb = fresh_table rows and rdb = fresh_table rows in
          let mtr =
            add_translator tracer system ms ~site:(msite p) ~db:mdb
              ~latencies:Tr.default_latencies ~mix (source_binding (src p))
          in
          ignore
            (add_translator tracer system rs ~site:(rsite p) ~db:rdb
               ~latencies:Tr.default_latencies ~mix (copy_binding (dst p)));
          (mtr, mdb, rdb))
    in
    let rules = Parser.parse_rules text in
    Sys_.install system (strategy "propagate" rules);
    let calls = Meter.samples updates in
    drive (Sys_.sim system) times (fun i ->
        let p, key, value = inputs.(i) in
        let mtr, _, _ = dbs.(p) in
        exec_update tracer calls ~mix mtr ~key ~value);
    let finish () =
      let mismatches =
        Array.fold_left (fun n (_, mdb, rdb) -> n + mismatched_rows mdb rdb) 0 dbs
      in
      let pending, give_ups =
        match Sys_.reliable system with
        | Some r -> (Reliable.pending r, (Reliable.stats r).Reliable.give_ups)
        | None -> (0, 0)
      in
      [ { gate = "replica rows equal master rows"; failed = mismatches };
        { gate = "Reliable.pending = 0"; failed = pending };
        { gate = "no give-ups"; failed = give_ups } ]
    in
    {
      system;
      ops = updates;
      horizon = times.(updates - 1) +. 60.0;
      calls;
      rules;
      copies = List.init pairs (fun p -> (src p, dst p));
      route = None;
      db_rows = rows;
      db_mix = mix;
      finish;
    }

let propagate_durable =
  {
    name = "propagate-durable";
    prepare =
      (fun ~scale ~seed ->
        propagate_world ~pairs:8 ~rows:256 ~updates:(scaled scale 7_000) ~seed);
  }

(* ------------------------------------------------------------------ *)
(* monitor-soak                                                        *)
(* ------------------------------------------------------------------ *)

(* 32 leader families copied to the neighbouring site, all watched by a
   bench-owned Monitor: Monitor.feed and trace retention dominate. *)
let monitor_soak =
  let sites = 32 and keys = 64 and domain = 16 in
  let site s = "s" ^ string_of_int s in
  let lbase s = "L" ^ string_of_int s and fbase s = "F" ^ string_of_int s in
  let locator (item : Item.t) =
    let s = index_of_base ~skip:1 item.Item.base in
    if item.Item.base.[0] = 'L' then site s else site ((s + 1) mod sites)
  in
  let text =
    String.concat "\n"
      (List.init sites (fun s ->
           Printf.sprintf "c%d: W(%s(n), b) ->[1] W(%s(n), b)" s (lbase s) (fbase s)))
  in
  let prepare ~scale ~seed =
    let ops = scaled scale 40_000 in
    let rng = Prng.create ~seed in
    let inputs =
      Array.init ops (fun i -> (i mod sites, Prng.int rng keys, Prng.int rng domain))
    in
    let descs =
      Array.map
        (fun (s, n, b) -> Event.w (Item.make (lbase s) ~params:[ Value.Int n ]) (Value.Int b))
        inputs
    in
    let times = periodic_times ops ~rate:1000.0 in
    fun tracer ->
      let config =
        Sys_.Config.(seeded seed |> with_latency { Net.base = 0.05; jitter = 0.0 })
      in
      let system = Sys_.create ~config locator in
      let shells = Array.init sites (fun s -> Sys_.add_shell system ~site:(site s)) in
      let rules = Parser.parse_rules text in
      Sys_.install system (strategy "copy" rules);
      let sim = Sys_.sim system in
      let monitor = Monitor.create ~sim ~tick:1.0 () in
      let violations = ref 0 in
      Monitor.on_violation monitor (fun _ -> incr violations);
      for s = 0 to sites - 1 do
        Monitor.watch_copy monitor ~source:(lbase s) ~target:(fbase s) ~kappa:(Some 10.0)
      done;
      (match tracer with
       | None -> Monitor.attach monitor (Sys_.trace system)
       | Some l ->
         Cm_rule.Trace.on_record (Sys_.trace system) (fun e ->
             Meter.span l Meter.Feed (fun () -> Monitor.feed monitor e)));
      let emitters =
        Array.init sites (fun s -> wrap_emit tracer (Shell.emitter_for shells.(s) ~site:(site s)))
      in
      let calls = Meter.samples ops in
      drive sim times (fun i ->
          let s, _, _ = inputs.(i) in
          let t0 = Meter.now_ns () in
          ignore (emitters.(s) descs.(i) ~kind:Event.Spontaneous);
          Meter.record calls (Meter.now_ns () - t0));
      let horizon = times.(ops - 1) +. 5.0 in
      let finish () =
        Monitor.finalize monitor ~horizon;
        let last = Hashtbl.create 4096 in
        Array.iter (fun (s, n, b) -> Hashtbl.replace last (s, n) b) inputs;
        let stale =
          Hashtbl.fold
            (fun (s, n) b acc ->
              let item = Item.make (fbase s) ~params:[ Value.Int n ] in
              match Shell.read_aux shells.((s + 1) mod sites) item with
              | Some v when Value.equal v (Value.Int b) -> acc
              | _ -> acc + 1)
            last 0
        in
        [ { gate = "no monitor violations"; failed = !violations };
          { gate = "followers equal leaders"; failed = stale } ]
      in
      {
        system;
        ops;
        horizon;
        calls;
        rules;
        copies = List.init sites (fun s -> (lbase s, fbase s));
        route = None;
        db_rows = 0;
        db_mix = ref [];
        finish;
      }
  in
  { name = "monitor-soak"; prepare }

(* ------------------------------------------------------------------ *)
(* routed-reads                                                        *)
(* ------------------------------------------------------------------ *)

(* A hub with 4 relational feeds copied to 4 replica sites along a κ
   ladder 5/10/20/40 s; open-loop reads at SLO 10 s from 10⁶ simulated
   clients plus hub writes, with monitors arming quarantine. *)
let routed_reads =
  let replicas = 4 and keys = 64 and slo = 10.0 in
  let kappas = [| 5.0; 10.0; 20.0; 40.0 |] in
  (* 10⁶ open-loop clients at 9·10⁻⁴ reads/s each superpose to one
     Poisson stream of 900 reads/s; populations are equal per replica
     site, so the reading site is uniform. *)
  let clients = 1_000_000 and per_client = 9e-4 and write_rate = 100.0 in
  let read_rate = float_of_int clients *. per_client in
  let feed k = "Feed" ^ string_of_int k and copy k = "Copy" ^ string_of_int k in
  let rsite k = "r" ^ string_of_int k in
  let locator (item : Item.t) =
    if String.starts_with ~prefix:"Feed" item.Item.base then "hub"
    else rsite (index_of_base ~skip:4 item.Item.base)
  in
  (* κ = notify δ (1 s) + rule δ + write δ (1 s). *)
  let text =
    String.concat "\n"
      (List.init replicas (fun k ->
           Printf.sprintf "p%d: N(%s(n), b) ->[%g] WR(%s(n), b)" k (feed k)
             (kappas.(k) -. 2.0) (copy k)))
  in
  let latencies = { Tr.read = 0.2; write = 0.2; notify = 0.2; delete = 0.2 } in
  let prepare ~scale ~seed =
    (* Fixed op counts (≈200 simulated seconds at these rates), so every
       seed does the same amount of work. *)
    let rng = Prng.create ~seed in
    let read_times = poisson_times rng (scaled scale 180_000) ~rate:read_rate in
    let read_sites = Array.map (fun _ -> Prng.int rng replicas) read_times in
    let write_times = poisson_times rng (scaled scale 20_000) ~rate:write_rate in
    let duration =
      Float.max read_times.(Array.length read_times - 1) write_times.(Array.length write_times - 1)
    in
    let writes =
      Array.map (fun _ -> (Prng.int rng replicas, Prng.int rng keys, 1 + Prng.int rng 1_000_000))
        write_times
    in
    fun tracer ->
      let config = Sys_.Config.(seeded seed |> with_monitor true) in
      let system = Sys_.create ~config locator in
      let hub = Sys_.add_shell system ~site:"hub" in
      let net = Sys_.net system in
      let mix = ref [] in
      let feeds =
        Array.init replicas (fun k ->
            let rs = Sys_.add_shell system ~site:(rsite k) in
            let l = { Net.base = 0.02 +. (0.01 *. float_of_int k); jitter = 0.0 } in
            Net.set_latency net ~from_site:(rsite k) ~to_site:"hub" l;
            Net.set_latency net ~from_site:"hub" ~to_site:(rsite k) l;
            let fdb = fresh_table keys and cdb = fresh_table keys in
            let ftr =
              add_translator tracer system hub ~site:"hub" ~db:fdb ~latencies ~mix
                (source_binding (feed k))
            in
            ignore
              (add_translator tracer system rs ~site:(rsite k) ~db:cdb ~latencies ~mix
                 (copy_binding (copy k)));
            (ftr, fdb, cdb))
      in
      let rules = Parser.parse_rules text in
      Sys_.install system (strategy "propagate" rules);
      let route =
        Route.create system ~constraints:(List.init replicas (fun k -> (feed k, copy k)))
      in
      let sim = Sys_.sim system in
      let calls = Meter.samples (Array.length read_times) in
      let over_slo = ref 0 in
      let client_sites = Array.init replicas rsite and feeds_by_site = Array.init replicas feed in
      drive sim read_times (fun i ->
          let k = read_sites.(i) in
          let d =
            timed_call tracer Meter.Read calls (fun () ->
                Route.read ~within_kappa:slo route ~client_site:client_sites.(k)
                  feeds_by_site.(k))
          in
          if d.Route.d_served_kappa > slo then incr over_slo);
      (* Write latency is not a read figure: recorded nowhere. *)
      let untimed = Meter.samples 0 in
      drive sim write_times (fun i ->
          let k, key, value = writes.(i) in
          let ftr, _, _ = feeds.(k) in
          exec_update tracer untimed ~mix ftr ~key ~value);
      let finish () =
        let mismatches =
          Array.fold_left (fun n (_, fdb, cdb) -> n + mismatched_rows fdb cdb) 0 feeds
        in
        [ { gate = "served kappa <= SLO"; failed = !over_slo };
          { gate = "copies equal feeds"; failed = mismatches } ]
      in
      {
        system;
        ops = Array.length read_times + Array.length write_times;
        horizon = duration +. 10.0;
        calls;
        rules;
        copies = List.init replicas (fun k -> (feed k, copy k));
        route = Some route;
        db_rows = keys;
        db_mix = mix;
        finish;
      }
  in
  { name = "routed-reads"; prepare }

let all = [ dispatch_local; propagate_durable; monitor_soak; routed_reads ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
