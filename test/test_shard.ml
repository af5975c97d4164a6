(* Differential tests for Cm_shard.Shard.Fabric.

   The sharded executor must be observationally equivalent to the
   sequential System it partitions: for any world (topology, rule
   program, workload) and any shard count, the canonical trace digest,
   the summed observability counters, and the end-state of every store
   must equal the unsharded oracle's.

   A seeded Prng drives a generator of random federations — 3..8 sites,
   a random cross-site notification chain per site (U at the source
   fires C at a random peer; C chains once more on some sites before
   settling as a local W), distinct per-link latencies so causally
   unrelated chains never collide on an instant — and random workloads
   of spontaneous U events.  Every world runs at shard counts 1, 2, 4
   and 7 (with a fresh random site→shard assignment per count) and each
   run is compared against the shards=1 oracle.  The zero-lookahead
   degenerate case (a cross-shard link with zero base latency) is
   pinned separately: it must serialize safely, not hang and not
   diverge. *)

open Cm_rule
module Fabric = Cm_shard.Shard.Fabric
module Config = Cm_core.System.Config
module Shell = Cm_core.Shell
module Strategy = Cm_core.Strategy
module Obs = Cm_core.Obs
module Prng = Cm_util.Prng

let site i = Printf.sprintf "s%d" i
let base i = Printf.sprintf "X%d" i

(* base "X<i>" -> site "s<i>"; anything else lives at s0. *)
let locator item =
  let b = item.Item.base in
  if String.length b > 1 && b.[0] = 'X' then
    match int_of_string_opt (String.sub b 1 (String.length b - 1)) with
    | Some i -> site i
    | None -> site 0
  else site 0

(* ---- world generation ---------------------------------------------- *)

type world = {
  m : int;  (* number of sites *)
  rules : Rule.t list;
  updates : (int * int * float) list;  (* site, value, time *)
  until : float;
}

(* One notification chain per site: U(X_i, v) fires C(X_{f i}, v); C
   settles locally as W, and on some sites also chains a second hop
   D(X_{g i}, v) which settles as W at its destination. *)
let gen_world rng =
  let m = 3 + Prng.int rng 6 in
  let buf = Buffer.create 256 in
  for i = 0 to m - 1 do
    let j = (i + 1 + Prng.int rng (m - 1)) mod m in
    Buffer.add_string buf
      (Printf.sprintf "u%d: U(%s, v) ->[5] C(%s, v)\n" i (base i) (base j));
    Buffer.add_string buf
      (Printf.sprintf "c%d: C(%s, v) ->[5] W(%s, v)\n" i (base i) (base i));
    if Prng.int rng 2 = 0 then begin
      let k = (i + 1 + Prng.int rng (m - 1)) mod m in
      Buffer.add_string buf
        (Printf.sprintf "d%d: C(%s, v) ->[5] D(%s, v)\n" i (base i) (base k));
      Buffer.add_string buf
        (Printf.sprintf "e%d: D(%s, v) ->[5] W(%s, v)\n" i (base i) (base i))
    end
  done;
  let n_updates = 4 + Prng.int rng 8 in
  let updates =
    List.init n_updates (fun idx ->
        let i = Prng.int rng m in
        let v = 1000 + (idx * 17) + i in
        let t = 0.5 +. (0.371 *. float_of_int idx) +. (0.0017 *. float_of_int i) in
        (i, v, t))
  in
  { m; rules = Parser.parse_rules (Buffer.contents buf); updates; until = 25.0 }

(* Distinct base latency per directed link (jitter-free: the worlds
   must not consume PRNG draws, so stream- and keyed-draw networks
   behave identically). *)
let link_latency m i j =
  { Cm_net.Net.base = 0.3 +. (0.0053 *. float_of_int ((i * m) + j)); jitter = 0.0 }

let build_fabric ~case ~shards ~assignment w =
  let config = Config.seeded (4242 + case) |> Config.with_obs (Obs.create ()) in
  let fab =
    Fabric.create ~config ~shards
      ~assign:(fun s ->
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some i when i < Array.length assignment -> assignment.(i)
        | _ -> 0)
      locator
  in
  for i = 0 to w.m - 1 do
    ignore (Fabric.add_shell fab ~site:(site i))
  done;
  for i = 0 to w.m - 1 do
    for j = 0 to w.m - 1 do
      if i <> j then
        Fabric.set_latency fab ~from_site:(site i) ~to_site:(site j)
          (link_latency w.m i j)
    done
  done;
  Fabric.install fab
    {
      Strategy.strategy_name = "diff";
      description = "differential chain world";
      rules = w.rules;
      aux_init = [];
    };
  List.iter
    (fun (i, v, t) ->
      let s = site i in
      let emit = Shell.emitter_for (Fabric.shell_for fab ~site:s) ~site:s in
      Fabric.at fab ~site:s t (fun () ->
          ignore
            (emit
               { Event.name = "U"; args = [ Event.Ai (Item.make (base i)); Event.Av (Value.Int v) ] }
               ~kind:Event.Spontaneous)))
    w.updates;
  fab

type observation = {
  digest : string;
  events : int;  (* trace length across shards *)
  fires_sent : int;
  fires_executed : int;
  shell_events : int;
  net_sent : int;
  end_state : (string * string) list;  (* item base, final value *)
}

let observe w fab =
  let end_state =
    List.init w.m (fun i ->
        let v =
          match Shell.read_aux (Fabric.shell_for fab ~site:(site i)) (Item.make (base i)) with
          | Some v -> Value.to_string v
          | None -> "<none>"
        in
        (base i, v))
  in
  {
    digest = Fabric.trace_digest fab;
    events = List.length (Fabric.merged_events fab);
    fires_sent = Fabric.counter_total fab "shell_fires_sent";
    fires_executed = Fabric.counter_total fab "shell_fires_executed";
    shell_events = Fabric.counter_total fab "shell_events";
    net_sent = Fabric.counter_total fab "net_sent";
    end_state;
  }

let check_equal ~case ~shards oracle got =
  let ctx fmt =
    Printf.ksprintf
      (fun what ->
        Alcotest.failf "case %d, shards %d: %s (oracle events %d, got %d)" case
          shards what oracle.events got.events)
      fmt
  in
  if not (String.equal oracle.digest got.digest) then ctx "trace digest diverged";
  if oracle.fires_sent <> got.fires_sent then
    ctx "fires_sent %d <> %d" oracle.fires_sent got.fires_sent;
  if oracle.fires_executed <> got.fires_executed then
    ctx "fires_executed %d <> %d" oracle.fires_executed got.fires_executed;
  if oracle.shell_events <> got.shell_events then
    ctx "shell_events %d <> %d" oracle.shell_events got.shell_events;
  if oracle.net_sent <> got.net_sent then
    ctx "net_sent %d <> %d" oracle.net_sent got.net_sent;
  List.iter2
    (fun (b, v) (b', v') ->
      if not (String.equal v v') then
        ctx "end state of %s: oracle %s, got %s" b v v';
      assert (String.equal b b'))
    oracle.end_state got.end_state

let shard_counts = [ 2; 4; 7 ]

let run_case case =
  let rng = Prng.create ~seed:(100_000 + case) in
  let w = gen_world rng in
  let oracle_fab =
    build_fabric ~case ~shards:1 ~assignment:(Array.make w.m 0) w
  in
  Fabric.run oracle_fab ~until:w.until;
  let oracle = observe w oracle_fab in
  List.iter
    (fun n ->
      let arng = Prng.create ~seed:(case * 31) in
      let assignment = Array.init w.m (fun _ -> Prng.int arng n) in
      let fab = build_fabric ~case ~shards:n ~assignment w in
      Fabric.run fab ~until:w.until;
      check_equal ~case ~shards:n oracle (observe w fab))
    shard_counts;
  oracle

let differential_cases () =
  let cases = 500 in
  let total_events = ref 0 in
  let total_fires = ref 0 in
  for case = 1 to cases do
    let oracle = run_case case in
    total_events := !total_events + oracle.events;
    total_fires := !total_fires + oracle.fires_sent
  done;
  (* 500 worlds x 4 shard counts = 2000 compared runs; the vacuity
     guards make sure the generator exercises real cross-site traffic. *)
  Alcotest.(check bool)
    (Printf.sprintf "worlds are not vacuous (%d events, %d fires)" !total_events
       !total_fires)
    true
    (!total_events >= cases * 10 && !total_fires >= cases * 4)

(* ---- degenerate and structural cases -------------------------------- *)

(* A zero-latency cross-shard link makes the conservative lookahead 0:
   the fabric must fall back to safe serialization — terminate, and
   agree with the sequential oracle — rather than hang or guess. *)
let zero_lookahead_serializes () =
  let w =
    {
      m = 3;
      rules =
        Parser.parse_rules
          "u0: U(X0, v) ->[5] C(X1, v)\n\
           c1: C(X1, v) ->[5] W(X1, v)\n\
           u1: U(X1, v) ->[5] C(X2, v)\n\
           c2: C(X2, v) ->[5] W(X2, v)";
      updates = [ (0, 7, 1.0); (1, 9, 2.0); (0, 11, 3.0) ];
      until = 10.0;
    }
  in
  let build shards assignment =
    let fab =
      Fabric.create ~config:(Config.seeded 77) ~shards
        ~assign:(fun s -> assignment.(int_of_string (String.sub s 1 1)))
        locator
    in
    for i = 0 to w.m - 1 do
      ignore (Fabric.add_shell fab ~site:(site i))
    done;
    for i = 0 to w.m - 1 do
      for j = 0 to w.m - 1 do
        if i <> j then
          Fabric.set_latency fab ~from_site:(site i) ~to_site:(site j)
            { Cm_net.Net.base = 0.0; jitter = 0.0 }
      done
    done;
    Fabric.install fab
      {
        Strategy.strategy_name = "zero";
        description = "zero-latency chains";
        rules = w.rules;
        aux_init = [];
      };
    List.iter
      (fun (i, v, t) ->
        let s = site i in
        let emit = Shell.emitter_for (Fabric.shell_for fab ~site:s) ~site:s in
        Fabric.at fab ~site:s t (fun () ->
            ignore
              (emit
                 { Event.name = "U";
                   args = [ Event.Ai (Item.make (base i)); Event.Av (Value.Int v) ] }
                 ~kind:Event.Spontaneous)))
      w.updates;
    fab
  in
  let oracle = build 1 [| 0; 0; 0 |] in
  Fabric.run oracle ~until:w.until;
  let sharded = build 3 [| 0; 1; 2 |] in
  Alcotest.(check bool) "lookahead degenerates to zero" true
    (Fabric.lookahead sharded = 0.0);
  Fabric.run sharded ~until:w.until;
  Alcotest.(check string) "serialized run matches the oracle"
    (Fabric.trace_digest oracle) (Fabric.trace_digest sharded);
  Alcotest.(check bool) "cross-shard messages flowed" true
    (Fabric.messages_forwarded sharded > 0)

(* All sites on one shard of a multi-shard fabric: no pair crosses
   shards, the lookahead is unbounded, and the whole run is one window. *)
let empty_shard_unbounded_lookahead () =
  let rng = Prng.create ~seed:100_001 in
  let w = gen_world rng in
  let oracle_fab = build_fabric ~case:1 ~shards:1 ~assignment:(Array.make w.m 0) w in
  Fabric.run oracle_fab ~until:w.until;
  let fab = build_fabric ~case:1 ~shards:2 ~assignment:(Array.make w.m 0) w in
  Alcotest.(check bool) "lookahead unbounded" true (Fabric.lookahead fab = infinity);
  Fabric.run fab ~until:w.until;
  Alcotest.(check string) "one-window run matches the oracle"
    (Fabric.trace_digest oracle_fab) (Fabric.trace_digest fab);
  Alcotest.(check int) "nothing crossed shards" 0 (Fabric.messages_forwarded fab)

let monitor_rejected_under_shards () =
  let config = Config.seeded 1 |> Config.with_monitor true in
  match Fabric.create ~config ~shards:2 ~assign:(fun _ -> 0) locator with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let shards_below_one_rejected () =
  Alcotest.check_raises "shards 0" (Invalid_argument "Fabric.create: shards must be >= 1")
    (fun () -> ignore (Fabric.create ~shards:0 ~assign:(fun _ -> 0) locator))

let repeated_runs_identical () =
  let rng = Prng.create ~seed:100_007 in
  let w = gen_world rng in
  let digest () =
    let arng = Prng.create ~seed:7 in
    let assignment = Array.init w.m (fun _ -> Prng.int arng 4) in
    let fab = build_fabric ~case:7 ~shards:4 ~assignment w in
    Fabric.run fab ~until:w.until;
    Fabric.trace_digest fab
  in
  Alcotest.(check string) "same seed, same shards, same digest" (digest ()) (digest ())

let () =
  Alcotest.run "shard"
    [
      ( "differential",
        [
          Alcotest.test_case
            "500 random worlds at shards {1,2,4,7}: digest/counters/state equal"
            `Quick differential_cases;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "zero lookahead serializes safely" `Quick
            zero_lookahead_serializes;
          Alcotest.test_case "empty shard, unbounded lookahead" `Quick
            empty_shard_unbounded_lookahead;
          Alcotest.test_case "monitor rejected under shards" `Quick
            monitor_rejected_under_shards;
          Alcotest.test_case "shards below one rejected" `Quick
            shards_below_one_rejected;
          Alcotest.test_case "repeated sharded runs byte-identical" `Quick
            repeated_runs_identical;
        ] );
    ]
