(* Tests for cm_util: PRNG determinism, heap ordering, stats, tables. *)

let prng_deterministic () =
  let a = Cm_util.Prng.create ~seed:7 in
  let b = Cm_util.Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Cm_util.Prng.bits64 a) (Cm_util.Prng.bits64 b)
  done

let prng_seed_matters () =
  let a = Cm_util.Prng.create ~seed:1 in
  let b = Cm_util.Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Cm_util.Prng.bits64 a <> Cm_util.Prng.bits64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds diverge" true !differs

let prng_int_bounds () =
  let g = Cm_util.Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Cm_util.Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let prng_float_bounds () =
  let g = Cm_util.Prng.create ~seed:4 in
  for _ = 1 to 1000 do
    let v = Cm_util.Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let prng_split_independent () =
  let g = Cm_util.Prng.create ~seed:5 in
  let child = Cm_util.Prng.split g in
  let a = Cm_util.Prng.bits64 child in
  let b = Cm_util.Prng.bits64 g in
  Alcotest.(check bool) "split streams differ" true (a <> b)

let prng_copy () =
  let g = Cm_util.Prng.create ~seed:6 in
  ignore (Cm_util.Prng.bits64 g);
  let c = Cm_util.Prng.copy g in
  Alcotest.(check int64) "copy continues identically" (Cm_util.Prng.bits64 g)
    (Cm_util.Prng.bits64 c)

let prng_exponential_positive () =
  let g = Cm_util.Prng.create ~seed:8 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Cm_util.Prng.exponential g ~mean:3.0 > 0.0)
  done

let prng_invalid_args () =
  let g = Cm_util.Prng.create ~seed:9 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Cm_util.Prng.int g 0));
  Alcotest.check_raises "pick empty" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Cm_util.Prng.pick g [||]))

let heap_sorts () =
  let h = Cm_util.Heap.of_list ~leq:( <= ) ~dummy:0 [ 5; 3; 9; 1; 7; 3 ] in
  Alcotest.(check (list int)) "sorted drain" [ 1; 3; 3; 5; 7; 9 ]
    (Cm_util.Heap.to_sorted_list h)

let heap_empty () =
  let h = Cm_util.Heap.create ~leq:( <= ) ~dummy:0 in
  Alcotest.(check bool) "is_empty" true (Cm_util.Heap.is_empty h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.min_exn: empty heap")
    (fun () -> ignore (Cm_util.Heap.pop_exn h));
  Alcotest.check_raises "min empty" (Invalid_argument "Heap.min_exn: empty heap")
    (fun () -> ignore (Cm_util.Heap.min_exn h))

let heap_min_then_pop () =
  let h = Cm_util.Heap.of_list ~leq:( <= ) ~dummy:0 [ 4; 2 ] in
  Alcotest.(check int) "min" 2 (Cm_util.Heap.min_exn h);
  Alcotest.(check int) "size unchanged by min" 2 (Cm_util.Heap.size h);
  Alcotest.(check int) "pop" 2 (Cm_util.Heap.pop_exn h);
  Alcotest.(check int) "size after pop" 1 (Cm_util.Heap.size h)

let heap_clear () =
  let h = Cm_util.Heap.of_list ~leq:( <= ) ~dummy:0 [ 1; 2; 3 ] in
  Cm_util.Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Cm_util.Heap.size h)

let heap_fold () =
  let h = Cm_util.Heap.of_list ~leq:( <= ) ~dummy:0 [ 5; 3; 9; 1 ] in
  (* Order is unspecified; fold must visit every element exactly once
     and leave the heap intact. *)
  Alcotest.(check int) "sum over all elements" 18
    (Cm_util.Heap.fold ( + ) 0 h);
  Alcotest.(check int) "count matches size" (Cm_util.Heap.size h)
    (Cm_util.Heap.fold (fun n _ -> n + 1) 0 h);
  Alcotest.(check (list int)) "heap untouched by fold" [ 1; 3; 5; 9 ]
    (Cm_util.Heap.to_sorted_list h);
  let empty = Cm_util.Heap.create ~leq:( <= ) ~dummy:0 in
  Alcotest.(check int) "fold over empty" 0 (Cm_util.Heap.fold ( + ) 0 empty)

let heap_qcheck =
  QCheck.Test.make ~name:"heap drains any int list sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Cm_util.Heap.of_list ~leq:( <= ) ~dummy:0 xs in
      Cm_util.Heap.to_sorted_list h = List.sort compare xs)

let heap_size_qcheck =
  QCheck.Test.make ~name:"heap size tracks adds and pops" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let h = Cm_util.Heap.create ~leq:( <= ) ~dummy:0 in
      List.iter (Cm_util.Heap.add h) xs;
      let n = List.length xs in
      let popped = ref 0 in
      while not (Cm_util.Heap.is_empty h) do
        ignore (Cm_util.Heap.pop_exn h);
        incr popped
      done;
      !popped = n && Cm_util.Heap.is_empty h)

(* Random add/pop/min/clear interleavings, equal keys included, against
   a sorted-list model.  Elements are (key, id) ordered by key alone, so
   the heap may pop any of several equal keys; the model removes exactly
   the element popped, which must hold the smallest key. *)
type heap_op = Add of int | Pop | Min | Clear

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun k -> Add k) (int_bound 4)); (3, return Pop); (1, return Min);
        (1, return Clear) ])

let heap_op_print = function
  | Add k -> Printf.sprintf "Add %d" k
  | Pop -> "Pop"
  | Min -> "Min"
  | Clear -> "Clear"

let heap_model_qcheck =
  QCheck.Test.make ~name:"heap ops agree with a sorted-list model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map heap_op_print ops))
       QCheck.Gen.(list_size (int_bound 200) heap_op_gen))
    (fun ops ->
      let h = Cm_util.Heap.create ~leq:(fun (a, _) (b, _) -> a <= b) ~dummy:(-1, -1) in
      let model = ref [] and next_id = ref 0 in
      let smallest_key () = match !model with (k, _) :: _ -> Some k | [] -> None in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Add k ->
              incr next_id;
              Cm_util.Heap.add h (k, !next_id);
              model := List.merge compare [ (k, !next_id) ] !model;
              true
            | (Min | Pop) when Cm_util.Heap.is_empty h -> !model = []
            | Min ->
              let k, id = Cm_util.Heap.min_exn h in
              Some k = smallest_key () && List.mem (k, id) !model
            | Pop ->
              let k, id = Cm_util.Heap.pop_exn h in
              let ok = Some k = smallest_key () && List.mem (k, id) !model in
              model := List.filter (fun e -> e <> (k, id)) !model;
              ok
            | Clear ->
              Cm_util.Heap.clear h;
              model := [];
              true
          in
          agrees && Cm_util.Heap.size h = List.length !model)
        ops
      && Cm_util.Heap.to_sorted_list h |> List.map fst = List.map fst !model)

(* A popped or cleared element is garbage: the heap keeps no reference
   to it in the slot it vacated. *)
let heap_drops_popped () =
  let h = Cm_util.Heap.create ~leq:(fun a b -> !a <= !b) ~dummy:(ref 0) in
  let popped = Weak.create 2 and kept = Weak.create 1 in
  List.iter
    (fun k ->
      let x = ref k in
      Cm_util.Heap.add h x;
      if k < 3 then Weak.set popped (k - 1) (Some x) else Weak.set kept 0 (Some x))
    [ 3; 1; 2 ];
  ignore (Sys.opaque_identity (Cm_util.Heap.pop_exn h));
  ignore (Sys.opaque_identity (Cm_util.Heap.pop_exn h));
  Gc.full_major ();
  Alcotest.(check (pair bool bool)) "both popped elements collected" (false, false)
    (Weak.check popped 0, Weak.check popped 1);
  Alcotest.(check bool) "element still queued is kept" true (Weak.check kept 0);
  Alcotest.(check int) "one left" 1 (Cm_util.Heap.size h);
  Cm_util.Heap.clear h;
  Gc.full_major ();
  Alcotest.(check bool) "cleared element collected" false (Weak.check kept 0)

let stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Cm_util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Cm_util.Stats.mean [])

let stats_stddev () =
  Alcotest.(check (float 1e-9)) "constant" 0.0 (Cm_util.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-6)) "known" 2.0
    (Cm_util.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 ] in
  Alcotest.(check (float 1e-9)) "median" 5.0 (Cm_util.Stats.percentile 0.5 xs);
  Alcotest.(check (float 1e-9)) "p100" 10.0 (Cm_util.Stats.percentile 1.0 xs);
  Alcotest.(check (float 1e-9)) "p0-ish" 1.0 (Cm_util.Stats.percentile 0.01 xs);
  (* Nearest-rank edge cases: p = 1.0 on a singleton must not overrun,
     and 0.95 * 20 = 19.000000000000004 must round to rank 19, not
     ceil to 20. *)
  Alcotest.(check (float 1e-9)) "p100 singleton" 7.0
    (Cm_util.Stats.percentile 1.0 [ 7.0 ]);
  let twenty = List.init 20 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p95 of 20 is rank 19" 19.0
    (Cm_util.Stats.percentile 0.95 twenty)

let stats_summary () =
  let s = Cm_util.Stats.summary [ 4.0; 1.0; 3.0; 2.0; 5.0 ] in
  Alcotest.(check int) "n" 5 s.Cm_util.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Cm_util.Stats.mean;
  Alcotest.(check (float 1e-9)) "p50" 3.0 s.Cm_util.Stats.p50;
  Alcotest.(check (float 1e-9)) "p95" 5.0 s.Cm_util.Stats.p95;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Cm_util.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Cm_util.Stats.max;
  let empty = Cm_util.Stats.summary [] in
  Alcotest.(check int) "empty n" 0 empty.Cm_util.Stats.n

let stats_min_max () =
  let lo, hi = Cm_util.Stats.min_max [ 3.0; -1.0; 2.0 ] in
  Alcotest.(check (float 1e-9)) "min" (-1.0) lo;
  Alcotest.(check (float 1e-9)) "max" 3.0 hi

let stats_histogram () =
  let h = Cm_util.Stats.histogram ~buckets:2 [ 0.0; 1.0; 9.0; 10.0 ] in
  Alcotest.(check int) "bucket count" 2 (List.length h);
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all points counted" 4 total

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let table_renders () =
  let t = Cm_util.Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Cm_util.Table.add_row t [ "1"; "2" ];
  Cm_util.Table.add_row t [ "333" ];
  let s = Cm_util.Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.sub s 0 6 = "== T =");
  Alcotest.(check bool) "contains row" true (contains s "333");
  Alcotest.(check bool) "short row padded" true (contains s "333  ")

let table_cells () =
  Alcotest.(check string) "float" "1.50" (Cm_util.Table.cell_f 1.5);
  Alcotest.(check string) "digits" "1.500" (Cm_util.Table.cell_f ~digits:3 1.5);
  Alcotest.(check string) "pct" "12.5%" (Cm_util.Table.cell_pct 0.125);
  Alcotest.(check string) "bool" "yes" (Cm_util.Table.cell_bool true)

(* ---- json ---- *)

let json_control_characters () =
  for code = 0 to 31 do
    let expected =
      match Char.chr code with
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ -> Printf.sprintf "\\u%04x" code
    in
    Alcotest.(check string)
      (Printf.sprintf "U+%04X" code)
      ("a" ^ expected ^ "b")
      (Cm_util.Json.escape (Printf.sprintf "a%cb" (Char.chr code)))
  done

let json_quotes_and_text () =
  Alcotest.(check string) "quote and backslash" {|say \"hi\" C:\\tmp|}
    (Cm_util.Json.escape {|say "hi" C:\tmp|});
  Alcotest.(check string) "DEL and UTF-8 pass through" "\x7f\xc3\xa9 ok"
    (Cm_util.Json.escape "\x7f\xc3\xa9 ok")

let () =
  Alcotest.run "cm_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick prng_deterministic;
          Alcotest.test_case "seed matters" `Quick prng_seed_matters;
          Alcotest.test_case "int bounds" `Quick prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick prng_float_bounds;
          Alcotest.test_case "split independent" `Quick prng_split_independent;
          Alcotest.test_case "copy" `Quick prng_copy;
          Alcotest.test_case "exponential positive" `Quick prng_exponential_positive;
          Alcotest.test_case "invalid args" `Quick prng_invalid_args;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick heap_sorts;
          Alcotest.test_case "empty" `Quick heap_empty;
          Alcotest.test_case "min then pop" `Quick heap_min_then_pop;
          Alcotest.test_case "clear" `Quick heap_clear;
          Alcotest.test_case "fold" `Quick heap_fold;
          QCheck_alcotest.to_alcotest heap_qcheck;
          QCheck_alcotest.to_alcotest heap_size_qcheck;
          QCheck_alcotest.to_alcotest heap_model_qcheck;
          Alcotest.test_case "popped elements collectable" `Quick heap_drops_popped;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick stats_mean;
          Alcotest.test_case "stddev" `Quick stats_stddev;
          Alcotest.test_case "percentile" `Quick stats_percentile;
          Alcotest.test_case "summary" `Quick stats_summary;
          Alcotest.test_case "min_max" `Quick stats_min_max;
          Alcotest.test_case "histogram" `Quick stats_histogram;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders" `Quick table_renders;
          Alcotest.test_case "cells" `Quick table_cells;
        ] );
      ( "json",
        [
          Alcotest.test_case "control characters" `Quick json_control_characters;
          Alcotest.test_case "quotes and text" `Quick json_quotes_and_text;
        ] );
    ]
