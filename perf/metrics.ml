(* The metric vocabulary: every name and unit the bench prints.
   BENCHMARK.json lists the same names and units (the quick test holds
   the two to each other) and adds the regression bounds. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* What a user of the system sees, measured with tracing off. *)
let end_to_end =
  [ m "ops_per_s" "ops/s" Higher;
    m "setup_s" "s" Lower;
    m "alloc_words_per_op" "words" Lower;
    m "peak_heap_mb" "MiB" Lower;
    m "call_p50_us" "us" Lower;
    m "call_p99_us" "us" Lower ]

(* Per layer, from the traced round, its replays and the runtime. *)
let per_layer =
  [ m "shell.emit_ns_per_op" "ns" Lower;
    m "shell.emit_words_per_op" "words" Lower;
    m "shell.fires_per_op" "count" Lower;
    m "index.select_ns" "ns" Lower;
    m "index.candidates_per_event" "count" Lower;
    m "index.useful_ratio" "ratio" Higher;
    m "match.template_ns" "ns" Lower;
    m "match.cond_ns" "ns" Lower;
    m "trace.record_ns" "ns" Lower;
    m "trace.events_per_op" "count" Lower;
    m "trace.retained_words_per_event" "words" Lower;
    m "sim.steps_per_op" "count" Lower;
    m "sim.other_ns_per_op" "ns" Lower;
    m "net.msgs_per_op" "count" Lower;
    m "net.drops_per_op" "count" Lower;
    m "reliable.retransmits_per_op" "count" Lower;
    m "reliable.acks_per_op" "count" Lower;
    m "translator.request_ns_per_op" "ns" Lower;
    m "translator.exec_app_ns_per_op" "ns" Lower;
    m "db.exec_ns" "ns" Lower;
    m "db.exec_words" "words" Lower;
    m "journal.appends_per_op" "count" Lower;
    m "journal.bytes_per_op" "bytes" Lower;
    m "journal.append_ns" "ns" Lower;
    m "obs.series_points" "count" Lower;
    m "obs.spans" "count" Lower;
    m "monitor.feed_ns_per_op" "ns" Lower;
    m "monitor.feed_words_per_op" "words" Lower;
    m "route.replica_share" "ratio" Higher;
    m "route.skips_per_read" "count" Lower;
    m "route.quarantines" "count" Lower;
    m "gc.minor_per_kop" "count" Lower;
    m "gc.promoted_words_per_op" "words" Lower;
    m "gc.major_collections" "count" Lower;
    m "ledger.overhead_pct" "%" Lower;
    m "ledger.residual_share" "ratio" Lower ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let find name =
  List.find_opt (fun x -> String.equal x.name name) (end_to_end @ per_layer)

(* A measured metric: the median over rounds, the quartile spread and
   the sample count. *)
type stat = { median : float; q1 : float; q3 : float; n : int }

let stat_of xs =
  let q1, median, q3 = Meter.quartiles xs in
  { median; q1; q3; n = List.length xs }

let single v = { median = v; q1 = v; q3 = v; n = 1 }

let rel_iqr s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median
