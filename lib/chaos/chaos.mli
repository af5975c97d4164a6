(** Randomized fault schedules with invariant checking — one pipeline.

    The recovery subsystem's claim (§5: "crashes can be mapped to metric
    failures if the database can remember messages that need to be sent
    out upon recovery") is easy to satisfy on a hand-picked scenario and
    easy to break on an adversarial one.  This harness generates the
    adversarial ones mechanically, in four stages:

    + a {!spec} (seed, event count, durability and a {!mode}) derives a
      {e schedule} of workload operations and timed injections — a pure
      function of the spec, so a seed names a schedule forever;
    + the mode's world runs that schedule;
    + the run is checked against the mode's {!invariant} list;
    + {!report_to_string} renders one canonical report.

    The modes are schedule generators over one frame:

    - {b payroll / bank faults}: site crashes with later restarts,
      loss/duplication windows and partition windows.  The same
      operations run twice, once on a clean network (the {e oracle}) and
      once under the faults; afterwards nothing the oracle did may be
      lost or done twice, the transport must drain, and — durably — every
      crash must surface as a {e metric} failure notice, never a logical
      one.  Fault windows respect the protocol's tolerances by
      construction: crash windows never overlap and loss / partition
      windows stay shorter than the retransmission chain.  Crash {e
      durations} may exceed the give-up horizon — that is the point:
      without a journal those crashes lose messages, with one they are
      re-queued on restart.  Payroll can add rule churn: live
      {!Cm_core.Evolution} cutovers interleaved with the faults.
    - {b heal}: the §5 [Silent_drop] failure (a notify channel that dies
      without a failure notice) plus one bad rule rollout that loses
      every guarantee of a [required] copy pair, under streaming
      monitors and the read router.  Staleness must be flagged within
      κ + one tick, no read may be served from a stale copy, the bad
      cutover must roll back (journaled), and every quarantined copy
      must probe back to service after a flush.
    - {b ring}: a cross-shard notification ring on the multi-domain
      fabric ({!Cm_shard.Shard.Fabric}) where injections land on even
      sites and crashes hit odd sites, so one shard keeps firing while
      another holds a crashed site that replays its journal on restart.

    Determinism contract: running one spec twice yields byte-identical
    {!report_to_string} output, which CI diffs literally.  A ring
    report quotes the canonical (id-free, sorted) trace digest and
    omits the shard count, so it is also byte-identical across shard
    counts. *)

type workload = Payroll | Bank

val workload_to_string : workload -> string
val workload_of_string : string -> workload option

(** Crash windows of a payroll or bank schedule. *)
type crash_plan = {
  crashes : int;  (** crash/restart cycles across the run *)
  crash_min_len : float;  (** shortest crash window, seconds *)
  crash_max_len : float;
      (** longest crash window — above the reliable layer's ~75 s
          retransmission chain this separates journaled from
          journal-free configurations *)
}

type mode =
  | Payroll_faults of { plan : crash_plan; churn : int }
      (** [churn]: live rule-program replacements interleaved with the
          faults.  Each cutover swaps the whole propagation strategy for
          a different variant (propagate / propagate-cached / poll), in
          the oracle run too — it is workload, not fault.  Adds two
          invariants: every churned-out epoch drains and retires with
          zero stale rejections, and every guarantee the
          {!Cm_core.Derive} prover claims for {e all} epochs of the run
          holds on the faulty run's observed timeline. *)
  | Bank_faults of crash_plan
  | Heal
      (** Injections come from a dedicated PRNG stream, so heal and
          fault schedules of one seed never perturb each other. *)
  | Ring of { sites : int; shards : int; crashes : int }
      (** [sites]: ring size, at least 4; [crashes]: non-overlapping
          crash windows on odd sites; the ring runs on a fabric with
          [shards] shards. *)

type spec = {
  seed : int;
  events : int;  (** workload operations to inject *)
  durability : Cm_core.Journal.durability;
  mode : mode;
}

val default_spec : spec
(** Seed 42, 200 events, [Journal_with_checkpoint], payroll faults with
    5 crashes of 10–60 s and no churn. *)

type invariant = { inv_name : string; ok : bool; detail : string }

(** Notice, transport, journal and recovery counters of one payroll or
    bank run, read after quiescence. *)
type observed = {
  fires : int;  (** rule firings executed *)
  logical_notices : int;
  metric_notices : int;
  transport_pending : int;  (** unacknowledged envelopes *)
  retransmits : int;
  epoch_rejections : int;
  requeued : int;
  give_ups : int;  (** retransmission chains exhausted (peer suspected) *)
  suspects : int;
  recoveries : int;
  endpoint_down_at_send : int;
  endpoint_down_in_flight : int;
  journal_appends : int;
  journal_checkpoints : int;
  replayed_records : int;
}

(** Rule-churn outcome of a payroll faulty run. *)
type evolution = {
  cutovers : int;
  epoch_retirements : int;
  stale_epoch_rejections : int;
      (** firings rejected at a shell for arriving after their epoch
          retired — scheduled retirement waits out the drain, so this is
          0 on a passing run *)
  both_epoch_guarantees : string list;
      (** guarantee names the prover claims under {e every} epoch of the
          run — the set held against the observed timeline *)
  both_epoch_violations : string list;
}

(** Payroll / bank faults result. *)
type recovery = {
  oracle : observed;  (** the clean run *)
  chaos : observed;  (** the faulty run *)
  lost_firings : int;  (** oracle firings the faulty run never executed *)
  duplicate_firings : int;  (** faulty-run executions beyond the oracle's *)
  final_state_matches : bool;
      (** payroll: target salaries equal the oracle's; bank: [true] *)
  safety_violations : int;
      (** bank only: sampled instants where X ≤ Y did not hold.  Asserted
          as an invariant only on crash-free schedules: limit grants are
          absolute values, so one decided before a crash and delivered
          (exactly once) after it can be stale and cross the limits
          until the next redistribution — a demarcation-encoding
          limitation the recovery layer reports but cannot repair. *)
  evolution : evolution option;  (** payroll only *)
}

(** Heal result. *)
type healing = {
  kappa : float;  (** the copy's proved κ (staleness bound) *)
  reads : int;  (** routed reads issued by the open-loop population *)
  replica_reads : int;
  master_reads : int;
  poll_reads : int;
  stale_serves : int;
      (** reads served from a copy whose monitor reported it stale at
          serve time — 0 on a passing run, audited from outside the
          router via {!Cm_route.Route.on_decision} *)
  quarantines : int;  (** transitions into quarantine *)
  probes : int;  (** half-open re-admission probes issued *)
  readmissions : int;  (** probes that returned the copy to service *)
  stale_onsets : float list;
      (** detection times of staleness transitions, ascending — each
          must fall within some window's
          [[start, end + κ + tick + 1.0]] *)
  stream_violations : int;  (** point violations streamed live *)
  rollbacks : int;  (** {!Cm_core.Evolution} auto-rollbacks (want 1) *)
  rollback_journaled : bool;
      (** an {!Cm_core.Journal.record.Epoch_rollback} record landed in
          every site's journal (vacuously true without durability) *)
  final_epoch : int;
  fold_mismatches : string list;
      (** streamed verdicts that disagree with the post-hoc
          {!Cm_core.Guarantee.check} fold — empty on a passing run *)
}

(** Ring result — layout-invariant counters only. *)
type sharded = {
  digest : string;  (** {!Cm_shard.Shard.Fabric.trace_digest} *)
  trace_events : int;  (** merged trace events across shards *)
  ring_fires : int;
  restarts : int;
  recovered_crashes : int;
  replayed : int;  (** journal records replayed on restart *)
  live_during_crash : int;
      (** events at live sites strictly inside crash windows — the
          "other shards keep firing" witness, asserted positive *)
}

type result = Recovered of recovery | Healed of healing | Sharded of sharded

type report = {
  spec : spec;
  schedule : string list;  (** the derived injections, as printed *)
  horizon : float;  (** time the run quiesced at *)
  result : result;  (** one constructor per mode family *)
  invariants : invariant list;
}

val static_rules :
  workload ->
  Cm_rule.Rule.t list * Cm_rule.Rule.t list * Cm_rule.Item.locator
(** (interface rules, strategy rules, locator) of a fault-free instance
    of the workload — what [cmtool] feeds {!Cm_analysis.Analysis} as a
    preflight check before running chaos. *)

val run : spec -> report
(** Derive the schedule, run it, and check invariants.  Pure in the
    spec: no wall clock, no global state.
    @raise Invalid_argument naming the field when [events], [crashes],
    [churn] is negative, a crash length is negative or not finite,
    [crash_min_len > crash_max_len], [sites < 4] or [shards < 1]. *)

val passed : report -> bool
(** All invariants hold. *)

val report_to_string : report -> string
(** Canonical multi-line report, stable across runs of the same spec. *)
