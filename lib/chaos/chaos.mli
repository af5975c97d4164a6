(** Randomized crash/loss/partition schedules with invariant checking.

    The recovery subsystem's claim (§5: "crashes can be mapped to metric
    failures if the database can remember messages that need to be sent
    out upon recovery") is easy to satisfy on a hand-picked scenario and
    easy to break on an adversarial one.  This harness generates the
    adversarial ones mechanically:

    + from a seed, a {e schedule} of workload operations and fault
      injections (site crashes with later restarts, loss/duplication
      windows, partition windows) is derived — the schedule is a pure
      function of the {!spec}, so a seed names a schedule forever;
    + the same operations run twice: once on a clean network (the
      {e oracle}) and once under the schedule's faults;
    + after the faulty run quiesces, invariants are checked: nothing the
      oracle did was lost or done twice, the transport drained, and —
      under a durable configuration — every crash surfaced as a {e
      metric} failure notice, never a logical one.

    Both runs and the report are deterministic: running the same spec
    twice yields byte-identical {!report_to_string} output, which CI
    diffs literally.

    Fault windows respect the protocol's tolerances by construction:
    crash windows never overlap (one site down at a time) and loss /
    partition windows are kept shorter than the retransmission chain, so
    with [Journal_with_checkpoint] every invariant must hold.  Crash
    {e durations} may exceed the give-up horizon — that is the point:
    without a journal those crashes lose messages, with one they are
    re-queued on restart. *)

type workload = Payroll | Bank

val workload_to_string : workload -> string
val workload_of_string : string -> workload option

type spec = {
  seed : int;
  events : int;  (** workload operations to inject *)
  crashes : int;  (** crash/restart cycles across the run *)
  crash_min_len : float;  (** shortest crash window, seconds *)
  crash_max_len : float;
      (** longest crash window — above the reliable layer's ~75 s
          retransmission chain this separates journaled from
          journal-free configurations *)
  durability : Cm_core.Journal.durability;
  chaos_workload : workload;
  churn : int;
      (** live rule-program replacements ({!Cm_core.Evolution} cutovers)
          interleaved with the faults.  Payroll only; each cutover swaps
          the whole propagation strategy for a different variant
          (propagate / propagate-cached / poll).  Churn happens in the
          oracle run too — it is workload, not fault — so the
          lost/duplicate-firing comparison still bites.  Adds two
          invariants: every churned-out epoch drains and retires with
          zero stale rejections, and every guarantee the {!Derive}
          prover claims for {e all} epochs of the run holds on the
          faulty run's observed timeline. *)
}

val default_spec : spec
(** Seed 42, 200 events, 5 crashes of 10–60 s, payroll workload,
    [Journal_with_checkpoint], no churn. *)

(** One fault injection, in absolute simulation time. *)
type fault =
  | Crash of { site : string; at : float; restart_at : float }
  | Loss_window of { at : float; until : float; drop : float; dup : float }
  | Partition of { at : float; until : float }

(** One scheduled rule-program replacement (derived like faults, applied
    to oracle and faulty run alike). *)
type churn_event = { ch_at : float; ch_variant : string }

type invariant = { inv_name : string; ok : bool; detail : string }

type report = {
  spec : spec;
  faults : fault list;
  churns : churn_event list;
  horizon : float;  (** time the faulty run quiesced at *)
  oracle_fires : int;  (** rule firings executed in the clean run *)
  chaos_fires : int;
  lost_firings : int;  (** oracle firings the faulty run never executed *)
  duplicate_firings : int;  (** faulty-run executions beyond the oracle's *)
  logical_notices : int;
  metric_notices : int;
  transport_pending : int;  (** unacknowledged envelopes after quiescence *)
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
  safety_violations : int;
      (** bank only: sampled instants where X ≤ Y did not hold.  Asserted
          as an invariant only on crash-free schedules: limit grants are
          absolute values, so one decided before a crash and delivered
          (exactly once) after it can be stale and cross the limits
          until the next redistribution — a demarcation-encoding
          limitation the recovery layer reports but cannot repair. *)
  cutovers : int;  (** epoch cutovers performed in the faulty run *)
  epoch_retirements : int;
  stale_epoch_rejections : int;
      (** firings rejected at a shell for arriving after their epoch
          retired — scheduled retirement waits out the drain, so this is
          0 on a passing run *)
  both_epoch_guarantees : string list;
      (** guarantee names the prover claims under {e every} epoch of the
          run — the set held against the observed timeline *)
  both_epoch_violations : string list;
  final_state_matches : bool;
      (** payroll only: target salaries equal the oracle's *)
  invariants : invariant list;
}

val schedule : spec -> fault list
(** The fault schedule alone — derived, not run.  [report.faults] of a
    {!run} with the same spec is this exact list. *)

val churn_schedule : spec -> churn_event list
(** The churn schedule alone — pure in the spec, like {!schedule}. *)

val static_rules :
  workload ->
  Cm_rule.Rule.t list * Cm_rule.Rule.t list * Cm_rule.Item.locator
(** (interface rules, strategy rules, locator) of a fault-free instance
    of the workload — what [cmtool] feeds {!Cm_analysis.Analysis} as a
    preflight check before running chaos. *)

val run : spec -> report
(** Execute oracle and faulty runs and check invariants.  Pure in the
    spec: no wall clock, no global state.
    @raise Invalid_argument naming the field when [events], [crashes] or
    [churn] is negative (so do {!schedule}, {!churn_schedule},
    {!heal_schedule} and {!run_heal}). *)

val passed : report -> bool
(** All invariants hold. *)

val report_to_string : report -> string
(** Canonical multi-line report, stable across runs of the same spec. *)

(** {1 Self-healing ([--heal])}

    A second kind of schedule, aimed at the remediation layer instead of
    the recovery layer.  No crashes or message loss — the adversary here
    is the §5 [Silent_drop] failure (a notify channel that dies without
    a failure notice, so writes keep landing in the ground truth while
    the copy silently rots) plus one deliberately bad rule rollout that
    loses every guarantee of a [required] copy pair.  The run holds the
    toolkit to the self-healing contract: streaming monitors flag the
    rot within κ + one tick, the router quarantines the copy and never
    serves a read its monitor currently calls stale, the bad cutover is
    rolled back on the spot (and journaled), and after a flush every
    quarantined copy probes back to service.  Like {!run}, the whole
    thing is a pure function of the spec — byte-identical
    {!heal_report_to_string} output for the same seed, which CI diffs
    literally. *)

(** One silent-drop window on the source translator, absolute time. *)
type drop_window = { dw_at : float; dw_until : float }

type heal_report = {
  h_spec : spec;
  h_drops : drop_window list;
  h_bad_cutover_at : float;  (** the rejected rollout's cutover instant *)
  h_flush_at : float;  (** post-window refresh of every employee *)
  h_horizon : float;
  h_kappa : float;  (** the copy's proved κ (staleness bound) *)
  h_reads : int;  (** routed reads issued by the open-loop population *)
  h_replica_reads : int;
  h_master_reads : int;
  h_poll_reads : int;
  h_stale_serves : int;
      (** reads served from a copy whose monitor reported it stale at
          serve time — 0 on a passing run, audited from outside the
          router via {!Cm_route.Route.on_decision} *)
  h_quarantines : int;  (** transitions into quarantine *)
  h_probes : int;  (** half-open re-admission probes issued *)
  h_readmissions : int;  (** probes that returned the copy to service *)
  h_stale_onsets : float list;
      (** detection times of staleness transitions, ascending — each
          must fall within some window's
          [[start, end + κ + tick + 1.0]] *)
  h_stream_violations : int;  (** point violations streamed live *)
  h_rollbacks : int;  (** {!Cm_core.Evolution} auto-rollbacks (want 1) *)
  h_rollback_journaled : bool;
      (** an {!Cm_core.Journal.record.Epoch_rollback} record landed in
          every site's journal (vacuously true without durability) *)
  h_final_epoch : int;
  h_fold_mismatches : string list;
      (** streamed verdicts that disagree with the post-hoc
          {!Cm_core.Guarantee.check} fold — empty on a passing run *)
  h_invariants : invariant list;
}

val heal_schedule : spec -> drop_window list * float
(** The silent-drop windows and bad-cutover instant alone — pure in the
    spec, like {!schedule}. *)

val run_heal : spec -> heal_report
(** Execute the self-healing schedule (payroll only — raises
    [Invalid_argument] on the bank workload) under
    {!Cm_core.System.Config.monitor}.  [crashes] and [churn] in the spec
    are ignored: the heal schedule derives its own injections from a
    dedicated PRNG stream, so heal and fault schedules of one seed never
    perturb each other. *)

val heal_passed : heal_report -> bool

val heal_report_to_string : heal_report -> string
(** Canonical multi-line report, stable across runs of the same spec. *)

(** {1 Sharded chaos ([--shards])}

    Crash/partition schedules under the multi-domain fabric
    ({!Cm_shard.Shard.Fabric}): a cross-shard notification ring where
    workload injections land only on even sites and crashes hit only odd
    sites, so one shard keeps firing while another holds a crashed site.
    The schedule is derived from keyed streams (pure in the spec, like
    {!schedule}), crashes are mirrored across every shard's wheel, and
    the crashed site replays its shard-local journal on restart.

    Determinism contract, checked by CI and the recovery suite:
    {!shard_report_to_string} output is byte-identical across repeated
    runs of one spec {e and} across shard counts — the report quotes the
    canonical (id-free, sorted) trace digest and layout-invariant
    counters, and deliberately omits the shard count itself.  [ss_shards
    = 1] runs the fabric's keyed single-shard form
    ([keyed_single = true]) so its draws match the multi-shard
    layouts'. *)

type shard_spec = {
  ss_seed : int;
  ss_sites : int;  (** ring size, at least 4 *)
  ss_shards : int;
  ss_events : int;  (** spontaneous updates, even sites only *)
  ss_crashes : int;  (** non-overlapping crash windows, odd sites only *)
  ss_durability : Cm_core.Journal.durability;
}

val default_shard_spec : shard_spec
(** Seed 42, 6 sites over 2 shards, 60 events, 2 crashes,
    [Journal_with_checkpoint]. *)

type shard_report = {
  sr_spec : shard_spec;
  sr_faults : fault list;
  sr_horizon : float;
  sr_digest : string;  (** {!Cm_shard.Shard.Fabric.trace_digest} *)
  sr_events : int;  (** merged trace events across shards *)
  sr_fires : int;
  sr_restarts : int;
  sr_recovered_crashes : int;
  sr_replayed : int;  (** journal records replayed on restart *)
  sr_live_during_crash : int;
      (** events at live sites strictly inside crash windows — the
          "other shards keep firing" witness, asserted positive *)
  sr_invariants : invariant list;
}

val shard_schedule_faults : shard_spec -> fault list
(** The fault schedule alone — derived, not run; pure in the spec. *)

val run_sharded : shard_spec -> shard_report
(** Build the ring on a fabric with [ss_shards] shards, run the derived
    schedule, and check invariants.  Pure in the spec.
    @raise Invalid_argument naming the field when [ss_sites < 4],
    [ss_shards < 1], or [ss_events] or [ss_crashes] is negative. *)

val shard_passed : shard_report -> bool

val shard_report_to_string : shard_report -> string
(** Canonical multi-line report — byte-identical across runs {e and}
    across shard counts for one spec. *)
