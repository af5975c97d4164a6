(** Sharded multi-domain execution of a CM world.

    One {!Fabric} partitions the sites of a simulated constraint-managed
    federation across OCaml domains: each shard runs its own
    {!Cm_core.System} (wheel, network, trace, journals, observability
    registry), and cross-shard messages travel through per-shard-pair
    mailboxes that are exchanged at deterministic barriers.

    The execution model is conservative parallel discrete-event
    simulation in the Chandy–Misra–Bryant family, specialized to a
    barrier-synchronous window scheme: because every cross-shard network
    link has base latency at least [L] (the {e lookahead}), a message
    sent during the window [[t, t+L)] cannot deliver before [t+L] — so
    all shards may run their wheels to [t+L] in parallel without
    consulting each other, and the mailboxes are merged at the barrier
    in a deterministic order ((delivery time, source shard, send
    sequence)).  When the lookahead degenerates to zero (some
    cross-shard link has zero base latency) the fabric does not hang and
    does not guess: it falls back to a {e safe serialization} that
    repeatedly steps whichever shard holds the globally earliest event
    (ties to the lowest shard index) and exchanges mailboxes after every
    step — sequentially correct, just not parallel.

    Determinism contract.  A fabric run is a function of (config seed,
    world, shard count): repeated runs are byte-identical.  Across
    {e different} shard counts, per-event content is preserved — network
    fault and jitter draws come from per-link keyed streams
    ({!Cm_net.Net.draws.Keyed}) and workload randomness from per-tag
    keyed streams ({!rng}), both pure functions of seed and name — but
    the {e interleaving} of causally unrelated same-window events, and
    therefore raw trace ids, may differ.  The canonical forms
    ({!canonical_lines}, {!trace_digest}) quotient exactly that away:
    events are rendered without ids (generated events name their trigger
    structurally rather than by id) and sorted.  Two runs of the same
    world agree on {!trace_digest} whenever their event {e sets} agree,
    which is the property the differential suite pins at shard counts
    1, 2, 4 and 7 against the unsharded sequential oracle.  The one
    caveat: two causally unrelated events at the {e same} instant whose
    handlers race for the same state can resolve differently across
    layouts; worlds compared across shard counts keep distinct times on
    distinct causal chains (the suites do, by construction).

    [~shards:1] builds one plain {!Cm_core.System}
    and delegates everything to it — stream draws, dense trace ids, the
    exact sequential path every release before sharding ran, preserved
    as the differential oracle.  *)

module Fabric : sig
  type t

  val create :
    ?config:Cm_core.System.Config.t ->
    shards:int ->
    assign:(string -> int) ->
    Cm_rule.Item.locator ->
    t
  (** [create ~config ~shards ~assign locator] builds [shards] shard
      systems; [assign site] names the shard (in [[0, shards)]) that
      owns a site.  With [~shards:1] the fabric is a thin
      wrapper around one plain sequential {!Cm_core.System}, the
      differential oracle every multi-shard layout is compared against;
      with more, each shard is a [~shard_slot] system
      ({!Cm_core.System.create}).

      When [config.obs] is set, each shard gets its {e own} fresh
      registry (a shared one would race across domains); query merged
      counters with {!counter_value} / {!counter_total}, or a single
      shard's registry via {!system}.

      @raise Invalid_argument if [shards < 1], or if
      [config.monitor] is set with more than one shard (the streaming
      monitor attaches to a single trace; run it unsharded). *)

  val shard_count : t -> int

  val system : t -> int -> Cm_core.System.t
  (** The shard's underlying system — journals, recovery manager,
      per-shard registry, raw trace. *)

  val owner : t -> site:string -> Cm_core.System.t
  (** The system owning [site].  @raise Invalid_argument for a site the
      fabric has never seen. *)

  val shard_of : t -> site:string -> int

  (** {1 World assembly}

      Mirrors {!Cm_core.System}'s initialization protocol; each call is
      routed to the owning shard.  Assemble the whole world before
      {!run} — the fabric wires global routing (foreign sites resolve to
      their owning shell across shards) and global failure-notice peer
      lists at run start. *)

  val add_shell : t -> site:string -> Cm_core.Shell.t
  val shell_for : t -> site:string -> Cm_core.Shell.t

  val register_translator : t -> shell:Cm_core.Shell.t -> Cm_core.Cmi.t -> unit
  (** The translator's site joins the shard of [shell] (the [assign] of
      a translator-only site is not consulted: data without a shell of
      its own lives with the shell that serves it). *)

  val install : t -> Cm_core.Strategy.t -> unit
  (** Install on every shard; each shard keeps the rules whose sites it
      holds (auxiliary writes and periodic timers for foreign sites are
      the owning shard's job). *)

  (** {1 Workload scheduling} *)

  val at : t -> site:string -> float -> (unit -> unit) -> unit
  (** Schedule a callback on the owning shard's wheel at an absolute
      time.  The callback runs inside that shard's domain during {!run}
      and must touch only that shard's state (its shell, its emitters,
      its stores) — the same locality rule every shell callback already
      obeys. *)

  val rng : t -> tag:string -> Cm_util.Prng.t
  (** A keyed stream ([Cm_util.Prng.of_key] over the config seed and
      [tag]) — the same draws in the same order at every shard count.
      Derive one stream per independent workload concern. *)

  (** {1 Topology and faults}

      Fault {e state} must agree across shards at matching virtual
      times: a send checks the destination's liveness on the {e source}
      shard.  The schedule_* calls therefore pre-arm the transition on
      every shard's wheel at the same instant — the owning shard runs
      the full crash/recovery protocol, the others mirror the
      endpoint/partition flags. *)

  val set_latency :
    t -> from_site:string -> to_site:string -> Cm_net.Net.latency -> unit

  val set_faults :
    t -> from_site:string -> to_site:string -> Cm_net.Net.faults -> unit

  val set_default_faults : t -> Cm_net.Net.faults -> unit

  val schedule_crash : t -> site:string -> at:float -> unit
  val schedule_restart : t -> site:string -> at:float -> unit

  val schedule_partition :
    t -> from_site:string -> to_site:string -> at:float -> until:float -> unit

  (** {1 Execution} *)

  val lookahead : t -> float
  (** The conservative window the next {!run} would use: the minimum
      base latency over cross-shard directed links ([infinity] when no
      site pair crosses shards, and the network default base fills in
      for any cross-shard pair without an explicit override).  [<= 0.]
      announces the serialized fallback. *)

  val run : t -> until:float -> unit
  (** Run every shard to [until] (events at [until] inclusive, like
      {!Cm_core.System.run}): windowed parallel execution over
      {!shard_count} domains when the {!lookahead} is positive, safe
      serialization when it is not.  An exception raised inside a shard
      is re-raised here after the workers are joined. *)

  (** {1 Merged results} *)

  val merged_events : t -> Cm_rule.Event.t list
  (** All shards' trace events, sorted by (time, site, descriptor,
      kind, id).  Ids are the per-shard strided originals. *)

  val canonical_lines : t -> string list
  (** One line per event — [time site kind descriptor], no event id;
      generated events render their trigger structurally as
      [gen:<rule>@<trigger-time>@<trigger-site>@<trigger-desc>] —
      sorted.  Equal across shard layouts whenever the event sets are
      equal. *)

  val trace_digest : t -> string
  (** MD5 hex of {!canonical_lines} — the cross-layout comparison key
      pinned by the differential and golden suites. *)

  val counter_value : ?labels:Cm_core.Obs.labels -> t -> string -> int
  (** Sum of one labelled counter across every shard's registry. *)

  val counter_total : t -> string -> int
  (** Sum of {!Cm_core.Obs.counter_total} across shards. *)

  val events_processed : t -> int
  (** Total simulator callbacks across shards — the throughput
      numerator of experiment E20. *)

  val messages_forwarded : t -> int
  (** Cross-shard parcels exchanged so far (0 for a single shard). *)
end
