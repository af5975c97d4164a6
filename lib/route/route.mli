(** Constraint-aware read routing over the federation.

    The toolkit maintains κ-bounded copies (§3.3.1 guarantee (4)) but the
    paper never says who gets to {e use} them; this front end does.  A
    replica catalog is derived from the declared [constraint copy]
    directives, annotated through {!Cm_core.System.Guarantee_view} with
    each copy's κ (Derive over the system's program, re-derived whenever
    that program changes), live §5 validity (guarantee handles), and the
    latest rule-epoch cutover.
    Each read then carries an optional staleness budget — "a value held
    by the master at most κ seconds ago" — and is routed to the cheapest
    copy whose guarantee satisfies it:

    - {!outcome.Replica}: some copy qualifies (κ proved, κ ≤ SLO
      inclusive, handle valid, epoch kept the metric guarantee, site
      reachable) — serve from the cheapest such copy by round-trip link
      latency, tie-broken by site then base name so routing is
      deterministic;
    - {!outcome.Master}: no copy qualifies but the master site is
      reachable — fall back to the authoritative item (κ 0 by
      definition);
    - {!outcome.Forced_poll}: the master is unreachable too — force a
      synchronous poll through the read interface (§3.1.1), relayed via
      the cheapest replica site that can still reach the master, paying
      a 1 s synchronous-poll penalty on top of the relay round trips.

    Every decision is recorded via {!Cm_core.Obs} (per-outcome
    [route_reads] counters and [route_latency] series, per-reason skip
    counters) and handed to {!on_decision} subscribers — the E17 bench
    audits served-κ ≤ SLO post hoc from exactly that stream.  The
    per-outcome counters and the per-copy [route_quarantines],
    [route_probes] and [route_readmissions] counters are the router's
    only tally: {!reads}, {!reads_by}, {!quarantines}, {!probes} and
    {!readmissions} read them, on every registry.

    {b Quarantine (self-healing).}  When the system runs with streaming
    guarantee monitors ({!Cm_core.System.Config.monitor}), the router
    subscribes to their live staleness transitions: a copy whose monitor
    reports it stale — including the §5 [Silent_drop] failure, where the
    copy's notify channel dies while the master keeps writing — is
    {e quarantined} immediately and stops serving reads.  Re-admission
    is half-open: after 5 simulated seconds, the next read that
    considers the copy issues one {!Cm_core.Monitor.force_refresh} (a
    synchronous poll, billed at the 1 s poll penalty on the served
    latency); a fresh verdict readmits the copy, a stale one re-arms the
    quarantine for another 5 s.  Active copies are also
    re-checked against the live verdict on every read, so a read is
    never served from a copy whose monitor currently reports it stale.
    Without monitors the router behaves exactly as before. *)

type t

type outcome = Replica | Master | Forced_poll

val outcome_to_string : outcome -> string
(** Stable lowercase names: "replica", "master", "forced_poll" — used as
    the Obs [outcome] label and in the JSON report. *)

type skip = {
  sk_target : string;  (** copy base that was considered *)
  sk_site : string;
  sk_reason : string;
      (** {!Cm_core.System.copy_qualifies} vocabulary
          ("epoch-lost" | "unprovable" | "invalidated" | "over-slo")
          plus the router's own "unreachable", "quarantined" (copy in
          quarantine, probe not yet due) and "stale" (live monitor
          verdict: on an active copy it also enters quarantine, on a
          probe it re-arms the quarantine) *)
}

type decision = {
  d_base : string;  (** the item base the client asked for *)
  d_client_site : string;
  d_slo : float option;
  d_outcome : outcome;
  d_served_base : string;  (** which item actually answered *)
  d_served_site : string;
  d_served_kappa : float;
      (** staleness bound of the served value: the copy's κ for
          [Replica], 0 for [Master]/[Forced_poll] (authoritative) *)
  d_latency : float;  (** simulated read latency, seconds *)
  d_skips : skip list;  (** copies considered and rejected, catalog order *)
}

val create : Cm_core.System.t -> constraints:(string * string) list -> t
(** Build the routing front end over a running system from its
    [(source, target)] copy directives: declares them on the system
    ({!Cm_core.System.declare_copies}), whose program — the interface
    statements it holds and its running strategy — decides each copy's
    κ, and indexes replicas by source base.  Quarantine is armed iff the
    system was built with {!Cm_core.System.Config.monitor}. *)

val of_cmrid : Cm_core.System.t -> Cm_core.Cmrid.t -> t
(** {!create} from a parsed CM-RID config's [constraint copy] lines. *)

val system : t -> Cm_core.System.t

val bases : t -> string list
(** Routable master bases, in constraint declaration order. *)

val on_decision : t -> (decision -> unit) -> unit
(** Subscribe to every routing decision, in registration order. *)

val read : ?within_kappa:float -> t -> client_site:string -> string -> decision
(** Route one read of an item base from a client at [client_site].
    [within_kappa] is the staleness SLO in seconds; omitting it accepts
    any proved κ.  Pure decision over current system state — the
    simulated read cost is reported in [d_latency], not scheduled. *)

val reads : t -> int
val reads_by : t -> outcome -> int

(** {1 Quarantine state} *)

val quarantined : t -> (string * string * float) list
(** Currently-quarantined copies as [(source, target, probe_at)],
    sorted — [probe_at] is the earliest simulated time a read may probe
    the copy. *)

val quarantines : t -> int
(** Quarantine entries (transitions into quarantine, not re-arms). *)

val probes : t -> int
(** Half-open probes issued (each one forced refresh + poll billing). *)

val readmissions : t -> int
(** Probes that came back fresh and returned the copy to service. *)

(** {1 Deterministic reports (cmtool route)} *)

val plan : ?within_kappa:float -> t -> client_sites:string list -> decision list
(** One {!read} per client site × routable base, in the given site order
    then declaration order — the static routing table. *)

val report_to_text : ?slo:float -> t -> decision list -> string
(** Replica catalog (κ / validity / epoch survival per copy, from the
    guarantee view) followed by the routing table.  Byte-deterministic
    for a given system state. *)

val report_to_json : ?slo:float -> t -> decision list -> string
(** Same report as JSON; hand-rolled and byte-deterministic. *)
