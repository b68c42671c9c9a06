(** The fabric-level tenant scheduler: carve islands across N tenant
    pipelines, stream them all through
    {!Iced_stream.Runner.run_shared}, and account the fleet.

    {2 Planning}

    {!plan} splits the fabric's islands across tenants by weighted
    largest remainder (every pipeline gets its minimum, spare islands
    go by QoS weight, ties break on tenant ids) and prepares each
    tenant's {!Iced_stream.Partition} on a vertically-stacked
    sub-fabric — one fabric-shaped island per block row, so every
    island keeps its column-0 SPM ports.  When fault injection is on,
    the smaller geometries a recovery may shrink a tenant onto are
    prepared up front, keeping reallocation decisions deterministic.
    A plan is immutable and safely shared across sweep workers;
    {!run} builds fresh mutable state per call.

    {2 Running}

    {!run} wires an {!Allocator} (the power cap) and a fault-driven
    [reconfigure] hook ({!Iced_stream.Recovery.gate} across tenants:
    shrink the victim, else borrow from the richest, else evict) into
    the shared runner, then reduces the outcome to a {!report}: per-round
    power against the cap, per-tenant throughput/energy/violation
    accounting, the Jain fairness index over tenant throughputs, and
    fleet totals.  Everything is a pure function of the plan, the
    policy, the cap, and the seeds — byte-reproducible. *)

val fabric : Iced_arch.Cgra.t
(** The shared physical array: 12x4 tiles, twelve 2x2 islands, room
    for eight one-island tenants with spares.  Tenants stream on it in
    windows of {!Iced_stream.Runner.default_window} inputs. *)

type spec = {
  faults : int;  (** island-regulator failures to inject, 0 for none *)
  fault_seed : int;  (** seeds {!Iced_fault.Fault.random_events} *)
}

val default_spec : spec
(** No faults. *)

type placement = {
  tenant : Tenant.t;
  min_islands : int;  (** pipeline floor: one island per instance *)
  islands : int;  (** islands actually planned (mapper-feasible) *)
  owned : int list;  (** concrete fabric island ids *)
  partitions : (int * Iced_stream.Partition.t) list;
      (** prepared partition per island count recovery may need *)
}
(** One tenant's slot in a plan. *)

type plan = { spec : spec; placements : placement list }

val tenant_count : plan -> int
(** Number of tenants the plan places. *)

val plan : ?spec:spec -> Tenant.t list -> (plan, string) result
(** Place the fleet.  Fails when the fabric has fewer islands than the
    fleet's pipeline floors, on duplicate tenant ids, or when some
    tenant cannot map at any count down to its floor. *)

val max_envelope_mw : plan -> float
(** All-[Normal] worst-case fleet envelope — the cap unit used by
    {!Capsweep} fractions. *)

val floor_envelope_mw : plan -> float
(** All-[Rest] envelope: caps below this exhaust (see
    {!Allocator.decision.infeasible}). *)

type round_row = {
  round : int;
  span_us : float;
  power_mw : float;  (** measured fabric power this round *)
  desired_mw : float;  (** envelope of the controllers' ask *)
  granted_mw : float;  (** envelope of the allocator's grant *)
  throttled : string list;  (** tenants granted less than desired *)
  infeasible : bool;  (** cap exhaustion this round *)
  reallocated : string list;  (** tenants whose islands moved this round *)
}

type tenant_summary = {
  id : string;
  qos : Qos.class_;
  islands : int;  (** final island count (faults may have moved it) *)
  offered : int;
  completed : int;
  throughput_per_s : float;  (** completed / the tenant's busy time *)
  mean_power_mw : float;
  energy_uj : float;
  throttled_rounds : int;
  evicted : bool;
}

type report = {
  policy : Allocator.policy;
  cap_mw : float option;
  tenant_count : int;
  rounds : round_row list;
  tenants : tenant_summary list;
  aggregate_throughput_per_s : float;  (** fleet inputs per second *)
  fairness : float;  (** Jain index over tenant throughputs, in (0, 1] *)
  peak_power_mw : float;
  cap_ok : bool;
      (** every feasible round held measured power [<=] cap *)
  infeasible_rounds : int;
  total_span_us : float;
  faults_injected : int;
  reallocations : int;
  evictions : int;
}

val run : ?cap_mw:float -> policy:Allocator.policy -> plan -> report
(** Stream the whole fleet under [cap_mw] milliwatts (no cap when
    omitted) arbitrated by [policy]. *)

val starved : report -> string list
(** Non-evicted tenants that did not finish their stream — must be
    empty for any completed run (the [Rest] demotion floor guarantees
    progress); a regression tripwire. *)

val report_json : report -> string
(** One-line JSON ([iced-tenancy-report-v1]) rendered by
    {!Iced_util.Json.to_string}, whose [%.17g] number rule makes byte
    comparison imply numeric identity. *)

val render : Format.formatter -> report -> unit
(** Human-readable fleet summary table. *)
