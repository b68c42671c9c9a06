(** Streaming execution model: drive a partitioned pipeline over an
    input stream under one of three runtime policies and account time,
    power, and energy per observation window (Figure 13's series).

    Time model: one input costs an instance II * iterations(input)
    kernel-clock cycles, i.e. that many base-clock cycles times the
    period multiplier of its current DVFS level; a stage's time is the
    max over its parallel kernels, and the pipeline's per-input period
    is the bottleneck stage's time.  Power model: every allocated tile
    burns static power at its level continuously and dynamic power
    scaled by its mapped activity and its duty cycle (busy fraction of
    the input period); the SPM and the per-island DVFS controllers (for
    the ICED policy) are charged per {!Iced_power.Model}.

    {2 Lanes and the window step}

    A {e lane} is one tenant's stream: partition, per-kernel island and
    fault state, the policy's monitor (none, a {!Controller} or a
    {!Drips} reshaper), pending reconfiguration latency and reports.
    One {e step} consumes one window of a lane and reports it; a
    trailing partial window, and the rest of a stream an abort loses,
    take index [total / window].  {!run_resilient} (so {!run}) steps
    one lane, {!run_shared} one lane per tenant.

    {2 Resilient execution}

    {!run_resilient} injects an {!Iced_fault.Fault.plan} and applies a
    {!recovery} policy when a fault fires; re-floorplanning goes
    through {!Recovery.gate}.  The plan's seed drives the upset draws
    and remap retries are bounded by a poll budget, not wall-clock
    time, so a fault campaign is byte-identical across worker counts.

    {2 Tracing}

    When the {!Iced_obs.Trace} collector is on, a solo run emits a
    ["stream"]/["run"] span, one ["stream"]/["window"] span per window
    (window index, consumed/dropped/replayed counts, the controller's
    bottleneck kernel, the closing per-kernel levels), a
    ["fault"]/["activate"] instant per injected fault and a
    ["fault"]/["recover"] span per recovery carrying the latency it
    charged; a shared run emits ["tenancy"]/["run_shared"] and one
    ["tenancy"]/["round"] span per round instead.  [trace:false]
    silences a call; either way the reports are byte-identical. *)

open Iced_arch

type policy =
  | Static  (** fixed partition, all levels at [Normal], no runtime adaptation *)
  | Iced_dvfs  (** fixed partition, per-kernel DVFS via {!Controller} *)
  | Drips  (** dynamic repartitioning via {!Drips}, no DVFS *)

val policy_to_string : policy -> string
(** ["static"] / ["iced"] / ["drips"]. *)

val policy_of_string : string -> policy option
(** Inverse of {!policy_to_string}; [None] on anything else. *)

type recovery =
  | Remap
      (** rebuild the victim kernel's mapping around the faulted
          tile/link on its own islands (Algorithm 2 with the faulted
          resources masked); escalates to [Gate_island] when no
          mapping exists within the bounded retry budget *)
  | Gate_island
      (** power off the faulted island and re-floorplan: the victim
          shrinks to a smaller prepared mapping, or borrows an island
          from the richest kernel that can itself shrink *)
  | Raise_level
      (** pin upset-afflicted kernels at [Normal] — full voltage
          margin clears voltage-induced timing upsets; permanent
          faults abort (voltage cannot fix dead silicon) *)
  | Fail_stop  (** no recovery: the first fault loses the rest of the stream *)

val recovery_to_string : recovery -> string
(** ["remap"] / ["gate"] / ["raise"] / ["fail-stop"]. *)

val recovery_of_string : string -> recovery option
(** Inverse of {!recovery_to_string}; [None] on anything else. *)

type window_report = {
  index : int;  (** window number, 0-based *)
  inputs : int;  (** inputs consumed in this window *)
  mean_period_us : float;  (** mean per-input bottleneck period *)
  throughput_per_s : float;
  power_mw : float;  (** mean chip power over the window *)
  efficiency : float;  (** throughput per watt: inputs/s/W *)
  levels : (string * Dvfs.level) list;  (** per-kernel level at window end *)
  allocation : (string * int) list;  (** per-kernel island count at window end *)
  dropped : int;  (** inputs lost in this window (faults) *)
  replayed : int;  (** inputs re-executed after a transient upset *)
  recovery_us : float;  (** recovery latency charged to this window *)
}

type fault_stats = {
  injected : int;  (** fault events that fired *)
  recoveries : int;  (** successful recovery actions *)
  remaps : int;  (** recoveries that ran the mapper *)
  islands_gated : int;  (** islands powered off by recovery *)
  levels_raised : int;  (** kernels pinned at [Normal] by [Raise_level] *)
  inputs_dropped : int;  (** inputs lost (abort remainder + double upsets) *)
  inputs_replayed : int;  (** inputs re-executed after an upset *)
  recovery_time_us : float;  (** total reconfiguration latency *)
  mttr_us : float;  (** mean time to repair: recovery time / recoveries *)
  offered : int;  (** stream length *)
  completed : int;  (** inputs that produced output *)
}

val no_faults : fault_stats
(** All-zero stats: what a fault-free run reports. *)

val default_window : int
(** The paper's observation window, 10 inputs: {!run}'s default and
    {!run_shared}'s window. *)

val run :
  ?window:int ->
  ?trace:bool ->
  Partition.t ->
  policy ->
  Pipeline.input list ->
  window_report list
(** Stream the inputs through the pipeline.  [window] defaults to
    {!default_window}; [trace:false] silences this run's trace spans
    (see the {e Tracing} section above).  Equivalent to
    {!run_resilient} under the empty fault plan. *)

val run_resilient :
  ?window:int ->
  ?faults:Iced_fault.Fault.plan ->
  ?recovery:recovery ->
  ?trace:bool ->
  Partition.t ->
  policy ->
  Pipeline.input list ->
  window_report list * fault_stats
(** Stream the inputs while injecting [faults] (default: none) and
    recovering per [recovery] (default [Fail_stop]).  A fault scheduled
    at input [k] fires just before input [k] is consumed.  Under the
    empty plan the reports are identical to {!run}'s.  [trace:false]
    silences this run's trace spans (see the {e Tracing}
    section above).
    @raise Invalid_argument for [Drips] with a non-empty plan (the
    DRIPS baseline has no fault model). *)

(** {2 Shared-fabric multi-tenant streaming}

    {!run_shared} drives one [Iced_dvfs] lane per tenant in rounds.  At
    each round boundary it calls [reconfigure], lets [arbitrate]
    throttle the levels each tenant's {!Controller} desires (the hook a
    power-cap allocator, [Iced_tenancy.Allocator], plugs into), pushes
    the grant down with {!Controller.impose}, and steps every live lane
    one window, folding fabric power from each step's per-input tiles
    and SRAM activity.  A one-tenant [run_shared] with the default
    identity [arbitrate] runs the same step as {!run}, so its
    {!shared_report.tenant_reports} entry equals {!run} on the same
    partition and inputs. *)

type tenant_stream = {
  tenant : string;  (** unique tenant id *)
  partition : Partition.t;  (** the tenant's island partition (its sub-fabric) *)
  stream : Pipeline.input list;  (** the tenant's input stream *)
}
(** One tenant's workload: who, where, and what to stream. *)

type reassignment = {
  swaps : (string * Partition.t * float) list;
      (** per-tenant partition replacement with the reconfiguration
          latency (µs) to charge against the tenant's next input *)
  evictions : string list;
      (** tenants removed from the run; their remaining inputs are
          counted as lost in {!shared_report.evicted} *)
}
(** A round-boundary fleet change, produced by the [reconfigure] hook
    (fault-triggered island reallocation across tenants). *)

type tenant_window = {
  owner : string;  (** tenant id *)
  report : window_report;  (** the tenant's own window accounting *)
  granted : (string * Dvfs.level) list;
      (** levels the arbiter granted for this round *)
  throttled : bool;  (** granted differs from what the controller desired *)
  busy_us : float;  (** the tenant's wall time this round, penalties included *)
}
(** One tenant's slice of a shared round. *)

type shared_window = {
  round : int;  (** round number, 0-based *)
  span_us : float;  (** round wall time: the slowest tenant's busy time *)
  fabric_power_mw : float;
      (** whole-fabric mean power over the round: per-tenant active
          energy plus granted-level idle power, one SPM charge, one
          controller-overhead charge — bounded above by the
          activity-1.0 envelope at the granted levels *)
  slices : tenant_window list;  (** per-tenant slices, in tenant order *)
}
(** One round of the shared fabric. *)

type shared_report = {
  rounds : shared_window list;  (** every round, in order *)
  tenant_reports : (string * window_report list) list;
      (** per-tenant window reports, exactly what a solo {!run} of that
          tenant would return when never throttled or reconfigured *)
  evicted : (string * int) list;  (** evicted tenants and inputs lost *)
  peak_power_mw : float;  (** max {!shared_window.fabric_power_mw} *)
}
(** The outcome of a shared run. *)

val run_shared :
  ?arbitrate:
    (round:int ->
    (string * (string * Dvfs.level) list) list ->
    (string * (string * Dvfs.level) list) list) ->
  ?reconfigure:
    (round:int -> active:(string * Partition.t) list -> reassignment option) ->
  ?trace:bool ->
  fabric:Cgra.t ->
  tenant_stream list ->
  shared_report
(** Stream every tenant on the shared [fabric] in round-robin windows
    of {!default_window} inputs (the ICED policy).
    Each round, [arbitrate] sees the per-tenant desired levels (from
    each tenant's controller, in tenant order) and returns the granted
    assignment — the default grants everything.  Granted levels apply
    for the whole round, idle time included; the controllers' next
    adjustment is read at the next round.  [reconfigure] runs first at
    every round boundary and may swap partitions or evict tenants (see
    {!reassignment}).  [fabric] is the physical array the tenants'
    partitions were carved from; it prices the SPM and
    controller-overhead terms of {!shared_window.fabric_power_mw}.
    Tracing ([trace], default on) emits a ["tenancy"]/["run_shared"]
    span and one ["tenancy"]/["round"] span per round and never
    changes any result.
    @raise Invalid_argument on an empty or duplicate-id tenant list. *)

type totals = {
  total_inputs : int;
  total_time_us : float;
  total_energy_uj : float;
  overall_throughput_per_s : float;
  overall_efficiency : float;  (** inputs/s/W over the whole stream *)
}

val aggregate : window_report list -> totals
(** Whole-stream totals: slow phases dominate total time and energy,
    so this is the meaningful end-to-end energy-efficiency (Figure 13's
    headline averages). *)
