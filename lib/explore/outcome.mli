(** Evaluation results of one design point, and their reduction to the
    objectives the Pareto analysis ranks: throughput, energy per
    iteration, and energy-delay product.

    Time is counted at the base (normal-level) clock: one mapped loop
    iteration takes II base cycles in steady state and covers [unroll]
    source iterations, so throughput is [f_normal * unroll / II] source
    iterations per second.  Energy per source iteration is the mapped
    fabric's average power integrated over that time, and EDP is their
    product — the three axes the paper's energy/performance arguments
    trade. *)

type measurement = {
  kernel : string;
  ii : int;
  utilization : float;
  dvfs : float;
  power_mw : float;
  throughput_mips : float;  (** million source iterations per second *)
  energy_nj : float;  (** nanojoules per source iteration *)
  edp : float;  (** energy_nj * iteration time in us *)
}

type status =
  | Mapped of measurement
  | Failed of string  (** mapper or validator rejected the point *)
  | Timed_out  (** the sweep's per-point budget expired *)

type point_result = {
  point : Space.point;
  per_kernel : (string * status) list;  (** in kernel order *)
}

type summary = {
  point : Space.point;
  mapped : int;  (** kernels that mapped *)
  total : int;
  geo_throughput_mips : float;  (** geomean over mapped kernels; nan if none *)
  mean_energy_nj : float;
  mean_edp : float;
  mean_power_mw : float;
}

val measure : Iced.Design.evaluation -> measurement
(** Derive the objective metrics from a design-point evaluation. *)

val evaluate_kernel :
  ?cancel:(unit -> bool) ->
  ?backend:Iced_mapper.Backend.t ->
  ?stats:Iced_mapper.Mapper.stats ->
  Space.point -> Iced_kernels.Kernel.t -> status
(** Map one kernel on one point ([Iced.Design.Iced] flow on the
    point's fabric, floor, and II cap) and measure it.  [cancel] is the
    caller's timeout hook: an evaluation that fails after it returned
    [true] is [Timed_out]; any other failure is [Failed] with the
    mapper's message.  [backend] (default {!Iced_mapper.Backend.default})
    selects the mapper's placement/routing pair; [stats] receives the
    mapper's telemetry. *)

val summarize : point_result -> summary
