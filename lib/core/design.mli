(** One-call evaluation of a kernel on one of the paper's four design
    points.  This is the facade the benchmark harness, the examples,
    and the CLI share: it picks the mapping strategy, island geometry,
    level-assignment policy, and power-model overheads that define each
    design, so every figure compares exactly the same four systems.

    - {b Baseline}: conventional CGRA — utilization-oblivious mapping,
      no DVFS hardware, every tile always at nominal V/F.
    - {b Baseline_gated}: same mapping; idle islands power-gated.
    - {b Per_tile}: the "improved UE-CGRA" — conventional mapping on a
      1x1-island fabric, every tile lowered to its soundest level or
      gated, one DVFS controller per tile (>30 % of a tile in power and
      area).
    - {b Iced}: DVFS-aware mapping (Algorithms 1 and 2), per-island
      level assignment, one controller per island. *)

open Iced_arch
open Iced_mapper

type point = Baseline | Baseline_gated | Per_tile | Iced

val all_points : point list
val point_to_string : point -> string

type evaluation = {
  point : point;
  kernel : string;
  unroll : int;
  mapping : Mapping.t;
  ii : int;
  avg_utilization : float;  (** paper Figures 2 and 9 *)
  avg_dvfs : float;  (** paper Figures 10 and 12 *)
  power_mw : float;  (** paper Figure 11 *)
  speedup_vs_cpu : float;
}

val evaluate :
  ?cgra:Cgra.t ->
  ?unroll:int ->
  ?label_floor:Dvfs.level ->
  ?max_ii:int ->
  ?cancel:(unit -> bool) ->
  ?backend:Backend.t ->
  ?stats:Mapper.stats ->
  ?trace:bool ->
  point ->
  Iced_kernels.Kernel.t ->
  (evaluation, string) result
(** Map and evaluate a kernel ([unroll] 1 or 2, default 1) on the
    design point.  [cgra] defaults to the 6x6 ICED prototype; for
    [Per_tile] the same fabric is re-islanded 1x1.  [label_floor]
    (default [Rest]) is the slowest DVFS level Algorithm 1 may label a
    node with — restricting it models a fabric supporting fewer active
    levels; [max_ii] (default 64) bounds the mapper's II search, the
    design-space explorer's per-point work cap; [cancel] is polled
    between II attempts and aborts with a "deadline exceeded" error —
    the explorer's per-point timeout.  [backend] (default
    {!Backend.default}) selects the mapper's placement/routing pair;
    [stats] receives the mapper's telemetry for this evaluation
    (merged in).

    When the {!Iced_obs.Trace} collector is on, the evaluation runs
    inside a ["design"]/["evaluate"] span carrying the kernel name,
    design point, and unroll factor (plus the achieved II on success);
    the mapper emits its own nested spans.  [trace:false] (default
    [true]) suppresses all of them for this call without touching the
    global collector — tracing never changes the result either way. *)

val functional_check : Iced_kernels.Kernel.t -> Mapping.t -> (unit, string) result
(** Run the mapped schedule and the golden DFG interpreter on the
    kernel's data binding for 25 iterations and compare store
    traces. *)
