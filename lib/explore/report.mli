(** Sweep analysis and rendering: Pareto-frontier and best-per-kernel
    tables, CSV and JSON export.

    Every function is a pure function of the sweep outcomes, with all
    ordering fixed (frontier sorted fastest-first, then by canonical
    point id), so a report is byte-identical across runs and worker
    counts. *)

val frontier_summaries : Outcome.point_result list -> Outcome.summary list
(** The (throughput, energy, EDP) Pareto frontier, sorted by
    descending geomean throughput, then ascending energy, then
    canonical point id. *)

val best_per_kernel_table : Outcome.point_result list -> Iced_util.Table.t
(** For every kernel, the point minimizing EDP (ties: first in sweep
    order), with its II / throughput / energy. *)

val csv : Outcome.point_result list -> string
(** One row per (point, kernel), header included. *)

val json : Outcome.point_result list -> string
(** A one-line JSON array of per-(point, kernel) objects — the CSV's
    fields at full [%.17g] precision. *)

val render : Outcome.point_result list -> string
(** The full human-readable report: frontier table followed by the
    best-per-kernel table. *)
