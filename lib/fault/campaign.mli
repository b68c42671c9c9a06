(** Domain-parallel fault-injection campaigns over the streaming
    pipeline.

    A campaign crosses a set of fault-plan seeds with a set of recovery
    policies, runs every (seed, policy) cell through
    [Iced_stream.Runner.run_resilient] on {!Iced_explore.Pool}'s domain
    pool, and reports throughput retention against the fault-free
    baseline.  Every cell is a pure function of the spec, results land
    in job order, and the fault model draws from explicit seeds — so
    the CSV/JSON output is byte-identical across worker counts. *)

module Fault = Iced_fault.Fault

type spec = {
  app : Iced_stream.App.t;
  policy : Iced_stream.Runner.policy;  (** [Static] or [Iced_dvfs] only *)
  recoveries : Iced_stream.Runner.recovery list;
  kinds : Fault.kind_class list;  (** fault families the plans draw from *)
  seeds : int list;  (** one fault plan per seed *)
  faults_per_run : int;  (** events per plan *)
  upset_rate : float;  (** per-cycle upset probability at [Rest] *)
  inputs : int;  (** stream length: the app's first [inputs] inputs *)
  window : int;  (** runner observation window *)
  workers : int;  (** domain-pool width; results do not depend on it *)
}

val default_spec : spec
(** LU pipeline, [Iced_dvfs], all four recovery policies, all four
    fault families, seeds 0..3, 2 faults per run, rate 1e-3, 200
    inputs, window 10, 1 worker. *)

(** {2 Admission}

    One rule bounds a campaign's counts.  {!run} checks it, the CLI's
    [--seeds]/[--faults]/[--inputs]/[--window] options exit 124 by it,
    and the daemon answers a [fault] frame that breaks it [invalid].
    A campaign streams [inputs] inputs through each of [seeds] times
    the recovery policies' cells, and each cell builds a plan of
    [faults] events up front, so the upper bounds cap its work: the
    daemon answers a [fault] frame at every bound (32 seeds of 2,000
    inputs, window 1, 10,000 faults) in 1.9-2.4 s with [--once] and
    with [--workers 2], lu and gcn alike, on a 2-core Xeon. *)

val max_seeds : int
(** 32 *)

val max_inputs : int
(** 2,000 *)

val max_faults : int
(** 10,000 *)

type count = Seeds | Faults | Inputs | Window
    (** the length of [seeds], [faults_per_run], [inputs] and [window] *)

val count_error : count -> int -> string option
(** [None] when the rule admits [n] for [count]; else the first bound
    [n] breaks, worded ["must be > 0"], ["must be >= 0"],
    ["must be >= 2"], ["must be <= 32"], ["must be <= 2000"] or
    ["must be <= 10000"]. *)

val counts_error :
  seeds:int -> faults:int -> inputs:int -> window:int -> (string * string) option
(** {!count_error} over a campaign's four counts in that order: the
    first that breaks the rule, as its name (["seeds"], ["faults"],
    ["inputs"] or ["window"], the protocol's field names) and why. *)

type run_result = {
  seed : int;
  recovery : Iced_stream.Runner.recovery;
  plan : Fault.plan;
  stats : Iced_stream.Runner.fault_stats;
  totals : Iced_stream.Runner.totals;
  retention : float;
      (** completed fraction times faulted/baseline throughput ratio:
          1.0 = the faults cost nothing, 0.0 = the stream was lost *)
  survived : bool;  (** [retention >= 0.5] *)
  error : string option;  (** an escaped exception, if the cell crashed *)
}

type t = {
  spec : spec;
  baseline : Iced_stream.Runner.totals;  (** fault-free reference run *)
  runs : run_result list;  (** seed-major, then recovery, in spec order *)
}

val run : ?progress:(int -> int -> unit) -> spec -> (t, string) result
(** Execute the campaign: prepare the partition once
    ({!Iced_stream.App.partition} of the app's first [inputs] inputs),
    run the fault-free baseline, then map the (seed, recovery) cells
    over the domain pool.  [progress done_ total] is called as cells
    finish.
    Errors: an unpartitionable app, a [Drips] policy, or an empty
    seed/recovery/kind list. *)

val table : t -> Iced_util.Table.t
(** One row per (seed, recovery) cell. *)

type summary = {
  cells : int;
  survivors : int;  (** cells with [survived] *)
  mean_retention : float;  (** [nan] when [cells = 0] *)
  mean_mttr_us : float;  (** [nan] when [cells = 0] *)
}

val summary : t -> (Iced_stream.Runner.recovery * summary) list
(** One entry per [spec.recoveries] element, in order, over that
    policy's cells: the one aggregation behind {!render}'s summary
    table and the daemon's [fault] reply. *)

val csv : t -> string
(** One row per cell, header included; byte-identical across worker
    counts. *)

val json : t -> string
(** One-line JSON object with the spec, the baseline, and one entry
    per cell, rendered by {!Iced_util.Json.to_string}. *)

val render : t -> string
(** Human-readable report: the cell table, then the policy summary. *)
