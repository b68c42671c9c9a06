(** Cap-sweep driver: aggregate throughput vs. power cap vs. fairness,
    Pareto-annotated, over a shared {!Scheduler.plan}.

    Caps are expressed as fractions of the plan's all-[Normal]
    envelope ({!Scheduler.max_envelope_mw}), so the same sweep
    specification scales across fleet sizes.  Cells run on
    {!Iced_explore.Pool} workers; a plan is immutable and every cell
    builds its own allocator and runner state, so a sweep is
    byte-identical across worker counts and reruns. *)

type row = {
  fraction : float;  (** cap as a fraction of the max envelope *)
  cap_mw : float;  (** the absolute cap handed to the allocator *)
  policy : Allocator.policy;
  tenants : int;
  throughput_per_s : float;  (** fleet aggregate *)
  fairness : float;  (** Jain index over tenant throughputs *)
  peak_power_mw : float;  (** max measured fabric power over all rounds *)
  cap_ok : bool;  (** every feasible round held power [<=] cap *)
  throttled_rounds : int;  (** rounds where someone was demoted *)
  infeasible_rounds : int;  (** cap-exhaustion rounds *)
  starved : string list;  (** tenants that failed to finish (must be []) *)
  evictions : int;
  pareto : bool;
      (** on the (throughput, fairness, -cap) maximization frontier *)
}

type sweep = {
  tenants : int;
  max_envelope_mw : float;
  floor_envelope_mw : float;
  rows : row list;  (** policy-major, fraction order as given *)
}

val default_fractions : float list
(** [1.0; 0.85; 0.7; 0.55; 0.45] — from uncapped down to hard
    contention, staying above the typical all-[Rest] floor. *)

val run :
  ?fractions:float list ->
  ?policies:Allocator.policy list ->
  ?workers:int ->
  ?on_item:(int -> unit) ->
  Scheduler.plan ->
  sweep
(** Run every (policy, fraction) cell ([policies] defaults to
    fair-share only, [workers] to serial; [on_item] is the progress
    hook).  @raise Invalid_argument on empty [fractions] or
    [policies]. *)

val sweep_value : sweep -> Iced_util.Json.value
(** The sweep as a JSON document ([iced-tenancy-capsweep-v1]), for
    embedding in a larger one. *)

val sweep_json : sweep -> string
(** {!sweep_value} rendered by {!Iced_util.Json.to_string}. *)

val sweep_csv : sweep -> string

val render : Format.formatter -> sweep -> unit
(** ASCII table of the sweep (one line per row, Pareto rows
    starred), as printed by [iced tenant sweep]. *)
