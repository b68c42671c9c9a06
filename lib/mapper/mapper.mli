(** Algorithm 2 of the paper: heuristic DVFS-aware modulo mapping.

    Starting from II = max(RecMII, ResMII), the mapper places nodes in
    topological order onto the MRRG, routing every incident dependence
    with Dijkstra as it goes, and bumps the II on failure (paper
    Algorithm 2, line 26).

    This module is the public façade over the layered engine: {!Cost}
    holds the weights and ladders, {!Estimate} the pre-placement
    schedule guesses, {!Search} the placement loop and II ladder, and
    {!Telemetry} the counters — the types below are equations onto
    those modules, so pattern-matching through either path is the same.

    Two placement-cost strategies are provided:

    - [Conventional]: the utilization-oblivious baseline — minimize
      routing cost and balance load across tiles.  This is the mapping
      the no-DVFS baseline and the per-tile DVFS design use (the paper's
      "naive per-tile mapping does not consider utilization").
    - [Dvfs_aware]: ICED's mapping — a node labeled at level L may only
      use an island whose tentatively-assigned level is at least L
      (Algorithm 2, line 17); islands are opened reluctantly; placing a
      node on an island faster than its label is penalized; dependent
      nodes pack into busy tiles so whole islands stay idle or slow. *)

open Iced_arch
open Iced_dfg

type strategy = Cost.strategy = Conventional | Dvfs_aware

type knobs = Cost.knobs = {
  island_affinity : bool;
      (** prefer islands whose tentative level matches the node label *)
  packing : bool;  (** pull slowable nodes onto busy tiles *)
  phase_alignment : bool;
      (** keep slowed islands' events on one clock phase *)
  conventional_fallback : bool;
      (** retry an II with the conventional cost model before bumping *)
}
(** Ablation switches for the DVFS-aware cost model (the bench's
    ablation study disables them one at a time). *)

val all_knobs : knobs
(** Every feature on — the production configuration. *)

type request = Engine.request = {
  cgra : Cgra.t;
  strategy : strategy;
  backend : Backend.t;
      (** which placer/router pair {!Search} orchestrates (default
          {!Backend.default}, the golden-corpus-pinned greedy+Dijkstra
          pair); see {!Backend} for the [sa] and [pathfinder]
          presets *)
  tiles : int list option;  (** sub-fabric; default: the whole fabric *)
  memory_tiles : int list option;
      (** default: westmost column of the (sub-)fabric *)
  label_floor : Dvfs.level;  (** lowest label Algorithm 1 may use *)
  label_guard : int;
      (** fault guard band (default 0): raises Algorithm 1's floor
          this many levels so upset-prone islands keep voltage margin
          ({!Labeling.label}'s [guard]) *)
  max_ii : int;  (** give up past this II *)
  knobs : knobs;
  cancel : unit -> bool;
      (** polled before each II attempt; returning [true] aborts the
          search with a "deadline exceeded" error — the design-space
          sweep's per-point timeout hook, and the fault-recovery
          remap's retry budget *)
  dead_tiles : int list;
      (** permanently faulted tiles (default []): removed from the
          sub-fabric before placement, so the mapper remaps around
          them *)
  dead_links : (int * Dir.t) list;
      (** faulted crossbar output ports (default []): masked in the
          MRRG so routes plan around them *)
  commit_islands : bool;
      (** Figure 4 study: pre-commit islands to levels from the label
          quota; slowed tiles then cost multiplier-many slots per op
          and per route hop, so over-large islands degrade the II *)
}

val request : ?strategy:strategy -> ?backend:Backend.t -> ?tiles:int list ->
  ?memory_tiles:int list -> ?label_floor:Dvfs.level -> ?label_guard:int ->
  ?max_ii:int -> ?knobs:knobs -> ?cancel:(unit -> bool) -> ?dead_tiles:int list ->
  ?dead_links:(int * Dir.t) list -> ?commit_islands:bool ->
  Cgra.t -> request
(** Build a request with defaults: [Dvfs_aware], {!Backend.default},
    whole fabric, westmost-column memory, floor [Rest], no guard band,
    [max_ii] 64, no cancellation, no faulted resources. *)

type stats = Telemetry.t = {
  mutable attempts : int;  (** (II, margin, cost-model) placement attempts *)
  mutable ii_bumps : int;  (** times the II ladder moved up *)
  mutable margin_position : int;
      (** ladder index of the congestion margin in use when the search
          ended (0 = tightest) *)
  mutable placements_tried : int;  (** candidate (tile, time) reservations *)
  mutable route_calls : int;  (** Dijkstra invocations *)
  mutable route_failures : int;  (** routes that found no path in deadline *)
  mutable expansions : int;  (** Dijkstra heap pops *)
  mutable sa_moves_accepted : int;  (** annealing placer: accepted moves *)
  mutable sa_moves_rejected : int;
      (** annealing placer: rejected (or infeasible) moves *)
  mutable sa_temp_steps : int;  (** annealing placer: temperature steps *)
  mutable pf_rounds : int;  (** Pathfinder: rip-up-and-reroute rounds *)
  mutable pf_overflow : int;
      (** Pathfinder: overused port slots summed over rounds *)
  mutable sat_conflicts : int;
      (** exact oracle ({!Exact.certify}): CDCL conflicts *)
  mutable sat_decisions : int;  (** exact oracle: CDCL decisions *)
  mutable sat_propagations : int;  (** exact oracle: CDCL propagations *)
  mutable per_ii_s : (int * float) list;
      (** wall seconds per attempted II, most recent first — read it
          through {!per_ii_times} *)
  mutable wall_s : float;  (** total mapping wall seconds *)
}
(** Mapping telemetry, accumulated per {!map} call into the caller's
    sink — see {!Telemetry}. *)

val create_stats : unit -> stats

val merge_stats : into:stats -> stats -> unit
(** Aggregate one run's counters into a campaign-wide sink. *)

val per_ii_times : stats -> (int * float) list
(** Per-II attempt wall time in ascending attempt order. *)

val stats_to_json : stats -> Iced_util.Json.value
(** One flat JSON object (the CLI's [--stats --json] payload). *)

val map : ?stats:stats -> request -> Graph.t -> (Mapping.t, string) result
(** Map a kernel.  The result carries Algorithm 1's labels and an
    all-[Normal] island assignment; apply {!Levels.assign} to lower the
    islands.  The result always passes {!Validate.check}.  When [stats]
    is given, the run's telemetry is merged into it. *)

val map_exn : ?stats:stats -> request -> Graph.t -> Mapping.t
(** @raise Failure when no mapping is found within [max_ii]. *)
