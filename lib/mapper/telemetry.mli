(** Mapping telemetry: where does Algorithm 2's time go?

    One mutable record accumulates counters across a mapping run — II
    ladder attempts, placement candidates tried, router invocations and
    Dijkstra expansions, per-II wall time.  The mapper fills a fresh
    record per {!Mapper.map} call and merges it into the caller's
    optional sink, so a sink can aggregate across many mappings (a
    sweep, a fault campaign) without the hot path ever branching on an
    option. *)

type t = {
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
      (** Pathfinder: congestion-overflowed port slots summed over
          rounds (0 when every edge routed conflict-free first try) *)
  mutable sat_conflicts : int;  (** exact oracle: CDCL conflicts *)
  mutable sat_decisions : int;  (** exact oracle: CDCL decisions *)
  mutable sat_propagations : int;  (** exact oracle: CDCL propagations *)
  mutable per_ii_s : (int * float) list;
      (** wall seconds per attempted II, most recent first — read it
          through {!per_ii} *)
  mutable wall_s : float;  (** total mapping wall seconds *)
}

val create : unit -> t
(** All-zero record. *)

val per_ii : t -> (int * float) list
(** Per-II attempt wall time in ascending attempt order. *)

val add_ii_time : t -> ii:int -> float -> unit

val merge : into:t -> t -> unit
(** Add counters and wall times of [src] into the sink ([margin_position]
    takes the max); used to aggregate sweeps and campaigns. *)

val to_json : t -> Iced_util.Json.value
(** One flat JSON object (per-II times as [[ii, seconds]] pairs). *)
