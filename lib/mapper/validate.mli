(** Full mapping validation, used by tests and assertable by callers.

    Checks, independently of how the mapping was produced:
    - every DFG node is placed exactly once, on an allowed tile, with
      memory operations on SPM-connected tiles;
    - no MRRG resource is double-booked (FUs and crossbar ports);
    - every data dependence is satisfied in modulo time, including
      hop-by-hop route integrity (adjacency, strictly increasing times,
      producer-to-consumer timing with loop-carried slack);
    - the island DVFS assignment is sound per {!Levels.legal}. *)

val check : Mapping.t -> (unit, string list) result
(** [Ok ()] or the list of violations found; never raises on a
    malformed mapping.  A placement or hop at a negative time has no
    modulo slot and one on a tile off the fabric no island: both are
    reported by the first passes (a node's as a negative time or a
    disallowed tile, a hop's as such), and then the resource check
    ({!Mapping.to_mrrg}, which needs a slot for every event) is skipped
    when a time is negative or the II is not positive, and
    {!Levels.legal} whenever either exists.  Each node's first placement and each edge's first
    route are indexed once per call. *)

val check_exn : Mapping.t -> unit
(** @raise Failure with the joined violations. *)
