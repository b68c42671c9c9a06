(** Full mapping validation, used by tests and assertable by callers.

    Checks, independently of how the mapping was produced:
    - every DFG node is placed exactly once, on an allowed tile, with
      memory operations on SPM-connected tiles;
    - no MRRG resource is double-booked (FUs and crossbar ports);
    - every data dependence is satisfied in modulo time, including
      hop-by-hop route integrity (adjacency, strictly increasing times,
      producer-to-consumer timing with loop-carried slack);
    - the island DVFS assignment is sound per {!Levels.legal}. *)

val check :
  ?recurrences:Iced_dfg.Analysis.recurrences -> Mapping.t -> (unit, string list) result
(** [Ok ()] or the list of violations found.  [recurrences] must be
    [Analysis.recurrences] of the mapping's DFG; pass it to skip the
    cycle enumeration of {!Levels.legal}.  Each node's first placement
    and each edge's first route are indexed once per call. *)

val check_exn : Mapping.t -> unit
(** @raise Failure with the joined violations. *)
