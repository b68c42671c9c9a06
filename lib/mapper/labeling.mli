(** Algorithm 1 of the paper: LabelDVFSLevel.

    Assigns each DFG node a {e preferred} DVFS level before mapping:

    - nodes on the longest recurrence cycles -> [Normal];
    - nodes on recurrence cycles at most half as long -> [Relax];
    - remaining nodes -> [Rest] while whole islands' worth of
      tile-time capacity remains for them, then [Relax] while any
      capacity remains, then [Normal] (slowing a node multiplies the
      tile-time it occupies, so over-labeling would destroy the
      mapping's feasibility — paper Section IV-A).

    Labels only guide the mapper's cost function; the post-mapping
    level assignment ({!Levels}) decides the final island levels. *)

open Iced_arch
open Iced_dfg

val label :
  ?floor:Dvfs.level ->
  ?guard:int ->
  ?recurrences:Analysis.recurrences ->
  Graph.t ->
  cgra:Cgra.t ->
  tiles:int list ->
  ii:int ->
  (int * Dvfs.level) list
(** Label every node.  [tiles] is the (sub-)fabric the kernel may use;
    [ii] the target initiation interval.  [floor] (default [Rest])
    raises the lowest label used — streaming kernels pass [Relax]
    because island levels must keep one step of downward headroom at
    runtime (paper Section IV-B).  [guard] (default 0) is the
    fault-injection guard band: each guard step raises the effective
    floor one level, so upset-prone islands (whose low-voltage levels
    see transient timing faults) are labeled with extra voltage margin.
    [recurrences] must be [Analysis.recurrences g]; pass it when
    labeling one graph repeatedly to skip the cycle enumeration.
    @raise Invalid_argument if [tiles] is empty, [ii <= 0], or
    [guard < 0]. *)

val capacity_slots : tiles:int list -> ii:int -> int
(** Total tile-time slots available per II: [length tiles * ii]. *)
