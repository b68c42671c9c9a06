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
    level assignment ({!Levels}) decides the final island levels.

    {2 Plan and pass}

    Which nodes sit on the critical and the shorter recurrence cycles,
    and the order the remaining ({e grey}) nodes are labeled in, depend
    on the DFG alone; only the capacity walk over the grey nodes
    depends on the tiles, the II and the floor.  {!plan} derives the
    first part once; {!apply} is the per-attempt pass, which keeps one
    slot count per level, so it is linear in the node count.  The
    mapper builds one plan per mapping run and applies it at every II.
    {!label} is [apply (plan g)]. *)

open Iced_arch
open Iced_dfg

type plan
(** The DFG-only part of Algorithm 1: critical and secondary cycle
    membership, and the grey nodes ordered by ALAP - ASAP slack (most
    slack first, ties by id). *)

val plan : Graph.t -> plan
(** The plan of [g], from its {!val:Analysis.recurrences} and its
    ASAP and ALAP levels.
    @raise Invalid_argument if the intra-iteration subgraph is cyclic. *)

val apply :
  ?floor:Dvfs.level ->
  ?guard:int ->
  plan ->
  cgra:Cgra.t ->
  tiles:int list ->
  ii:int ->
  (int * Dvfs.level) list
(** The labels {!label} gives for the plan's graph, with the same
    arguments.
    @raise Invalid_argument as {!label} does. *)

val label :
  ?floor:Dvfs.level ->
  ?guard:int ->
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
    A caller labeling one graph repeatedly builds its {!plan} once and
    calls {!apply} instead.
    @raise Invalid_argument if [tiles] is empty, [ii <= 0], or
    [guard < 0]. *)
