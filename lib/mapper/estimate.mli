(** Expected start times for every node, computed before placement by a
    short fixed-point sweep.

    Dependent ops usually sit one routing hop apart (2 cycles
    producer-to-consumer), except within a recurrence cycle, which must
    be packed at 1 cycle per member to close within II * distance.  A
    phi is anchored after its carried producer's estimate minus the
    iteration slack d*II.  Cycles that consume values computed from
    other cycles ("rank" >= 1, e.g. spmv's accumulator fed by an
    induction-addressed load chain) additionally receive the margin as
    congestion slack — shifting a dependent cycle later opens slack
    between it and its input chain, whereas a uniform shift would not. *)

open Iced_dfg

type plan
(** The part of the estimate that depends on the DFG alone: each
    in-edge's step (1 within a recurrence cycle, 2 otherwise) and each
    node's cycle rank.  Built once per mapping run. *)

type t

val plan : Graph.t -> cycles:Analysis.cycle list -> topo:int list -> plan
(** [cycles] are the DFG's recurrence cycles, [topo] an intra-iteration
    topological order of every node. *)

val uses_margin : plan -> bool
(** Whether {!build}'s result depends on its [margin]: only nodes of
    cycle rank 1 (members of a recurrence cycle fed by another cycle)
    receive it.  Without such a node every margin builds the same
    estimate. *)

val build : plan -> ii:int -> margin:int -> t
(** Fixed-point sweep over the plan's topological order at [ii];
    [margin] is the congestion slack granted to dependent recurrence
    cycles — drawn from {!Cost.asap_margins}. *)

val start : t -> int -> int
(** Estimated start cycle of a node (0 when unknown), clamped
    non-negative. *)
