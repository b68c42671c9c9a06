(** DFG analyses used by the mapper: recurrence cycles, minimum
    initiation intervals, schedule levels, and critical nodes.

    {2 The per-domain entry}

    Algorithm 1, Algorithm 2's II ladder, the level assignment and
    validation read one graph's analyses back to back.  Each domain
    therefore keeps one entry: the last graph it analysed, compared
    with [==] (a [Graph.t] is immutable), with that graph's cycles,
    {!type:recurrences} and ASAP/ALAP levels, each computed on first
    use.  Every function below reads through the entry.  A call on any
    other graph replaces the entry, so a graph analysed again after
    another one is analysed afresh; no result depends on what the
    domain analysed before.  The entry keeps one graph and its analyses
    alive per domain until another graph replaces it.  It never leaves
    its domain, so no lock guards it. *)

type cycle = {
  members : int list;  (** node ids along the cycle, in traversal order *)
  length : int;  (** total latency around the cycle *)
  distance : int;  (** total loop-carried distance around the cycle *)
}

val recurrence_cycles : Graph.t -> cycle list
(** The elementary cycles of the DFG.  Every cycle crosses at least one
    loop-carried edge (the intra-iteration subgraph is acyclic).
    Enumeration stops at 4096 cycles to bound pathological graphs; the
    kernels in this repository are far below the cap. *)

val cycle_mii : cycle -> int
(** ceil(length / distance): the II lower bound this cycle imposes. *)

val rec_mii : Graph.t -> int
(** Recurrence-constrained minimum II: max over recurrence cycles of
    [cycle_mii], at least 1.  Reads only the entry's cycles. *)

val res_mii : Graph.t -> tiles:int -> int
(** Resource-constrained minimum II: ceil(#nodes / #tiles), at least 1.
    @raise Invalid_argument if [tiles <= 0]. *)

val min_ii : Graph.t -> tiles:int -> int
(** max(RecMII, ResMII). *)

type recurrences = {
  cycles : cycle list;  (** {!recurrence_cycles} *)
  rec_mii : int;  (** {!rec_mii} *)
  critical : int list;  (** {!critical_nodes} *)
  secondary : int list;  (** {!secondary_cycle_nodes} *)
}
(** A DFG's recurrence structure, derived from one enumeration. *)

val recurrences : Graph.t -> recurrences
(** The entry's recurrence structure, derived from its cycles on first
    use; the same value while the entry holds the graph. *)

val critical_nodes : Graph.t -> int list
(** Nodes on a recurrence cycle whose [cycle_mii] equals the RecMII —
    the nodes Algorithm 1 pins at the [normal] DVFS level and that the
    mapper must not slow down.  Sorted, without duplicates; the
    [critical] field of {!type:recurrences}. *)

val secondary_cycle_nodes : Graph.t -> int list
(** Nodes on recurrence cycles of length at most half the longest
    cycle's length (and not critical) — labeled [relax] by
    Algorithm 1.  Sorted, without duplicates; the [secondary] field of
    {!type:recurrences}. *)

val asap : Graph.t -> (int * int) list
(** ASAP level per node over the distance-0 subgraph (sources at 0),
    in the order of {!Graph.node_ids}.  ASAP and ALAP come from one
    topological order, computed once per entry.
    @raise Invalid_argument if the intra subgraph is cyclic. *)

val alap : Graph.t -> (int * int) list
(** ALAP level per node (same depth scale as [asap]), in the order of
    {!Graph.node_ids}.
    @raise Invalid_argument if the intra subgraph is cyclic. *)

val depth : Graph.t -> int
(** Longest distance-0 path length in nodes (ASAP max + 1); 0 for the
    empty graph.
    @raise Invalid_argument as {!asap} does. *)
