(** The dataflow graph (DFG) of an application kernel.

    Nodes are operations; edges are data dependencies.  An edge carries
    an iteration [distance]: 0 for an intra-iteration dependence, d > 0
    for a loop-carried dependence consumed d iterations later.  Control
    flow has already been converted to dataflow via partial predication
    (paper Section IV), so predicates appear as ordinary [Select]/[Cmp]
    data inputs.

    The intra-iteration (distance-0) subgraph must be acyclic; every
    cycle of the full graph therefore crosses at least one loop-carried
    edge and contributes to the recurrence-constrained minimum
    initiation interval (RecMII). *)

type node = { id : int; op : Op.t; label : string }

type edge = { src : int; dst : int; distance : int }

type t

val empty : t

val add_node : ?label:string -> t -> Op.t -> t * int
(** Allocate a fresh node; returns the graph and the node id. *)

val add_edge : ?distance:int -> t -> int -> int -> t
(** [add_edge g src dst] adds a dependence.  Duplicate edges (same
    endpoints and distance) are ignored.  @raise Invalid_argument if an
    endpoint does not exist or [distance < 0]. *)

val remove_node : t -> int -> t
(** Remove a node and all incident edges.  Unknown ids are ignored. *)

val node_count : t -> int
val edge_count : t -> int

val nodes : t -> node list
(** In increasing id order. *)

val edges : t -> edge list
(** Every edge, grouped by source in increasing id order, each source's
    edges in insertion order.  Linear in the edge count. *)

val node : t -> int -> node
(** @raise Not_found on unknown id. *)

val mem_node : t -> int -> bool

val successors : t -> int -> edge list
(** All outgoing edges (any distance). *)

val predecessors : t -> int -> edge list
(** All incoming edges (any distance). *)

val intra_successors : t -> int -> int list
(** Distance-0 successors only. *)

val intra_predecessors : t -> int -> int list

val node_ids : t -> int list

val intra_topological : t -> int list option
(** Topological order of the distance-0 subgraph (Kahn), or [None] if
    that subgraph is cyclic. *)

val validate : t -> (unit, string) result
(** Check structural invariants: edges reference live nodes, the
    distance-0 subgraph is acyclic, [Phi] nodes have at least one
    loop-carried input once they have any input. *)

val pp : Format.formatter -> t -> unit
(** Compact human-readable dump (one line per node with fan-out). *)
