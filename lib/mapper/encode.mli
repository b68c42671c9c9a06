(** CNF encoding of modulo-scheduled place-and-route at a fixed II.

    Under the {!Wide} window rule the encoding is the
    {e necessary-condition relaxation} the exact oracle
    ({!Exact.certify}) refutes IIs with: every valid mapping at II (in
    the sense of {!Validate.check}) induces a satisfying assignment, so
    [Unsat] proves the II infeasible.  The soundness property in
    [test/test_mapper.ml] checks this premise on every backend mapping
    and certify witness it builds, through {!assume}.  A model fixes a
    tile and an absolute cycle per node such that

    - every node sits on one allowed tile (memory ops on memory tiles);
    - no two nodes share a tile in the same modulo slot (FU
      exclusivity in {!Mrrg} terms);
    - every dependence [u -> v] with distance [d] satisfies
      [time v + slack >= time u + 1 + manhattan(tile u, tile v)] with
      [slack] from {!Mapping.edge_slack}, matching {!Router}'s deadline
      and {!Validate.check}'s per-edge latency rule with the Manhattan
      distance as the hop lower bound.

    Port capacity along routes is {e not} encoded; {!Exact} closes that
    gap by routing each decoded model with the real {!Router} and
    blocking models whose placements are not routable (CEGAR).

    Variable numbering (documented for docs/EXACT_ORACLE.md):
    variables are allocated node by node in intra-topological order —
    first the tile choices [X(n, tile)] over the node's allowed
    tiles, then schedule indicators [S(n, t)] for
    each cycle in the node's window, order-encoding bounds [GE(n, t)]
    ("time of n >= t") and modulo-slot indicators [SLOT(n, s)] — then
    per-edge distance bounds [DGE(e, d)] ("manhattan of e's endpoints
    >= d"), with cardinality auxiliaries interleaved where the
    exactly-one constraints are emitted. *)

open Iced_arch
open Iced_dfg

(** How far each node's schedule window reaches.  Every window starts
    at the node's intra-iteration ASAP time.  Both rules share the
    global bound [H]: the least-solution bound of the latency
    constraint graph (one plus the sum over edges of
    [max 0 (1 + diameter - slack)]), floored at [II + diameter + 1]. *)
type rule =
  | Wide
      (** every node ends at [H]: any feasible mapping can be retimed
          (uniform shift plus per-node tightening to the least
          solution of the latency constraints) to fit below it, so
          [Unsat] refutes the II *)
  | Narrow
      (** node [n] ends at [min H (max (II + diameter + 1) (1 + sum))],
          the sum of the same edge weights running only over the edges
          whose two endpoints lie in [n]'s ancestry ([n] and every node
          with a path to [n] over any edge, carried ones included).
          The CNF is much smaller; its models are routed and validated
          like any other, but its [Unsat] proves nothing *)

type t

val build : Cgra.t -> Graph.t -> ii:int -> rule:rule -> (t, string) result
(** Clausify the relaxation with the given window rule.  [Error] only
    for structural reasons (intra-iteration cycle, or [H] beyond the
    size cap of 512, under either rule); an over-constrained instance
    (e.g. a memory op with no memory tile) builds fine and is simply
    unsatisfiable. *)

val solver : t -> Iced_sat.Solver.t

val window : t -> int -> int * int
(** [window t n] is [(lo, hi)]: node [n] is scheduled at a cycle in
    [lo .. hi - 1].  @raise Not_found if [n] is not a node of the
    graph. *)

val decode : t -> (int * (int * int)) list
(** [(node, (tile, time))] per node, sorted by node id — read directly
    after a [Sat] answer, before touching the solver again. *)

val block : t -> (int * (int * int)) list -> unit
(** Forbid exactly this placement-and-schedule (CEGAR refinement after
    a routing failure). *)

val assume : t -> (int * (int * int)) list -> unit
(** Fix this placement-and-schedule with unit clauses: each node's
    tile (the empty clause if the tile is outside the node's domain),
    its modulo slot, and, where the time lies in the node's
    {!window}, its cycle.  The soundness property in
    [test/test_mapper.ml] assumes every backend mapping and every
    certify witness into the {!Wide} CNF at the mapping's II and
    requires it to stay satisfiable. *)
