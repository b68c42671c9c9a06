(** The default placer: greedy topological placement.  For each node,
    {!Engine.collect_candidates} scores the eligible tiles (every tile
    of the attempt, or its memory tiles), and {!Engine.pop_candidate}
    yields their free (tile, time) slots cheapest first until one
    places.  A slot that fails is
    rolled back exactly (FU and port reservations released, island
    levels untouched) before the next pop, as the lazy candidate heap
    requires.

    With [route = true] this is the legacy fused pair (incident deps
    are Dijkstra-routed as each node is placed, and unroutable
    placements are undone) — the behaviour pinned byte-for-byte by the
    golden corpus.  With [route = false] it places only, reserving FU
    slots and island levels but no ports, so a whole-placement router
    backend (Pathfinder) can negotiate the wiring afterwards. *)

val place_node : route:bool -> Engine.state -> int -> (unit, string) result
(** Place one node on the cheapest feasible (tile, time) candidate. *)

val place_all : route:bool -> Engine.state -> int list -> (unit, string) result
(** Place every node of [order] in sequence; fails on the first node
    with no feasible candidate. *)
