(** Simulated-annealing placer.

    Seeds itself with a routing-blind greedy placement, then runs a
    seeded, fully deterministic move loop: relocate a uniform node to a
    uniform eligible (tile, time-window slot), accept by the Metropolis
    rule on a wirelength-plus-timing-slack cost, with a warming phase
    that multiplies the temperature until the acceptance ratio reaches
    the target and a multiplicative cooling phase after it (the
    [SAStruct]/[DefaultSAWarm]/[DefaultSACool] scheme of Mapper2.jl).
    FU occupancy, memory-tile and commit-mode constraints hold after
    every move by construction; routing is left entirely to the request
    backend's router.  A move's time window is {!Engine.time_window}'s,
    and it and the move's cost are read from flat arrays of each node's
    producers and consumers, built once per mapping run
    ([Engine.state]'s [preds] and [succs]), with hop distances from the
    fabric's geometry tables.  A move tests its target FU slots with
    {!Engine.fu_fits} and writes the MRRG only when it is accepted; the
    moved node's old cost is its incident cost kept from an earlier
    move, dropped whenever the node or a neighbour moves.

    The schedule is fixed (20,000 moves in batches of 64, starting at
    temperature 64.0, warming by 1.5x until a batch accepts 90% of its
    moves, then cooling by 0.92x until below 0.05).  Equal seeds on the
    same attempt produce byte-identical placements; no wall-clock or
    global state is consulted.

    Telemetry: accepted/rejected moves and temperature steps go to
    [sa_moves_accepted]/[sa_moves_rejected]/[sa_temp_steps]. *)

val place : seed:int -> Engine.state -> int list -> (unit, string) result
(** Place every node of the attempt (in [order] for the greedy seed
    phase), leaving the refined placement in [state.placements] with
    FU slots reserved.  Fails only if the greedy seed placement finds
    no feasible slot for some node. *)
