(** Dijkstra router over the MRRG (Algorithm 2 uses Dijkstra's
    algorithm to route data between mapped operations).

    There is one search, {!find_path}.  Its space is (tile, absolute
    time): at each step a value may wait in the tile's bypass buffer
    (free of MRRG resources, cost 1) or hop to a mesh neighbour through
    the source tile's output port, at a price the caller sets per port
    slot.  A path succeeds when the value reaches the destination tile
    no later than the consumer's read deadline.

    {!route} is that search under occupancy pricing, followed by
    reserving the hops; the Pathfinder router prices congestion instead
    and reserves only when a negotiation round settles. *)

open Iced_dfg

val hop_cost : int
(** Cost of one hop (waits cost 1); exposed so the mapper's placement
    cost can weigh routing against its own terms. *)

type scratch
(** Reusable search arena: distance, parent, and visited-stamp arrays
    sized to tiles x horizon, plus the frontier, an {!Iced_util.Heap}.
    Resetting between calls is O(1) (an epoch bump), so a search
    through a shared scratch allocates nothing per expansion on the
    steady path — buffers grow only when a call needs a larger horizon
    than any before it. *)

val create_scratch : unit -> scratch
(** Empty arena; buffers are sized lazily by the first route through it.
    Not thread-safe — give each domain its own. *)

val geometry : scratch -> Iced_arch.Cgra.t -> Iced_arch.Cgra.geometry
(** The arena's {!Iced_arch.Cgra.geometry} tables of a fabric: built
    the first time the arena meets that fabric (by physical equality)
    and kept until it searches another, so a mapping run that shares
    one arena builds them once.  The search reads each tile's
    neighbours from them. *)

val route :
  ?extra_cost:(tile:int -> slot:int -> int) ->
  ?hop_width:(int -> int) ->
  ?scratch:scratch ->
  ?stats:Telemetry.t ->
  Iced_mrrg.Mrrg.t ->
  edge:Graph.edge ->
  src_tile:int ->
  src_time:int ->
  dst_tile:int ->
  deadline:int ->
  (Mapping.hop list * int, string) result
(** Find and {e reserve} a minimum-cost route for [edge] departing the
    producer tile after [src_time] (the producer's execute cycle) and
    present at [dst_tile] by the end of [deadline].  Returns the hops
    (empty when producer and consumer share a tile) and the path cost.
    On [Error] nothing is reserved.

    This is {!find_path} under occupancy pricing: a hop out of [tile]
    is forbidden unless all [hop_width tile] of its output-port slots
    from the arrival slot on are free, and otherwise costs
    [hop_width tile + extra_cost ~tile ~slot] on top of {!hop_cost}
    ([extra_cost] must be non-negative and depend on nothing that the
    search changes: it is asked once per (tile, slot) an expansion
    prices, and the four directions of the expansion share the
    answer).  The hops are then reserved; a reservation conflict rolls
    them back and counts as a failure.

    [scratch] reuses a search arena across calls (a private one is made
    per call otherwise).  [stats] counts the call, its heap expansions,
    and a failure if no route exists. *)

val find_path :
  ?scratch:scratch ->
  ?stats:Telemetry.t ->
  port_cost:(tile:int -> dir:Iced_arch.Dir.t -> slot:int -> int) ->
  Iced_mrrg.Mrrg.t ->
  edge:Graph.edge ->
  src_tile:int ->
  src_time:int ->
  dst_tile:int ->
  deadline:int ->
  (Mapping.hop list * int, string) result
(** Cheapest path under caller-supplied port pricing, {e without}
    reserving anything.  [port_cost ~tile ~dir ~slot] prices the output
    port slot a hop out of [tile] in direction [dir] would claim: the
    modulo slot [slot] (in [\[0, II)]) of the time the hop arrives,
    which the search reduces once per expansion, so pricing takes no
    [mod].  [-1] forbids the hop (busy or dead link), any [extra >= 0]
    is added to {!hop_cost}; an int rather than an option, so pricing a
    relaxation allocates nothing.  Besides {!route}, the
    Pathfinder router runs this once per edge per negotiation round,
    with present/history congestion folded into the pricing; settled
    routes are reserved by the caller.  [stats] counts the call, its
    expansions and a failure like {!route}. *)

val release : Iced_mrrg.Mrrg.t -> Mapping.hop list -> Graph.edge -> unit
(** Undo a successful [route]'s reservations. *)
