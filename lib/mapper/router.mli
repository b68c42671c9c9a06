(** Dijkstra router over the MRRG (Algorithm 2 uses Dijkstra's
    algorithm to route data between mapped operations).

    The search space is (tile, absolute time): at each step a value may
    wait in the tile's bypass buffer (free of MRRG resources, tiny cost)
    or hop to a mesh neighbour, claiming the source tile's output port
    at the hop time.  A route succeeds when the value reaches the
    destination tile no later than the consumer's read deadline. *)

open Iced_dfg

val hop_cost : int
(** Cost of one hop (waits cost 1); exposed so the mapper's placement
    cost can weigh routing against its own terms. *)

type scratch
(** Reusable search arena: distance, parent, and visited-stamp arrays
    plus the frontier heap, sized to tiles x horizon.  Resetting between
    calls is O(1) (an epoch bump), so routing an edge through a shared
    scratch allocates nothing on the steady path — buffers grow only
    when a call needs a larger horizon than any before it. *)

val create_scratch : unit -> scratch
(** Empty arena; buffers are sized lazily by the first route through it.
    Not thread-safe — give each domain its own. *)

val route :
  ?extra_cost:(tile:int -> time:int -> int) ->
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

    [scratch] reuses a search arena across calls (a private one is made
    per call otherwise).  [stats] counts the call, its heap expansions,
    and a failure if no route exists. *)

val find_path :
  ?scratch:scratch ->
  ?stats:Telemetry.t ->
  port_cost:(tile:int -> dir:Iced_arch.Dir.t -> time:int -> int) ->
  Iced_mrrg.Mrrg.t ->
  edge:Graph.edge ->
  src_tile:int ->
  src_time:int ->
  dst_tile:int ->
  deadline:int ->
  (Mapping.hop list * int, string) result
(** Cheapest path under caller-supplied port pricing, {e without}
    reserving anything.  [port_cost ~tile ~dir ~time] prices the output
    port slot a hop out of [tile] in direction [dir] arriving at [time]
    would claim — [-1] forbids it (dead link), any [extra >= 0] is
    added to {!hop_cost}; an int rather than an option, so pricing a
    relaxation allocates nothing.  This is the search the Pathfinder router runs once
    per edge per negotiation round, with present/history congestion
    folded into the pricing; settled routes are reserved by the caller.
    [stats] counts the call and its expansions like {!route}. *)

val release : Iced_mrrg.Mrrg.t -> Mapping.hop list -> Graph.edge -> unit
(** Undo a successful [route]'s reservations. *)
