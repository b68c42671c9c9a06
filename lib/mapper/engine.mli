(** Shared placement state and cost helpers for every mapper backend.

    One [state] is built per (II, margin, cost-model) attempt by
    {!Mapper.map} and handed to whichever placer/router pair the
    request's {!Backend.t} selects.  The helpers here are the contract
    between backends: time windows and a heap of candidate slots
    ordered by placement cost, width-aware FU reservation against the
    MRRG occupancy arenas, and incident-dependence routing for the
    incremental router. *)

open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg

type request = {
  cgra : Cgra.t;
  strategy : Cost.strategy;
  backend : Backend.t;
      (** which placer/router pair {!Mapper.map} runs; see {!Backend} *)
  tiles : int list option;  (** sub-fabric; default: the whole fabric *)
  label_floor : Dvfs.level;  (** lowest label Algorithm 1 may use *)
  label_guard : int;
      (** fault guard band: raises Algorithm 1's floor this many levels
          so upset-prone islands keep voltage margin
          ({!Labeling.label}'s [guard]) *)
  max_ii : int;  (** give up past this II *)
  knobs : Cost.knobs;
  cancel : unit -> bool;
      (** polled before each II attempt; returning [true] aborts the
          search with a "deadline exceeded" error — the design-space
          sweep's per-point timeout hook, and the fault-recovery
          remap's retry budget *)
  dead_tiles : int list;
      (** permanently faulted tiles: removed from the sub-fabric before
          placement, so the mapper remaps around them *)
  dead_links : (int * Dir.t) list;
      (** faulted crossbar output ports: masked in the MRRG so routes
          plan around them *)
  commit_islands : bool;
      (** Figure 4 study: pre-commit every island to a level from the
          label quota before placement.  Nodes are then steered onto
          islands of exactly their label's level (falling back to
          faster islands only when none is feasible), a slowed tile's
          FU occupies multiplier-many modulo slots per op, and routing
          through a slowed tile takes multiplier-many cycles per hop,
          so over-large islands degrade the II *)
}
(** What to map onto.  Memory ops always go to the westmost column of
    the placement tiles (the sub-fabric minus [dead_tiles]). *)

val request : ?strategy:Cost.strategy -> ?backend:Backend.t -> ?tiles:int list ->
  ?label_floor:Dvfs.level -> ?label_guard:int -> ?max_ii:int -> ?knobs:Cost.knobs ->
  ?cancel:(unit -> bool) -> ?dead_tiles:int list -> ?dead_links:(int * Dir.t) list ->
  ?commit_islands:bool -> Cgra.t -> request
(** A request with defaults: [Dvfs_aware], {!Backend.default} (the
    golden-corpus-pinned greedy+Dijkstra pair), the whole fabric,
    floor [Rest], no guard band, [max_ii] 64, {!Cost.all_knobs}, no
    cancellation, no faulted resources. *)

type candidates
(** The greedy placer's candidate heap and the int scratch it is filled
    from: the placed neighbours of the node being placed and, per tile,
    its window and tile cost, and the record {!time_window} returns.
    One per mapping run, reused by every attempt; filled by
    {!collect_candidates}, drained by {!pop_candidate}.  Not
    thread-safe. *)

val create_candidates : unit -> candidates
(** Empty candidates; the arrays are sized by the first collect. *)

type adjacency = { first : int array; ends : int array; periods : int array }
(** Each node's producers (or consumers), flattened: entries
    [first.(v)] to [first.(v + 1) - 1] of [ends] and [periods] are node
    [v]'s, in edge-list order.  {!Mapping.edge_slack} is linear in the
    II, so [periods] holds an edge's slack at II 1 and its slack at
    [ii] is [periods.(i) * ii]. *)

type state = {
  dfg : Graph.t;
  req : request;
  tiles : int list;  (** placement tiles, ascending *)
  memory_tiles : int list;  (** the westmost column of [tiles], ascending *)
  ii : int;
  labels : Dvfs.level array;  (** node -> Algorithm 1 label *)
  estimate : Estimate.t;
  cycle_mates : int list array;
      (** node -> members of the longest recurrence cycle through it
          ([[]] off every cycle); read only, shared by every attempt of
          a mapping run *)
  preds : adjacency;  (** node -> producers; read only, one per mapping run *)
  succs : adjacency;  (** node -> consumers; read only, one per mapping run *)
  geometry : Cgra.geometry;
      (** the fabric's tables ({!Router.geometry} of [scratch]), one per
          mapping run: windows, move costs and hop prices read a tile's
          row, column and island here *)
  mrrg : Mrrg.t;
  place_tile : int array;  (** node -> tile, [-1] while unplaced *)
  place_time : int array;  (** node -> start time, read only when placed *)
  mutable routes : Mapping.route list;
  island_level : Dvfs.level option array;
      (** island -> tentative level ([None] = not opened), Dvfs_aware only *)
  committed : (int, Dvfs.level) Hashtbl.t option;  (** island -> level, commit mode *)
  scratch : Router.scratch;
  candidates : candidates;
      (** the greedy placer's candidates, filled by
          {!collect_candidates} *)
  stats : Telemetry.t;
}
(** One placement attempt's working set.  Node arrays are indexed by
    node id and sized by {!node_slots}; island arrays by island id.
    Placers mutate the placement arrays, the MRRG, and [island_level];
    routers append to [routes] and reserve MRRG ports. *)

val node_slots : Graph.t -> int
(** Largest node id + 1: the length of every node-indexed array (ids
    may be sparse). *)

val adjacency : Graph.t -> adjacency * adjacency
(** [(preds, succs)] of every node of the graph: built once per mapping
    run, so window and cost scans walk no edge list and look up no
    node. *)

val is_placed : state -> int -> bool

val place : state -> int -> int -> int -> unit
(** [place state node tile time] records a placement (the caller has
    reserved the FU). *)

val placements : state -> (int * (int * int)) list
(** Every placed [(node, (tile, time))], in ascending node id. *)

val note_island : state -> int -> Dvfs.level -> unit
(** [note_island state island label] opens [island] at [label], or
    raises its tentative level to [label] when that is faster. *)

val edge_slack : state -> Graph.edge -> int
(** {!Mapping.edge_slack} at the state's DFG and II. *)

val label_of : state -> int -> Dvfs.level

val committed_level : state -> int -> Dvfs.level option

val route_extra_cost : state -> tile:int -> slot:int -> int
(** Per-hop routing penalty from the DVFS cost model (unopened islands,
    phase misalignment) for a hop out of [tile] arriving in modulo slot
    [slot]: the {!Router.route} [extra_cost] contract. *)

type window = private { mutable est : int; mutable lst : int }
(** A node's start window on one tile: [est], the earliest sound start
    honouring placed producers and the schedule estimate, and [lst],
    the latest start admissible for placed consumers ([max_int] =
    none). *)

val time_window : state -> int -> int -> window
(** [time_window state node tile] is the window of [node] on [tile], in
    one pass over the node's flat producer and consumer arrays
    ([preds], [succs]): no scan array is filled, no route term is
    computed, and nothing is allocated.  The record is the state's
    own: the next call overwrites it.  The greedy placer's
    {!collect_candidates} applies the same rule to every tile. *)

val collect_candidates : state -> int -> int list -> unit
(** [collect_candidates state node tiles] refills [state.candidates]
    for [node] over [tiles] (each listed once).  It scans the node's
    placed neighbours once, then pushes one entry per tile whose
    {!time_window} is not empty, keyed by a lower bound on the
    placement cost of that tile's slots; no slot is scored yet.  A
    slot's cost is a lower bound that never touches the router. *)

val pop_candidate : state -> (int * int) option
(** Remove the cheapest [(tile, time)] left; ties in cost go to the
    lower tile, then the earlier time.  A tile entry that comes up
    first is expanded: each FU-free slot of its window is pushed under
    its exact cost, read from the MRRG and island phases at that
    moment.  The slots therefore pop in the order that scoring every
    slot at {!collect_candidates} and sorting would give, provided
    that whatever the caller does between pops is undone exactly
    before the next: a failed candidate's FU and port reservations are
    released, and island levels change only on success. *)

val route_incident : state -> int -> int -> int ->
  (Mapping.route list, string) result
(** Route every dependence between a node just placed at [(tile, time)]
    and its already-placed neighbours, reserving MRRG ports; on failure
    every reservation made by this call is rolled back. *)

val reserve_fu : state -> int -> int -> int -> (unit, string) result
(** [reserve_fu state node tile time] claims the FU slot(s) for [node]
    (commit-mode width-aware), rolling back on conflict. *)

val fu_fits : state -> int -> int -> int -> bool
(** [fu_fits state node tile time] is whether {!reserve_fu} would
    claim the slot(s) for [node] at [(tile, time)] once [node]'s own
    claim were released: each is free or already holds [node].  It
    writes nothing to the MRRG, so a move can be tested before it is
    accepted. *)

val release_fu : state -> int -> int -> unit
(** Release an FU claim made by {!reserve_fu} (same tile/time). *)

val rebuild_island_levels : state -> unit
(** Recompute tentative island levels from the current (complete)
    placement; idempotent, deterministic. *)

val all_deps : state -> Graph.edge list
(** Every DFG edge in one deterministic order (ascending producer id,
    then successor-edge order). *)
