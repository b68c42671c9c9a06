(** Shared placement state and cost helpers for every mapper backend.

    One [state] is built per (II, margin, cost-model) attempt by
    {!Search} and handed to whichever placer/router pair the request's
    {!Backend.t} selects.  The helpers here are the contract between
    backends: time windows and cheap costs for ordering candidates,
    width-aware FU reservation against the MRRG occupancy arenas, and
    incident-dependence routing for the incremental router. *)

open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg

type strategy = Cost.strategy = Conventional | Dvfs_aware

type knobs = Cost.knobs = {
  island_affinity : bool;
  packing : bool;
  phase_alignment : bool;
  conventional_fallback : bool;
}

type request = {
  cgra : Cgra.t;
  strategy : strategy;
  backend : Backend.t;
  tiles : int list option;
  memory_tiles : int list option;
  label_floor : Dvfs.level;
  label_guard : int;
  max_ii : int;
  knobs : knobs;
  cancel : unit -> bool;
  dead_tiles : int list;
  dead_links : (int * Dir.t) list;
  commit_islands : bool;
}
(** See {!Mapper.request} for field documentation. *)

val request : ?strategy:strategy -> ?backend:Backend.t -> ?tiles:int list ->
  ?memory_tiles:int list -> ?label_floor:Dvfs.level -> ?label_guard:int ->
  ?max_ii:int -> ?knobs:knobs -> ?cancel:(unit -> bool) -> ?dead_tiles:int list ->
  ?dead_links:(int * Dir.t) list -> ?commit_islands:bool ->
  Cgra.t -> request

type state = {
  dfg : Graph.t;
  req : request;
  tiles : int list;
  memory_tiles : int list;
  ii : int;
  labels : Dvfs.level array;  (** node -> Algorithm 1 label *)
  estimate : Estimate.t;
  cycle_mates : int list array;
      (** node -> members of the longest recurrence cycle through it
          ([[]] off every cycle) *)
  mrrg : Mrrg.t;
  place_tile : int array;  (** node -> tile, [-1] while unplaced *)
  place_time : int array;  (** node -> start time, read only when placed *)
  mutable routes : Mapping.route list;
  island_level : Dvfs.level option array;
      (** island -> tentative level ([None] = not opened), Dvfs_aware only *)
  committed : (int, Dvfs.level) Hashtbl.t option;  (** island -> level, commit mode *)
  scratch : Router.scratch;
  stats : Telemetry.t;
}
(** One placement attempt's working set.  Node arrays are indexed by
    node id and sized by {!node_slots}; island arrays by island id.
    Placers mutate the placement arrays, the MRRG, and [island_level];
    routers append to [routes] and reserve MRRG ports. *)

val node_slots : Graph.t -> int
(** Largest node id + 1: the length of every node-indexed array (ids
    may be sparse). *)

val is_placed : state -> int -> bool

val place : state -> int -> int -> int -> unit
(** [place state node tile time] records a placement (the caller has
    reserved the FU). *)

val placements : state -> (int * (int * int)) list
(** Every placed [(node, (tile, time))], in ascending node id. *)

val rank : Dvfs.level -> int
(** {!Cost.rank}, re-exported for backends' island bookkeeping. *)

val note_island : state -> int -> Dvfs.level -> unit
(** [note_island state island label] opens [island] at [label], or
    raises its tentative level to [label] when that is faster. *)

val edge_slack : state -> Graph.edge -> int
(** Loop-carried slack of an edge in cycles ([distance * II], plus two
    extra iterations for iteration-invariant [Const] producers). *)

val label_of : state -> int -> Dvfs.level

val busy_count : state -> int -> int

val tentative_level : state -> int -> Dvfs.level option

val tile_width : state -> int -> int
(** Commit-mode slot width of a tile (1 outside commit mode). *)

val committed_level : state -> int -> Dvfs.level option

val phase_penalty : state -> weight:int -> int -> int -> int

val route_extra_cost : state -> tile:int -> time:int -> int
(** Per-hop routing penalty from the DVFS cost model (unopened islands,
    phase misalignment). *)

val time_window : state -> int -> int -> int * int
(** [time_window state node tile] is [(est, lst)]: the earliest sound
    start honouring placed producers and the schedule estimate, and the
    latest start admissible for placed consumers ([max_int] = none). *)

val cheap_cost : state -> int -> int -> int -> int
(** Lower-bound cost of placing [node] at [(tile, time)]; orders full
    placement attempts without touching the router. *)

val route_incident : state -> int -> int -> int ->
  (Mapping.route list, string) result
(** Route every dependence between a node just placed at [(tile, time)]
    and its already-placed neighbours, reserving MRRG ports; on failure
    every reservation made by this call is rolled back. *)

val reserve_fu : state -> int -> int -> int -> (unit, string) result
(** [reserve_fu state node tile time] claims the FU slot(s) for [node]
    (commit-mode width-aware), rolling back on conflict. *)

val release_fu : state -> int -> int -> unit
(** Release an FU claim made by {!reserve_fu} (same tile/time). *)

val rebuild_island_levels : state -> unit
(** Recompute tentative island levels from the current (complete)
    placement; idempotent, deterministic. *)

val all_deps : state -> Graph.edge list
(** Every DFG edge in one deterministic order (ascending producer id,
    then successor-edge order). *)

val route_complete : state -> (unit, string) result
(** Route a complete placement edge-by-edge with the incremental
    Dijkstra router (no congestion negotiation). *)
