(** The result of mapping a DFG onto a CGRA: a modulo schedule.

    Times are absolute cycles of iteration 0; the value produced by
    node [n] in iteration [i] appears at time [time n + i * ii].  A
    route for edge u->v is an ordered list of hops; hop [h] occupies the
    output port of [h.tile] toward [h.dir] at slot [h.time mod ii].

    Timing convention (used consistently by the router, validator, and
    simulator):
    - an op executing at cycle [t] reads operands present at its tile at
      the {e start} of [t] and produces its result at the {e end} of [t];
    - a hop at cycle [t] moves a value that was at the source tile at
      the end of [t-1] to the destination tile at the end of [t];
    - hence a dependence u->v with distance d and hops at times
      [t1 < ... < th] requires [t1 >= time u + 1] and
      [th <= time v + d * ii - 1] (or, hopless,
      [time v + d * ii >= time u + 1]). *)

open Iced_arch
open Iced_dfg

type hop = { tile : int; dir : Dir.t; time : int }

type route = { edge : Graph.edge; hops : hop list }

type t = {
  dfg : Graph.t;
  cgra : Cgra.t;
  ii : int;
  tiles : int list;  (** sub-fabric the kernel was confined to *)
  memory_tiles : int list;  (** tiles allowed to execute Load/Store *)
  placements : (int * (int * int)) list;  (** node id -> (tile, time) *)
  routes : route list;
  labels : (int * Dvfs.level) list;  (** Algorithm 1 labels per node *)
  island_levels : (int * Dvfs.level) list;
      (** island id -> assigned level; every island of the fabric
          appears (unused islands are [Power_gated]) *)
}

val edge_slack : Graph.t -> ii:int -> Graph.edge -> int
(** Cycles a dependence's consumer may read after its producer's
    iteration-0 result: [distance * ii], plus two periods when the
    producer is a [Const].  Constants are iteration-invariant, so the
    consumer may read a copy produced two iterations earlier (the
    simulator reads constants directly).  The mapper, router deadlines,
    the exact oracle, the SAT encoding and {!Validate} all use this
    one rule. *)

val placement : t -> int -> int * int
(** (tile, time) of a node.  @raise Not_found for unplaced ids. *)

val tile_of_node : t -> int -> int

val label : t -> int -> Dvfs.level
(** Algorithm 1 label of a node (defaults to [Normal] if absent). *)

val level_of_island : t -> int -> Dvfs.level
(** Assigned level of an island ([Normal] before level assignment). *)

val level_of_tile : t -> int -> Dvfs.level
(** Level of the island containing a tile. *)

val with_levels : t -> (int * Dvfs.level) list -> t

val route_of_edge : t -> Graph.edge -> route option

val events_of_tile : t -> int -> (int * [ `Fu of int | `Hop of Graph.edge ]) list
(** Every scheduled event on a tile as (absolute time, what): FU
    executions of placed nodes and route hops leaving the tile.  This
    is the input to DVFS legality and utilization. *)

val busy_slots_of_tile : t -> int -> int list
(** Distinct modulo slots with activity, from [events_of_tile]. *)

val used_tiles : t -> int list
(** Tiles with at least one event. *)

val to_mrrg : t -> (Iced_mrrg.Mrrg.t, string) result
(** Rebuild the occupancy from placements and routes; [Error] reports
    the first double-booking (used by the validator). *)

val pp : Format.formatter -> t -> unit
(** Human-readable schedule: per-tile timeline plus island levels. *)
