(** Modulo Routing Resource Graph (MRRG).

    A time-space unrolling of the CGRA over one initiation interval:
    each tile contributes, per modulo time slot, one functional-unit
    resource and one output port per mesh direction.  A modulo schedule
    is valid iff no resource is claimed twice (Mei et al., the MRRG
    formulation the paper builds on).

    Times handed to this module are absolute schedule cycles; occupancy
    is recorded at [time mod ii].  The structure is mutable — the mapper
    claims and releases resources while searching — and cheap to rebuild
    when the II is bumped (Algorithm 2, line 26). *)

open Iced_arch

type resource =
  | Fu  (** the tile's functional unit *)
  | Port of Dir.t  (** crossbar output port toward a neighbour *)

type occupant =
  | Op_node of int  (** DFG node id computing on the FU *)
  | Route of { src : int; dst : int }
      (** data of DFG edge src->dst passing through (consumes a port,
          and counts as crossbar activity for utilization) *)

type t

val create : ?tiles:int list -> ?dead_links:(int * Dir.t) list -> Cgra.t -> ii:int -> t
(** Fresh, empty MRRG.  [tiles] restricts placement and routing to a
    sub-fabric (streaming partitions); defaults to every tile.
    [dead_links] masks faulted crossbar output ports: the named (tile,
    direction) ports are never free and can never be reserved, so the
    router plans around them (the fault-injection subsystem's resource
    masking).
    @raise Invalid_argument if [ii <= 0], [tiles] contains an unknown
    id, or a dead link names an unknown tile. *)

val cgra : t -> Cgra.t
val ii : t -> int

val allowed : t -> int -> bool
(** Whether a tile belongs to the sub-fabric. *)

val allowed_tiles : t -> int list

val slot : t -> int -> int
(** [time mod ii] (time may be any non-negative absolute cycle). *)

val occupant : t -> tile:int -> time:int -> resource -> occupant option

val is_free : t -> tile:int -> time:int -> resource -> bool

val reserve : t -> tile:int -> time:int -> resource -> occupant -> (unit, string) result
(** Claim a resource; reports the holder on conflict.  Reserving a
    route on a port already routing the {e same} DFG edge succeeds
    idempotently (a value fanning out shares its wire). *)

val release : t -> tile:int -> time:int -> resource -> unit

val busy : t -> tile:int -> (int * resource * occupant) list
(** Every claimed (slot, resource, occupant) on a tile, slot-ordered. *)

val busy_slots : t -> tile:int -> int list
(** Distinct modulo slots with any activity on the tile (FU or
    crossbar) — the paper's utilization numerator. *)

val busy_slot_count : t -> tile:int -> int
(** [List.length (busy_slots t ~tile)] in O(1) — the placer's packing
    and capacity terms poll this once per candidate. *)

type phase = [ `Broken | `Empty | `Phase of int ]

val island_phase : t -> island:int -> modulo:int -> phase
(** The clock phase (mod [modulo]) every busy slot of the island's
    tiles agrees on: [`Empty] when no tile has activity, [`Phase p]
    when all busy slots fall on phase [p], [`Broken] on disagreement.
    Disallowed tiles are skipped.  The DVFS-aware placer's
    phase-alignment query, asked on every priced routing hop: the
    answer is cached per (island, modulo) until a {!reserve} or
    {!release} turns one of the island's slots busy or idle, so an
    unchanged island is scanned at most once per modulo and a repeat
    query allocates nothing.
    @raise Invalid_argument on an unknown island or [modulo <= 0]. *)

val tile_is_idle : t -> int -> bool

val clone : t -> t
(** Deep copy of the occupancy and the phase cache (for what-if
    placement trials). *)

val pp : Format.formatter -> t -> unit
(** Occupancy dump: one line per busy resource. *)
