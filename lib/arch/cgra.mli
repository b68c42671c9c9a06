(** CGRA fabric geometry: a [rows] x [cols] mesh of tiles clustered into
    DVFS islands.

    Tiles are numbered row-major from 0 at the north-west corner.  Every
    tile holds single-cycle FUs, a register file, configuration memory,
    and a crossbar to its four mesh neighbours; tiles in column 0
    additionally own a port into the data scratchpad (SPM), so [Load]
    and [Store] operations must map there (paper Figure 1: "only the
    leftmost tiles are connected to the scratchpad memory").

    Islands tile the mesh in [island_rows] x [island_cols] blocks,
    numbered row-major over the island grid.  When the island shape does
    not divide the mesh (e.g. 3x3 islands on an 8x8 CGRA), edge islands
    are smaller — the "irregular island shape" case the paper notes in
    Figure 4.  An island size of 1x1 models the per-tile DVFS baseline
    (UE-CGRA style); an island equal to the whole fabric models global
    DVFS. *)

type t = private {
  rows : int;
  cols : int;
  island_rows : int;
  island_cols : int;
  spm_banks : int;
  spm_kbytes : int;
}

val make : ?island:int * int -> ?spm_banks:int -> ?spm_kbytes:int -> rows:int -> cols:int -> unit -> t
(** Build a fabric.  [island] defaults to [(2, 2)] (the ICED
    prototype); [spm_banks] to 8; [spm_kbytes] to 32.
    @raise Invalid_argument on non-positive dimensions or island larger
    than the fabric. *)

val iced_6x6 : t
(** The paper's prototype: 6x6 tiles, nine 2x2 islands, 32 KB / 8-bank
    SPM. *)

val per_tile : t -> t
(** Same fabric with 1x1 islands (the per-tile DVFS baseline). *)

val with_island : t -> int * int -> t
(** Same fabric with a different island shape. *)

val tile_count : t -> int

val tile_id : t -> row:int -> col:int -> int
(** @raise Invalid_argument when out of bounds. *)

val position : t -> int -> int * int
(** (row, col) of a tile id.  @raise Invalid_argument when out of
    bounds. *)

val neighbor : t -> int -> Dir.t -> int option
(** Mesh neighbour in a direction, or [None] at the fabric edge. *)

val neighbors : t -> int -> (Dir.t * int) list

val has_memory_port : t -> int -> bool
(** Column-0 tiles reach the SPM. *)

val memory_tiles : t -> int list

val manhattan : t -> int -> int -> int
(** Hop distance between two tiles. *)

val island_count : t -> int

val island_of : t -> int -> int
(** Island id of a tile. *)

val island_tiles : t -> int -> int list
(** Tiles of an island, in increasing id order.
    @raise Invalid_argument on an unknown island. *)

val islands : t -> int list
(** All island ids. *)

type geometry = private {
  row : int array;  (** tile -> row *)
  col : int array;  (** tile -> column *)
  island : int array;  (** tile -> {!island_of} *)
  neighbor : int array;
      (** [(4 * tile) + Dir.index d] -> the {!neighbor} of the tile in
          direction [d], or [-1] at the fabric edge; a tile's four cells
          follow {!Dir.all}, the order of {!neighbors} *)
}
(** Per-tile lookup tables of one fabric, so that a hot loop reads a
    tile's row, column, island and neighbours instead of dividing its id
    by the fabric's sides.  The mapper builds them once per mapping run
    (in its routing arena) and its per-move and per-hop paths read
    only these; {!position}, {!manhattan}, {!island_of} and
    {!neighbors} stay the arithmetic reference the tables equal.
    Nothing writes them once built, so domains may share them. *)

val geometry : t -> geometry
(** Build the tables of a fabric, [O(tile_count)]. *)

val hops : geometry -> int -> int -> int
(** {!manhattan} read from the tables, without its bounds message: an
    id off the fabric raises [Invalid_argument "index out of bounds"]. *)

val restrict : t -> islands:int list -> int list
(** Tiles belonging to the given islands — the sub-fabric a streaming
    kernel is confined to. *)

val pp : Format.formatter -> t -> unit
