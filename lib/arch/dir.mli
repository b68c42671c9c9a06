(** Mesh directions of the CGRA interconnect. *)

type t = North | South | East | West

val all : t list

val opposite : t -> t

val offset : t -> int * int
(** (row delta, col delta); North decreases the row index. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
external index : t -> int = "%identity"
(** Position in {!all}: North 0, South 1, East 2, West 3.  Router
    parent codes, MRRG and Pathfinder port slots and bitstream fields
    all number directions this way.  Constant constructors are the ints
    0..3 in declaration order, so the index is the identity; as an
    external it costs nothing at a call site in another module, which
    matters on the router's and the MRRG's per-hop paths. *)

val of_index : int -> t
(** Inverse of {!index}.
    @raise Invalid_argument outside 0..3. *)

val compare : t -> t -> int
(** Orders directions by {!index}. *)
