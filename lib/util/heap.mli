(** Mutable binary min-heap of int payloads keyed by int priority.

    Entries live in two parallel int arrays, so pushing allocates
    nothing once the arrays are large enough, and {!clear} keeps them
    for reuse.  This is the Dijkstra frontier of [Iced_mapper.Router].

    Equal priorities pop in the order the sift discipline leaves them
    (strict [<] on priority, left child probed first), not in push
    order.  The router's choice among equal-cost paths depends on that
    order; the util test "heap tie order" pins it. *)

type t

val create : unit -> t
(** Empty heap; its arrays grow on demand. *)

val clear : t -> unit
(** Forget every entry in O(1), keeping the arrays. *)

val push : t -> int -> int -> unit
(** [push h priority payload]. *)

val min_priority : t -> int
(** Priority of the entry {!pop} would remove next.
    @raise Invalid_argument on an empty heap. *)

val pop : t -> int
(** Remove the minimum-priority entry and return its payload; read
    {!min_priority} first for its priority.
    @raise Invalid_argument on an empty heap. *)

val is_empty : t -> bool

val size : t -> int
