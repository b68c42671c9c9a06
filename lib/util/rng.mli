(** Deterministic splittable pseudo-random number generator.

    Every experiment in this repository is seeded explicitly so that
    benchmark tables are reproducible run-to-run.  The implementation is
    a 64-bit SplitMix64 generator: tiny, fast, and of adequate quality
    for workload synthesis (it is not used for cryptography). *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds
    produce equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Splitting lets sub-experiments draw from disjoint streams without
    coordinating how many values each consumes. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)].  [bound]
    must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws a uniform integer in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] draws a uniform float in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val choose : t -> 'a list -> 'a
(** Uniform draw from a non-empty list.  @raise Invalid_argument on []. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher-Yates shuffle. *)
