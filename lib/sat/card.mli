(** Cardinality constraints over literals, clausified onto a solver.

    Auxiliary variables are allocated with {!Solver.new_var} in a
    deterministic order, so encodings are reproducible across runs. *)

val at_most_one : Solver.t -> Solver.lit list -> unit
(** Pairwise for up to 4 literals, sequential (ladder) encoding above
    that: 3n-ish clauses and n-1 auxiliary variables instead of n². *)

val exactly_one : Solver.t -> Solver.lit list -> unit

val at_most_k : Solver.t -> k:int -> Solver.lit list -> unit
(** Sinz sequential-counter encoding: O(n·k) clauses and auxiliaries.
    [k = 0] degenerates to unit negations; [k >= n] adds nothing. *)
