(** Minimal DIMACS CNF reader, for tests and ad-hoc solver input. *)

val max_vars : int
(** The largest variable {!parse} accepts, 2^20 (22 times the 47,861
    variables of the largest exact-oracle encoding).  Every variable up
    to the largest one named is created, so this bounds what a parse
    allocates. *)

val parse : string -> (Solver.t * int, string) result
(** Parse DIMACS CNF text ([c] comments, optional [p cnf V C] header,
    zero-terminated clauses).  Returns a loaded solver and the variable
    count.  DIMACS variable [i] is solver variable [i - 1].  Never
    raises on malformed text: a bad header or token, an unterminated
    clause, a header above {!max_vars}, a literal whose magnitude is 0
    ([min_int]) or above {!max_vars}, and a variable beyond the
    header's declared count are all [Error]s.  Without a header the
    variable count is the largest variable used. *)
