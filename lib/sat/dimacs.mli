(** Minimal DIMACS CNF reader, for tests and ad-hoc solver input. *)

val parse : string -> (Solver.t * int, string) result
(** Parse DIMACS CNF text ([c] comments, optional [p cnf V C] header,
    zero-terminated clauses).  Returns a loaded solver and the variable
    count.  DIMACS variable [i] is solver variable [i - 1].  Never
    raises on malformed text: a bad header or token, an unterminated
    clause, a literal whose magnitude has no solver literal ([min_int],
    or past [max_int / 2 + 1]) and a variable beyond the header's
    declared count are all [Error]s.  Without a header the variable
    count is the largest variable used. *)
