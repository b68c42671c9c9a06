(** A small, deterministic CDCL SAT solver.

    Pure OCaml, no dependencies: two-watched-literal propagation, 1-UIP
    conflict analysis with clause learning, VSIDS-style variable
    activities with exponential decay, Luby-sequence restarts, and
    phase saving.  Everything is deterministic: given the same clauses
    (added in the same order), the same [seed] and the same conflict
    budget, the solver visits the same search tree and returns the same
    model with the same statistics — the property the exact-mapping
    oracle's byte-identical [--json] output rests on.
    [test/golden/sat_golden.txt] pins that search (outcomes, counters
    and models on the oracle's encodings, pigeonhole and seeded random
    CNFs), so a change to the solver's storage must reproduce it.

    Storage is flat: clauses of three or more literals sit in one
    growable int arena (a size, then the literals), and per-literal
    watch lists are int arrays.  A binary clause never moves its
    watches, so it lives only in its two watch entries, each holding
    the other literal, and a literal it propagates has that other
    literal as its reason.  A watch list is visited from its most
    recently added entry, and the entries a visit keeps are re-added
    in visit order; this watch order fixes the propagation order, and
    so the trail, the conflicts and the learned clauses.  Propagation
    and conflict analysis allocate nothing once the arrays have grown.

    The solver is incremental in the simplest useful sense: after a
    [Sat] answer the caller may read the model and then [add_clause] a
    blocking clause and [solve] again (adding a clause cancels all
    decisions first, so read the model {e before} adding). *)

type t

type lit = int
(** A literal is [2 * var] (positive) or [2 * var + 1] (negated). *)

type outcome = Sat | Unsat | Unknown
(** [Unknown] means the conflict budget ran out; the solver stays
    usable (state is rewound to decision level 0). *)

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learned : int;  (** learned clauses currently retained *)
}

val create : unit -> t

val new_var : t -> int
(** Fresh variable id, consecutive from 0. *)

val var_count : t -> int
val clause_count : t -> int
(** Problem (non-learned) clauses retained after level-0 simplification. *)

val pos : int -> lit
val neg : int -> lit
val negate : lit -> lit
val var_of : lit -> int

val add_clause : t -> lit list -> unit
(** Add a clause.  Performed at decision level 0: satisfied clauses and
    tautologies are dropped, false literals removed, units propagated
    immediately.  An empty (or immediately contradictory) clause marks
    the instance unsatisfiable; later [solve] calls return [Unsat].
    @raise Invalid_argument on a literal whose variable {!new_var} has
    not returned (unless the instance is already unsatisfiable). *)

val solve : ?budget:int -> ?seed:int -> t -> outcome
(** Search for a model.  [budget] (default unlimited) bounds the number
    of conflicts for this call; on exhaustion the answer is [Unknown].
    [seed] (default 0) fixes the initial phase of variables that have
    never been assigned; saved phases from earlier calls persist. *)

val value : t -> int -> bool
(** Model value of a variable; only meaningful right after [Sat], before
    any further [add_clause]/[solve].  Variables in no clause are
    assigned their seeded initial phase. *)

val stats : t -> stats
(** Cumulative over the solver's lifetime (all [solve] calls). *)
