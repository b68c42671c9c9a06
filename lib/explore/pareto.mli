(** Pareto-frontier extraction over arbitrary objective vectors.

    Objectives follow a maximize convention: negate a metric to
    minimize it.  A candidate whose objective vector contains [nan]
    (e.g. a design point where no kernel mapped) neither dominates nor
    joins the frontier. *)

val dominates : objectives:('a -> float list) -> 'a -> 'a -> bool
(** [dominates ~objectives a b]: [a] is at least as good as [b] on
    every objective and strictly better on at least one. *)

val frontier : objectives:('a -> float list) -> 'a list -> 'a list
(** Candidates not dominated by any other, in input order.  Duplicate
    objective vectors all survive (none strictly dominates the other),
    so frontier membership is deterministic. *)

val throughput_energy_edp : Outcome.summary -> float list
(** The three-axis variant, adding minimized mean EDP. *)
