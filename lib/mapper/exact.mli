(** The exact minimal-II oracle for small DFGs.

    The paper contrasts its two-step heuristic against ILP-based
    mapping (CGRA-ME), which finds optimal IIs but takes hours.
    {!certify} plays that reference role with SAT.  It first maps the
    graph once with the default backend ({!Mapper.map}, the [iced]
    point's mapper): a mapping that passes {!Validate.check} at II [k]
    is a witness there, so no CNF is built at [k] or above.  Every II
    from the lower bound max(RecMII, ResMII) up to [k - 1] (up to
    [max_ii] when the heuristic maps nothing) then goes to SAT:
    certify clausifies the {!Encode} relaxation, runs the {!Iced_sat}
    CDCL solver under a conflict budget, routes each model with the
    real {!Router} (blocking unroutable placements, CEGAR-style), and
    stops at the first model that routes and validates.  Each such II
    is tried first over {!Encode.Narrow} windows, which only look for
    a witness, and, unless one routes and validates, over
    {!Encode.Wide} windows, whose outcome is final.  An [Unsat]
    answer of the wide CNF is a proof of infeasibility at that II, so
    [Optimal] verdicts are certificates: the tests check the wide
    CNF's soundness by assuming every backend mapping and witness into
    it ({!Encode.assume}).

    The {!verdict} is [Optimal] only when every lower II was refuted
    outright, by the lower bound or by the wide CNF; if any lower II
    ran out of budget the answer is [Unknown] carrying the first such
    II, never a spurious [Optimal].  A heuristic mapping at the lower
    bound is therefore [Optimal] with no CNF built at all. *)

open Iced_arch
open Iced_dfg

type verdict =
  | Optimal of int
      (** the smallest feasible II: every lower II is refuted, those
          below [start_ii] by the lower bound and the rest by the wide
          CNF *)
  | Infeasible
      (** every II from [start_ii] up to [max_ii] refuted.  It is
          vacuous, with [per_ii = []], no mapper run and no solver
          work, in two cases: when [start_ii > max_ii] no II is tried,
          and the verdict says only that [max_ii] lies below the lower
          bound; and when the graph is empty or fails
          {!val:Graph.validate}, there is nothing to map *)
  | Unknown of { first_undecided : int; feasible_at : int option }
      (** the budget ran out at II [first_undecided] before deciding
          it; [feasible_at] is the smallest II above it where a mapping
          {e was} found (so the optimum lies in
          [[first_undecided, feasible_at]]), or [None] if the search
          also ran out of [max_ii] without finding one *)

type ii_outcome =
  | Ii_feasible
      (** a mapping was found, routed and validated, by SAT or by the
          default backend *)
  | Ii_refuted  (** proven infeasible at this II *)
  | Ii_budget  (** undecided: the search budget ran out *)

type report = {
  verdict : verdict;
  witness : Mapping.t option;
      (** present iff [verdict = Optimal]; passes {!Validate.check}.
          It is the default backend's mapping when that maps at the
          optimum, a SAT model's otherwise *)
  per_ii : (int * ii_outcome) list;  (** ascending II, one per attempt *)
  start_ii : int;  (** [Analysis.min_ii], where iteration began *)
  max_ii : int;
  conflicts : int;  (** CDCL conflicts, summed over all IIs *)
  decisions : int;
  propagations : int;
  restarts : int;
  route_blocks : int;
      (** models whose placements the router could not realize and
          that were blocked before re-solving (CEGAR refinements) *)
  vars : int;  (** variables of the largest encoding built *)
  clauses : int;  (** problem clauses of the largest encoding built *)
}
(** The solver counters and [route_blocks] are summed over both stages
    of every II decided with SAT; [vars] and [clauses] are a maximum
    over all the encodings built, so all are zero when the default
    backend maps at [start_ii]. *)

val certify :
  ?max_ii:int ->
  ?budget_conflicts:int ->
  ?seed:int ->
  ?stats:Telemetry.t ->
  Cgra.t ->
  Graph.t ->
  report
(** SAT-backed certification.  [max_ii] defaults to 16;
    [budget_conflicts] (CDCL conflicts per II and stage, shared by
    that stage's CEGAR rounds: the wide stage gets the whole budget
    again whatever the narrow one spent) defaults to 100_000; [seed]
    (default 0) fixes solver phases in both stages.  The
    whole run is deterministic: same DFG, fabric, budget and seed give
    the identical report.  When [stats] is given, the default
    backend's mapper telemetry (attempts, placements, routes, per-II
    times), the solver counters ([sat_conflicts] and friends) and
    router telemetry from witness construction are merged into it;
    its [wall_s] grows by certify's whole wall time, the mapper run
    included once. *)
