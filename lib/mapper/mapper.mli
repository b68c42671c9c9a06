(** Algorithm 2 of the paper: heuristic DVFS-aware modulo mapping.

    Starting from II = max(RecMII, ResMII), the mapper places nodes in
    topological order onto the MRRG, routing every incident dependence
    with Dijkstra as it goes, and bumps the II on failure (paper
    Algorithm 2, line 26).  Each II is tried with every congestion
    margin and, for [Dvfs_aware], the conventional-fallback retry,
    running whichever placer/router pair the request's {!Backend.t}
    selects over a fresh {!Engine.state} per attempt.

    The search is layered: {!Cost} holds the weights and ladders,
    {!Estimate} the pre-placement schedule guesses, {!Engine} the
    request, the attempt state and the placement helpers, and
    {!Telemetry} the counters.  The types below are equations onto
    those modules; their fields and constructors are documented there.

    Two placement-cost strategies are provided:

    - [Conventional]: the utilization-oblivious baseline — minimize
      routing cost and balance load across tiles.  This is the mapping
      the no-DVFS baseline and the per-tile DVFS design use (the paper's
      "naive per-tile mapping does not consider utilization").
    - [Dvfs_aware]: ICED's mapping — a node labeled at level L may only
      use an island whose tentatively-assigned level is at least L
      (Algorithm 2, line 17); islands are opened reluctantly; placing a
      node on an island faster than its label is penalized; dependent
      nodes pack into busy tiles so whole islands stay idle or slow. *)

open Iced_arch
open Iced_dfg

type strategy = Cost.strategy = Conventional | Dvfs_aware
type request = Engine.request

val request : ?strategy:strategy -> ?backend:Backend.t -> ?tiles:int list ->
  ?label_floor:Dvfs.level -> ?label_guard:int -> ?max_ii:int -> ?knobs:Cost.knobs ->
  ?cancel:(unit -> bool) -> ?dead_tiles:int list -> ?dead_links:(int * Dir.t) list ->
  ?commit_islands:bool -> Cgra.t -> request
(** {!val:Engine.request}, with its defaults. *)

type stats = Telemetry.t

val create_stats : unit -> stats
(** {!Telemetry.create}. *)

val merge_stats : into:stats -> stats -> unit
(** {!Telemetry.merge}: aggregate one run's counters into a
    campaign-wide sink. *)

val map : ?stats:stats -> request -> Graph.t -> (Mapping.t, string) result
(** Map a kernel: the II ladder from max(RecMII, ResMII) up to
    [max_ii].  One routing scratch arena is reused across the whole
    search, and so is everything that depends on the DFG alone: its
    recurrence structure ({!val:Analysis.recurrences}), the schedule
    estimate's per-DFG part and the placement order.  Memory ops go to
    the westmost column of the placement tiles.  The result carries
    Algorithm 1's labels and an all-[Normal] island assignment; apply
    {!Levels.assign} to lower the islands.  The result always passes
    {!Validate.check}.  When [stats] is given, the run's telemetry is
    merged into it. *)

val map_exn : ?stats:stats -> request -> Graph.t -> Mapping.t
(** @raise Failure when no mapping is found within [max_ii]. *)

val attempt : request -> Graph.t -> ii:int -> margin:int -> Engine.state * int list
(** A fresh state for one attempt at [ii] and [margin] (from
    {!Cost.asap_margins} or {!Cost.committed_margins}), built as {!map}
    builds each attempt's: labels, committed islands, schedule estimate
    and an empty MRRG, with nothing placed.  Returned with the
    placement order, so a placer can be driven node by node.
    @raise Invalid_argument on a DFG or request {!map} rejects before
    its first attempt (an invalid or empty DFG, an empty tile set). *)
