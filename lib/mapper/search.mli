(** The mapping search: the II / margin / cost-model ladder
    (Algorithm 2's loop), orchestrating whichever placer/router pair
    the request's {!Backend.t} selects over a shared {!Engine.state}
    per attempt.  Use it through the {!Mapper} façade — its [request]
    and [stats] types are equations onto {!Engine} and {!Telemetry}. *)

open Iced_arch
open Iced_dfg

type strategy = Cost.strategy = Conventional | Dvfs_aware

type knobs = Cost.knobs = {
  island_affinity : bool;
  packing : bool;
  phase_alignment : bool;
  conventional_fallback : bool;
}

type request = Engine.request = {
  cgra : Cgra.t;
  strategy : strategy;
  backend : Backend.t;
  tiles : int list option;
  memory_tiles : int list option;
  label_floor : Dvfs.level;
  label_guard : int;
  max_ii : int;
  knobs : knobs;
  cancel : unit -> bool;
  dead_tiles : int list;
  dead_links : (int * Dir.t) list;
  commit_islands : bool;
}
(** See {!Mapper.request} for field documentation. *)

val request : ?strategy:strategy -> ?backend:Backend.t -> ?tiles:int list ->
  ?memory_tiles:int list -> ?label_floor:Dvfs.level -> ?label_guard:int ->
  ?max_ii:int -> ?knobs:knobs -> ?cancel:(unit -> bool) -> ?dead_tiles:int list ->
  ?dead_links:(int * Dir.t) list -> ?commit_islands:bool ->
  Cgra.t -> request

val run :
  ?stats:Telemetry.t ->
  ?recurrences:Analysis.recurrences ->
  request ->
  Graph.t ->
  (Mapping.t, string) result
(** One full mapping search: II ladder from max(RecMII, ResMII) up to
    [max_ii], every congestion margin (and, for [Dvfs_aware], the
    conventional-fallback retry) per II.  A single routing scratch
    arena is reused across the entire search, and so is everything that
    depends on the DFG alone: its recurrence structure
    ({!Analysis.recurrences}), the schedule estimate's per-DFG part and
    the placement order.  [recurrences] must be
    [Analysis.recurrences dfg]; a caller that already holds it passes
    it to skip the enumeration.  Telemetry is accumulated internally
    and merged into [stats] when given. *)

val attempt : request -> Graph.t -> ii:int -> margin:int -> Engine.state * int list
(** A fresh state for one attempt at [ii] and [margin] (from
    {!Cost.asap_margins} or {!Cost.committed_margins}), built as {!run}
    builds each attempt's: labels, committed islands, schedule estimate
    and an empty MRRG, with nothing placed.  Returned with the
    placement order, so a placer can be driven node by node.
    @raise Invalid_argument on an invalid DFG or an empty tile set. *)
