(** The mapping search: the II / margin / cost-model ladder
    (Algorithm 2's loop), orchestrating whichever placer/router pair
    the request's {!Backend.t} selects over a shared {!Engine.state}
    per attempt.  Use it through the {!Mapper} façade — its [request]
    and [stats] types are equations onto {!Engine} and {!Telemetry}. *)

open Iced_dfg

val run : ?stats:Telemetry.t -> Engine.request -> Graph.t -> (Mapping.t, string) result
(** One full mapping search: II ladder from max(RecMII, ResMII) up to
    [max_ii], every congestion margin (and, for [Dvfs_aware], the
    conventional-fallback retry) per II.  A single routing scratch
    arena is reused across the entire search, and so is everything that
    depends on the DFG alone: its recurrence structure
    ({!val:Analysis.recurrences}), the schedule estimate's per-DFG part
    and the placement order.  Telemetry is accumulated internally and
    merged into [stats] when given. *)

val attempt : Engine.request -> Graph.t -> ii:int -> margin:int -> Engine.state * int list
(** A fresh state for one attempt at [ii] and [margin] (from
    {!Cost.asap_margins} or {!Cost.committed_margins}), built as {!run}
    builds each attempt's: labels, committed islands, schedule estimate
    and an empty MRRG, with nothing placed.  Returned with the
    placement order, so a placer can be driven node by node.
    @raise Invalid_argument on an invalid DFG or an empty tile set. *)
