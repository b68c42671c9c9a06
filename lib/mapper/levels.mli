(** Post-mapping DVFS level assignment for islands.

    Given a complete modulo schedule, decide the final level of every
    island soundly:

    - an island with no scheduled activity is power-gated;
    - an island may run at period multiplier m (2 = relax, 4 = rest)
      only if m divides the II, every scheduled event on the island
      (FU executions and route hops) falls on a single clock phase
      modulo m, and slowing the island keeps every recurrence cycle
      within its II budget (effective cycle latency, with per-event
      multipliers, at most II * distance) — so the initiation interval
      is preserved and only pipeline-fill latency grows (paper
      Section II-B);
    - otherwise it runs at [Normal].

    Because the 1x1-island configuration models the per-tile DVFS
    baseline, the same pass produces both ICED's per-island levels and
    the UE-CGRA-style per-tile levels. *)

open Iced_arch

val legal : Mapping.t -> (int * Dvfs.level) list -> bool
(** Whether a complete per-island level assignment is sound for the
    mapping (the conditions above).  An event on a tile off the fabric
    belongs to no island: it counts at the base clock in its cycle's
    latency, so a malformed mapping gets an answer, not an
    exception. *)

val assign : ?floor:Dvfs.level -> ?allow_gating:bool -> Mapping.t -> Mapping.t
(** Greedily lower each island to the slowest sound level, slower
    levels first, least-busy islands first.  [floor] (default [Rest])
    bounds how low an {e active} island may go; [allow_gating]
    (default true) controls whether idle islands are power-gated
    rather than kept at [floor] (streaming kernels keep their islands
    clocked).  The result's [island_levels] covers every island.  The
    mapping's per-island event times and per-cycle event islands are
    derived once per call; each trial only looks levels up. *)

val all_normal : Mapping.t -> Mapping.t
(** The no-DVFS baseline: every island at [Normal]. *)

val normal_with_gating : Mapping.t -> Mapping.t
(** The "baseline + power-gating" design point: idle islands gated,
    active islands at [Normal]. *)
