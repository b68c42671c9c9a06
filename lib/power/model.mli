(** Power, energy, and area model — Equations 2-4 of the paper.

    P(tile)   = (C_clk + C * activity) * V(tile)^2 * f(tile) + P_static(tile)
    P_nontile = P_SRAM + sum of DVFS-controller overheads
    Energy    = (sum P(tile) + P_nontile) * ExecTime

    Activity is the fraction of the tile's {e local} clock cycles with
    FU or crossbar work — the same quantity the utilization figures
    report — so a slowed tile's dynamic power falls both through V^2*f
    and, indirectly, because its work occupies more of its (slower)
    cycles at unchanged throughput. *)

open Iced_arch

(** Which design point is being evaluated — determines the DVFS
    hardware overhead that is charged (Figure 11's four bars). *)
type design =
  | Baseline  (** conventional CGRA: no DVFS hardware at all *)
  | Baseline_gated  (** conventional CGRA with power-gating only *)
  | Per_tile_dvfs  (** UE-CGRA-style: one controller per tile *)
  | Iced  (** one controller per island *)

type tile_state = {
  level : Dvfs.level;
  activity : float;  (** busy fraction of local cycles, in [0, 1] *)
}

val controller_count : design -> Cgra.t -> int
(** Number of DVFS controllers the design instantiates on the given
    fabric: 0 for the baselines, one per tile for per-tile DVFS, one
    per island for ICED — the multiplier on the per-controller
    overhead terms in {!Params.controller}. *)

val tile_power_mw : Params.t -> tile_state -> float
(** Eq. 2 for one tile. *)

val sram_power_mw : Params.t -> activity:float -> float
(** SPM leakage plus access-scaled dynamic power; [activity] is memory
    operations per cycle per bank, in [0, 1]. *)

val overhead_power_mw : Params.t -> design -> Cgra.t -> float
(** Sum of DVFS-controller power for the design point. *)

val total_power_mw :
  Params.t -> design -> Cgra.t -> tiles:tile_state list -> sram_activity:float -> float
(** Eq. 3 + the tile sum: full-chip average power. *)

val exec_time_us : Params.t -> cycles:int -> float
(** Wall time of [cycles] base-clock cycles at nominal frequency. *)

val energy_uj :
  Params.t -> design -> Cgra.t -> tiles:tile_state list -> sram_activity:float ->
  cycles:int -> float
(** Eq. 4: average power times execution time, in microjoules. *)

val area_mm2 : Params.t -> design -> Cgra.t -> (string * float) list
(** Component-level area breakdown (tiles, DVFS support, SRAM) with a
    ["total"] entry, reproducing Figure 8's breakdown for [Iced] on the
    6x6 fabric. *)

val power_breakdown_mw :
  Params.t -> design -> Cgra.t -> tiles:tile_state list -> sram_activity:float ->
  (string * float) list
(** Component-level power breakdown with a ["total"] entry. *)
