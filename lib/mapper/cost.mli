(** Placement cost model: the weights and ladders Algorithm 2's greedy
    search minimizes, factored out so the search code (see {!Mapper})
    carries no magic numbers. *)

type strategy =
  | Conventional  (** utilization-oblivious baseline: balance load *)
  | Dvfs_aware  (** ICED: pack, respect labels, keep islands closable *)

type knobs = {
  island_affinity : bool;
      (** prefer islands whose tentative level matches the node label *)
  packing : bool;  (** pull slowable nodes onto busy tiles *)
  phase_alignment : bool;
      (** keep slowed islands' events on one clock phase *)
  conventional_fallback : bool;
      (** retry an II with the conventional cost model before bumping *)
}
(** Ablation switches for the DVFS-aware cost model (the bench's
    ablation study disables them one at a time). *)

val all_knobs : knobs
(** Every feature on — the production configuration. *)

(** {2 Placement/routing cost weights}

    Routing dominates ({!Router.hop_cost} per hop); DVFS terms bias
    island choice.  The tuned production weights: *)

val wait : int
(** per slack cycle a value idles in bypass buffers *)

val over_provision : int
(** per level of island speed surplus over the node's label *)

val open_island : int
(** placing onto an island nothing uses yet *)

val island_raise : int
(** forcing an opened island above its tentative level *)

val pack : int
(** discount per busy slot for packable nodes *)

val spread : int
(** conventional load-balance pressure per busy slot *)

val phase : int
(** placement off a slowed island's clock phase *)

val route_misphase : int
(** route hop off a slowed island's phase *)

val route_open_island : int
(** route hop through an unopened island *)

val asap_margins : int list
(** Congestion-slack ladder for the schedule estimates: each II is
    attempted with every margin before the II is bumped. *)

val committed_margins : int list
(** Roomier ladder for committed-island mappings, whose rest-labeled
    chains run far behind the estimates. *)
