(** CGRA partitioning for streaming applications (paper Section IV-B).

    Kernels are mapped at island granularity: every pipeline instance
    gets at least one island, all islands are allocated, and the
    partition minimizing the profiled bottleneck stage time is chosen
    by exhaustive search over island compositions — the paper's offline
    exhaustive exploration over candidate partitions, using the first
    50 inputs as the profile.

    Streaming kernel mappings use the [Relax] label floor: island
    levels must keep downward headroom because the runtime lowers
    non-bottleneck kernels one level at a time (rest is reached only
    through runtime adjustment). *)

open Iced_arch
open Iced_mapper

type candidate = private {
  islands : int;  (** island count this mapping was built for *)
  mapping : Mapping.t;  (** the mapping achieved at that count *)
  tile_activity : float list;
      (** each tile's base activity, its distinct busy slots / II, in
          [mapping.tiles] order *)
  sram_activity : float;  (** {!Iced_sim.Metrics.sram_activity} of [mapping] *)
}
(** One pre-compiled (island count, mapping) option for an instance,
    priced once.  A mapping only changes on recovery, so the runner
    reads the two activities here for every input, scaled by the
    kernel's duty cycle, instead of re-deriving them from the mapping.
    The record is private: {!candidate} is its one constructor, which
    keeps the activities in step with the mapping. *)

val candidate : islands:int -> Mapping.t -> candidate
(** The candidate of [mapping] built for [islands] islands, with its
    tile and SRAM activities computed from the mapping (the
    [busy_slots] of {!Iced_sim.Metrics.per_tile} over the II, and
    {!Iced_sim.Metrics.sram_activity}). *)

type prepared_instance = {
  instance : Pipeline.instance;
  candidates : candidate list;  (** one per feasible island count *)
}
(** An instance with every mapping the allocator may pick from. *)

type t = {
  cgra : Cgra.t;
  pipeline : Pipeline.t;
  prepared : prepared_instance list;
  allocation : (string * int) list;  (** instance label -> island count *)
  island_ids : (string * int list) list;
      (** instance label -> the concrete islands it owns (the
          controller's mapTable) *)
  level_floors : (string * Dvfs.level) list;
      (** compile-time DVFS eligibility per instance (the paper's
          normal-or-relax allocation): the lowest level the runtime may
          set, derived from each kernel's profiled worst-case share of
          the bottleneck *)
}
(** A chosen partition: the prepared mappings plus the island
    allocation the exhaustive search settled on. *)

val candidate_for : prepared_instance -> int -> candidate option
(** The mapping prepared for a given island count, [None] when the
    instance could not map at that count. *)

val ii_for : t -> string -> int -> int
(** II of an instance when given [count] islands; [max_int] when no
    mapping exists at that count.  @raise Not_found on unknown label. *)

val allocated : t -> string -> candidate
(** The candidate selected by the chosen allocation. *)

val prepare :
  ?max_islands_per_kernel:int ->
  Cgra.t ->
  Pipeline.t ->
  profile:Pipeline.input list ->
  (t, string) result
(** Map every instance for every feasible island count, then pick the
    composition of all islands minimizing the mean profiled bottleneck.
    Fails when the pipeline has more instances than the fabric has
    islands, or when some instance cannot map at any count. *)
