(** Seeded, deterministic fault models for the ICED fabric.

    ICED's whole premise is running islands near threshold (0.42 V
    Rest), where real silicon sees hard defects, regulator failures,
    and voltage-dependent transient timing upsets.  This module gives
    the reproduction a vocabulary for those faults and a deterministic
    way to schedule them against a streaming run:

    - a {b fault} is one of four kinds: a dead tile (permanent FU +
      crossbar failure), a broken crossbar output port, a whole-island
      regulator failure, or a transient timing-upset process on an
      island whose per-cycle rate rises as the island's DVFS level
      drops toward [Rest];
    - a {b plan} schedules fault injections at stream-input indices
      (input [k]'s events fire just before input [k] is consumed);
    - everything is derived from explicit integer seeds, so a fault
      campaign is reproducible run-to-run and byte-identical across
      worker counts (no wall-clock, no global RNG).

    The consumers are {!Iced_mrrg.Mrrg} / {!Iced_mapper.Mapper} (which
    accept masked tiles and links and remap around them) and
    [Iced_stream.Runner] (which applies a recovery policy when a plan
    fires mid-stream). *)

open Iced_arch

type kind =
  | Tile_dead of int  (** permanent tile failure: FU and crossbar gone *)
  | Link_broken of { tile : int; dir : Dir.t }
      (** one crossbar output port stuck; the tile otherwise works *)
  | Island_down of int  (** regulator failure: the whole island is off *)
  | Upsets of { island : int; rate : float }
      (** transient timing upsets on an island; [rate] is the
          per-kernel-cycle upset probability at [Rest] (see
          {!upset_rate}) *)

type kind_class = Tile | Link | Island | Upset
(** The four fault families, for selecting what a campaign injects. *)

type event = { at_input : int; fault : kind }
(** Injection scheduled just before stream input [at_input]. *)

type plan = private {
  seed : int;
  events : event list;  (** sorted by [at_input], stable *)
  by_input : event array;  (** [events] as an array, searched by {!events_at} *)
}
(** [seed] also feeds the upset draws during execution, so two plans
    with equal events but different seeds upset different inputs.
    Built only by {!make} (and {!none}), which keep the events sorted. *)

val none : plan
(** The empty plan: a fault-aware run under [none] must be
    byte-identical to a plain run. *)

val make : ?seed:int -> event list -> plan
(** Build a plan ([seed] defaults to 0); events are sorted by
    [at_input].  @raise Invalid_argument on a negative input index. *)

val is_empty : plan -> bool

val events_at : plan -> int -> kind list
(** Faults injected just before input [i] is consumed, in plan order:
    the events of [plan.events] whose [at_input] is [i].  A binary
    search over [by_input], so asking once per input of a stream costs
    [log faults] per input instead of a pass over the whole plan. *)

val permanent : kind -> bool
(** Tile, link, and regulator faults are permanent; upsets are not. *)

val island_of : Cgra.t -> kind -> int
(** The island a fault lands on. *)

val class_to_string : kind_class -> string
val class_of_string : string -> kind_class option
val kind_to_string : kind -> string
val pp_plan : Format.formatter -> plan -> unit

(* ------------------------------------------------------------------ *)
(* random plans *)

val random_events :
  seed:int ->
  cgra:Cgra.t ->
  inputs:int ->
  ?rate:float ->
  kinds:kind_class list ->
  count:int ->
  unit ->
  event list
(** [count] faults drawn uniformly over the requested [kinds], each
    landing on a uniform tile/link/island of [cgra] at a uniform input
    index in [\[1, inputs - 1\]].  [rate] (default 1e-3) parameterizes
    generated [Upsets].  Equal seeds give equal event lists.
    @raise Invalid_argument if [kinds] is empty, [inputs < 2], or
    [count < 0]. *)

val random_plan :
  seed:int ->
  cgra:Cgra.t ->
  inputs:int ->
  ?rate:float ->
  kinds:kind_class list ->
  count:int ->
  unit ->
  plan

(* ------------------------------------------------------------------ *)
(* the upset process *)

val upset_rate : rate:float -> Dvfs.level -> float
(** Per-cycle upset probability of an upset-afflicted island at a
    level: [rate] at [Rest], [rate /. 16.] at [Relax] (each 80 mV of
    extra supply margin suppresses upsets by 4x), and [0.] at [Normal]
    or when gated — full voltage margin clears voltage-induced upsets,
    which is exactly what the [Raise_level] recovery policy exploits. *)

val upset_probability : rate:float -> cycles:int -> float
(** [1 - (1 - rate)^cycles]: the probability at least one upset
    corrupts an input that keeps the island busy for [cycles] kernel
    cycles.  Clamped to [\[0, 1\]]. *)

val upset_draw : seed:int -> input:int -> salt:string -> float
(** Deterministic uniform draw in [\[0, 1)] for "did input [input] of
    kernel [salt] hit an upset?".  A pure function of its arguments —
    independent of worker count, evaluation order, and policy — so the
    same physical upsets strike no matter how the run recovers. *)
