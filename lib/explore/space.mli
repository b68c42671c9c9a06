(** Declarative design-space specification and deterministic
    enumeration.

    A {!point} is one candidate ICED architecture plus the mapper knobs
    used to evaluate it: fabric dimensions, DVFS-island dimensions, SPM
    banking, the slowest active DVFS level the labeler may use (a
    proxy for the supported level subset: [Normal] alone, down to the
    full [Rest]/[Relax]/[Normal] ladder), the unroll factor, and the
    mapper's II cap.  A {!spec} is the cross product of per-axis
    candidate lists; {!enumerate} filters it down to valid points in a
    fixed canonical order, and {!sample} draws a deterministic subset
    via {!Iced_util.Rng}. *)

open Iced_arch

type point = {
  rows : int;
  cols : int;
  island_rows : int;
  island_cols : int;
  spm_banks : int;
  floor : Dvfs.level;  (** slowest active level Algorithm 1 may label *)
  unroll : int;  (** 1 or 2 *)
  max_ii : int;  (** mapper gives up past this II *)
}

type spec = {
  fabrics : (int * int) list;
  islands : (int * int) list;
  spm_banks : int list;
  floors : Dvfs.level list;
  unrolls : int list;
  max_iis : int list;
}

val default_spec : spec
(** The paper's neighbourhood: 6x6 fabric, every island shape tiling
    it, 8 banks, all three floors, unroll 1, II cap 64. *)

val is_valid : point -> bool
(** Island dims must be positive and tile the fabric exactly (divide
    both dimensions), [spm_banks >= 1], [unroll] 1 or 2, [max_ii >= 1],
    and the floor must be an active level. *)

val enumerate : spec -> point list
(** Cross product filtered by {!is_valid}, in a fixed lexicographic
    order — equal specs always enumerate equal lists. *)

val sample : spec -> seed:int -> count:int -> point list
(** Deterministic uniform subsample of [enumerate spec] (the whole
    enumeration when it has at most [count] points), preserving the
    canonical order. *)

val cgra : point -> Cgra.t
(** Build the fabric a point describes.
    @raise Invalid_argument on an invalid point. *)

val to_string : point -> string
(** Canonical compact id, e.g. "6x6/i2x2/b8/rest/u1/ii64" — stable
    across runs, used as the cache-key prefix and in reports. *)

val of_string : string -> point option
(** Inverse of {!to_string} on valid points whose sides are at most
    {!max_side}: the fabric and island go through {!dims_of_string},
    the floor through {!floor_of_string}, and the bank, unroll and II
    numbers through {!Iced_util.Nat.of_string}, so only the canonical
    spelling parses. *)

val pp : Format.formatter -> point -> unit

(** {2 Field codecs}

    The one string form of each sweep axis, shared by the [iced serve]
    protocol and the [iced explore] options. *)

val floor_to_string : Dvfs.level -> string
(** ["rest"], ["relax"] or ["normal"] (["gated"] for [Power_gated],
    which no valid point carries). *)

val floor_of_string : string -> Dvfs.level option
(** Inverse of {!floor_to_string} on the three active levels; [None]
    on anything else, ["gated"] included. *)

val max_side : int
(** The largest fabric or island side {!dims_of_string} accepts (32),
    and so the largest fabric the daemon and [iced] admit: twice the
    16x16 of the largest fabric any test, bench or CI step maps. *)

val max_grid : int
(** The largest product of a spec's list lengths (fabrics x islands x
    banks x floors x unrolls x max_iis) that the daemon and [iced
    explore] sweep: 1,024, four times the 252 of the largest grid any
    test, bench, example or doc sweeps (the README's
    [--fabrics 4x4,6x6,8x8] with every island shape and floor). *)

val grid_error : spec -> string option
(** [None] when the spec's grid is within {!max_grid}; else why not,
    naming each list's length.  Checked before {!enumerate} runs: the
    daemon answers such an [explore] frame [invalid] and [iced explore]
    exits 124. *)

val dims_to_string : int * int -> string
(** ["RxC"]. *)

val dims_of_string : string -> (int * int) option
(** Inverse of {!dims_to_string} for [1 <= R, C <= max_side], each side
    a canonical decimal ({!Iced_util.Nat.of_string}); [None] on
    anything else, ["+4x4"] or ["06x6"] included. *)

val default_islands : (int * int) list -> (int * int) list
(** Every island shape that tiles one of the fabrics exactly (from 1x1
    per-tile DVFS to the whole-fabric single island), sorted, without
    duplicates: what a sweep covers when it names no islands. *)
