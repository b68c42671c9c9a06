(** The ICED DVFS Controller (paper Section III-B, Algorithm 3).

    Maintains an [exeTable] of per-kernel execution times and a
    [mapTable] of the islands each kernel owns.  Every [window] inputs
    (the paper uses 10), it identifies the bottleneck kernel, raises
    its islands one level (toward [Normal]), and lowers the
    non-bottleneck kernels one level where doing so cannot create a new
    bottleneck (halving a kernel's frequency doubles its time, so a
    kernel is lowered only when twice its observed time still fits
    under the bottleneck with some guard band).

    When the {!Iced_obs.Trace} collector is on, every window-boundary
    decision runs inside a ["controller"]/["adjust"] span carrying the
    window index, bottleneck kernel, and bottleneck time, and every
    per-kernel level move is recorded as a ["controller"]/["level"]
    instant — a readable decision log of Algorithm 3.  Tracing never
    changes any decision. *)

open Iced_arch

type t
(** One controller instance, owning the level of every kernel it was
    created with. *)

val create :
  ?window:int -> ?label_floors:(string * Dvfs.level) list -> labels:string list -> unit -> t
(** Create a controller for [labels], all starting at [Normal].
    [window] defaults to 10 inputs; no kernel is lowered below [Rest]
    or below its [label_floors] entry, the compiler's per-kernel
    eligibility bound ({!Partition.t.level_floors}).
    @raise Invalid_argument on a non-positive [window]. *)

val window : t -> int
(** The adjustment window, in inputs. *)

val level : t -> string -> Dvfs.level
(** Current level of a kernel's islands ([Normal] initially).
    @raise Not_found for unknown labels. *)

val levels : t -> (string * Dvfs.level) list
(** Current level of every kernel, in creation order. *)

val observe : t -> label:string -> busy_time:float -> unit
(** Record one kernel's execution time for the current input (the
    termination signal updating the exeTable). *)

val input_done : t -> unit
(** Mark one input fully consumed; on the window boundary, adjust
    levels and reset the exeTable. *)

val impose : t -> (string * Iced_arch.Dvfs.level) list -> unit
(** Overwrite the current level of the listed kernels with an
    externally granted assignment — the hook a fabric-wide allocator
    (see [Iced_tenancy.Allocator]) uses to throttle a tenant below what
    Algorithm 3 asked for.  Labels absent from the list keep their
    level; level order and the adjustment count are untouched, so
    imposing the controller's own {!levels} is a strict no-op.
    Subsequent {!observe} normalization uses the imposed level, keeping
    the cross-window memory consistent under throttling.
    @raise Invalid_argument if a label is unknown to this controller. *)

val adjustments : t -> int
(** Number of windows that triggered a level change so far. *)

val last_bottleneck : t -> (string * float) option
(** The bottleneck kernel and its time (µs at its current level) found
    by the most recent adjustment, [None] before the first window with
    samples.  The streaming runner stamps this onto its per-window
    trace spans. *)
