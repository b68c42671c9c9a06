(** DVFS operating levels of an ICED voltage island.

    The prototype supports three active levels plus power-gating
    (paper Section V-A):

    - [Normal]: 0.70 V, 434 MHz (nominal)
    - [Relax] : 0.50 V, 217 MHz (half of normal)
    - [Rest]  : 0.42 V, 108.5 MHz (a quarter of normal)
    - [Power_gated]: island is off

    Frequencies satisfy Eq. 1 of the paper:
    f_normal = 2 * f_relax = 4 * f_rest. *)

type level = Power_gated | Rest | Relax | Normal

val all : level list
(** Slowest (gated) to fastest. *)

val active : level list
(** [Rest; Relax; Normal]. *)

val is_active : level -> bool

val multiplier : level -> int
(** Clock-period multiplier relative to [Normal]: 1, 2, or 4.
    @raise Invalid_argument on [Power_gated]. *)

val of_multiplier : int -> level option
(** Inverse of [multiplier] on 1/2/4. *)

val frequency_mhz : level -> float
(** 434.0 / 217.0 / 108.5 / 0.0. *)

val voltage : level -> float
(** 0.70 / 0.50 / 0.42 / 0.0. *)

val fraction : level -> float
(** The "average DVFS level" weight of Figures 10 and 12: normal 1.0,
    relax 0.5, rest 0.25, power-gated 0.0. *)

val faster : level -> level -> bool
(** [faster a b] iff [a] runs at a strictly higher frequency. *)

val at_most : level -> level -> bool
(** [at_most a b]: level [a] is no faster than [b] — the mapper's
    constraint that a node labeled [a] may use an island assigned [b]
    only when [a <= b] in speed (Algorithm 2, line 17). *)

val step_up : level -> level
(** One level faster, saturating at [Normal].  Power-gated islands wake
    to [Rest]. *)

val step_down : ?floor:level -> level -> level
(** One level slower, saturating at [floor] (default [Rest]; streaming
    mode never gates an allocated island). *)

val to_string : level -> string
val pp : Format.formatter -> level -> unit
val compare : level -> level -> int
(** Orders by speed: [Power_gated] < [Rest] < [Relax] < [Normal]. *)

val rank : level -> int
(** Position in that order: [Power_gated] 0 to [Normal] 3. *)
