(** The toolchain's one clock: [CLOCK_MONOTONIC] through
    [bechamel.monotonic_clock].  NTP or a change of the wall clock never
    steps it; only differences between readings mean anything.  Trace
    timestamps, mapper and certify wall times, sweep timeouts and the
    serve deadlines and latencies all read it. *)

val now : unit -> float
(** Seconds since an unspecified fixed origin; never decreases. *)
