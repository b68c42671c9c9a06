(** Process-wide metrics registry: counters, gauges, and log-scaled
    histograms, keyed by name.

    Unlike {!Trace} — a time-ordered event stream — metrics are {e
    aggregates}: one cell per name, updated from any domain, exported
    as a snapshot.  Instruments are created on first use ([incr] on an
    unknown counter creates it), so call sites need no setup.

    Updates are cheap (a mutex-guarded table lookup plus an atomic
    bump) but not free; keep them at cool points — per window, per
    sweep point, per route call — not in inner loops.

    Like tracing, metrics observe and never steer: nothing reads the
    registry to make a decision, so recording cannot perturb results. *)

val reset : unit -> unit
(** Drop every instrument.  [Export.capture] calls this on entry so a
    session's export reflects only that session. *)

(** {2 Instruments} *)

val incr : ?by:int -> string -> unit
(** Add [by] (default 1) to the counter named [name], creating it at
    zero first if needed.  Counters only go up. *)

val gauge : string -> float -> unit
(** Set the gauge named [name] to a value (last write wins). *)

val observe : string -> float -> unit
(** Record one sample into the histogram named [name].  Buckets are
    log2-scaled: sample [v] lands in bucket [ceil(log2 v)] clamped to
    a fixed range, so nanoseconds and minutes coexist in 64 buckets.
    Negative and zero samples land in the lowest bucket. *)

(** {2 Reading} *)

val counter_value : string -> int option
(** Current value of a counter, [None] if it was never incremented. *)

val gauge_value : string -> float option
(** Current value of a gauge, [None] if it was never set. *)

val histogram_names : ?prefix:string -> unit -> string list
(** Names of every histogram observed so far, sorted, optionally
    filtered to those starting with [prefix] — how the serving
    daemon's [stats] reply enumerates its per-tenant latency series
    without maintaining a second tenant registry. *)

val histogram_stats : string -> (int * float * float * float) option
(** [(count, sum, min, max)] of a histogram's samples, [None] if no
    sample was ever observed. *)

val quantile : string -> float -> float option
(** Estimated [q]-quantile ([q] clamped to [0, 1]) of the histogram
    named [name]: the upper edge of the log2 bucket holding the
    [ceil (q * count)]-th sample, clamped to the observed min/max —
    so the estimate is within one power of two of the true value.
    The serving daemon's [stats] reply reads its p50/p99 from here.
    [None] if no sample was ever observed. *)

(** {2 Export} *)

val to_json : unit -> string
(** The whole registry as one compact JSON object (no trailing
    newline) with [counters], [gauges],
    and [histograms] members, names sorted, each histogram rendered as
    [{count, sum, min, max, buckets: {"<=2^k": n, ...}}] (only
    non-empty buckets appear).  Deterministic given the same updates. *)

val to_csv : unit -> string
(** The registry flattened to [kind,name,field,value] CSV rows, names
    sorted — convenient for spreadsheets and quick joins across runs. *)
