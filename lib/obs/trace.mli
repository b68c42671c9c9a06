(** Span-based structured tracing for the whole toolchain.

    One global collector, off by default, records {e events} — span
    begins/ends, instants, and counter samples — into per-domain
    preallocated ring buffers.  Timestamps are {!Clock.now} readings
    (the monotonic clock) re-zeroed at {!start}, so they never step
    backwards on a domain.  The instrumented layers (mapper search and
    routing, the exact oracle, the streaming runner and DVFS
    controller, tenancy, explore sweeps, fault campaigns, the serving
    daemon) emit through this module; {!Export} turns the merged event
    stream into Chrome/Perfetto trace-event JSON or a flame summary.

    {2 Cost discipline}

    Arguments are closures ({!span}'s [args] and [result], {!instant}'s
    [args], {!counter}'s series) that run only while this domain is
    recording.  Otherwise — the collector off (the default) or inside
    {!suppress} — a call is one atomic load plus one domain-local read
    ({!span} is exactly [f ()]) and builds no argument list, so one
    call site serves tracing on and off, hot paths included.

    {2 Concurrency}

    Recording is safe from any number of domains concurrently: each
    domain writes only its own buffer (created on its first event and
    registered with the collector).  The control surface —
    {!start}, {!stop}, {!clear}, {!events} — is {e not} concurrent with
    recording: call it from a single domain while no traced work runs.

    {2 Determinism}

    Tracing observes, never steers: no instrumented component reads the
    collector's state to make a decision, so any computation runs
    byte-identically with tracing on or off (pinned by the golden
    mapper corpus and the sweep determinism test). *)

type value =
  | Int of int
  | Float of float
  | Bool of bool
  | Str of string  (** span/instant argument payloads *)

type phase =
  | Begin  (** span opened ([ph:"B"]) *)
  | End  (** span closed ([ph:"E"]) *)
  | Instant  (** point event ([ph:"i"]) *)
  | Counter  (** counter sample ([ph:"C"]) *)

type event = {
  phase : phase;
  cat : string;  (** category (see [docs/OBSERVABILITY.md] for the taxonomy) *)
  name : string;
  ts_us : float;  (** microseconds since {!start} on {!Clock.now}, non-decreasing per [tid] *)
  tid : int;  (** recording domain's id *)
  seq : int;  (** per-domain record order (tie-break for equal [ts_us]) *)
  args : (string * value) list;
}

val start : unit -> unit
(** Reset all buffers, re-zero the clock, and enable recording. *)

val stop : unit -> unit
(** Disable recording; buffered events stay readable via {!events}. *)

val clear : unit -> unit
(** Drop all buffered events (and forget buffers of finished domains). *)

val set_capacity : int -> unit
(** Per-domain ring capacity in events (default [2^18]).  Applies to
    buffers created after the call; existing buffers keep their size.
    When a ring is full the oldest events are overwritten — exports
    re-balance the survivors — and {!dropped} counts the loss. *)

val dropped : unit -> int
(** Events lost to ring overwrites since the last {!start}/{!clear}. *)

val span :
  ?args:(unit -> (string * value) list) ->
  ?result:('a -> (string * value) list) ->
  cat:string ->
  name:string ->
  (unit -> 'a) ->
  'a
(** [span ~cat ~name f] runs [f] inside a span: a [Begin] event
    before, an [End] event after (also on exception).  Spans nest.
    While recording, the [Begin] carries [args ()] followed by
    [result v] for the value [v] that [f] returned (the II a search
    settled on, a window's bottleneck kernel); when [f] raises, the
    span closes with [args ()] alone and the exception propagates.
    Not recording: exactly [f ()], and neither closure runs. *)

val instant :
  ?args:(unit -> (string * value) list) -> cat:string -> name:string -> unit -> unit
(** Record a point event (a fault activation, an II bump, a level
    move); [args] runs only while recording. *)

val counter : cat:string -> name:string -> (unit -> (string * float) list) -> unit
(** Record a counter sample: named series values at the current time
    (rendered as stacked counter tracks by Perfetto); the series
    closure runs only while recording. *)

val suppress : (unit -> 'a) -> 'a
(** Run [f] with recording suppressed on this domain (nested spans and
    instants inside [f] vanish, and their closures never run), whether
    or not the collector is on.  This is what the [?trace:false] knobs
    on [Design.evaluate], [Runner.run]/[run_resilient], and [Sweep.run]
    use to silence one call inside an otherwise-traced program. *)

val events : unit -> event list
(** Merge every domain's buffer into one stream ordered by
    [(ts_us, tid, seq)].  Call only while no traced work is running. *)
