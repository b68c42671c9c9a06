(** The `iced serve` daemon: a long-lived mapping-as-a-service worker
    pool behind the line-delimited JSON protocol of {!Protocol}.

    Architecture: a reader (the transport loop, or the bench's load
    generator) decodes frames and {!submit}s them into a bounded
    {!Bqueue}; [workers] OCaml 5 domains pop, evaluate through the
    shared {!Iced_explore.Cache} (so identical in-flight requests
    coalesce onto one evaluation and repeats hit the cache), and emit
    response lines through a serialized [respond] callback.  Admission
    control is shedding: a full queue turns the request into an
    immediate [overloaded] reply instead of unbounded latency.

    {b Resilience.}  Every request runs inside an exception barrier:
    a handler that raises yields a structured [internal_error] reply
    carrying a stable FNV-1a fingerprint of the exception (the raw
    message stays on the daemon's stderr), never a dead connection.  A
    request that kills its worker domain outright (see
    {!Protocol.Crash}) is answered the same way by a supervisor, which
    then restarts the worker — up to [restart_budget] restarts, after
    which remaining workers retire and queued work is failed loudly
    rather than hung.  Per-request deadlines ([deadline_ms], or the
    pool-wide [default_deadline_ms]) are enforced cooperatively: queue
    wait counts against the budget, an already-expired request is
    answered [timeout] without running, and in-flight [map]
    evaluations poll a cancel knob.  The [health] op reports worker
    liveness, restart spend, queue occupancy, and cache tier status.

    SLO accounting rides on {!Iced_obs}: every request runs in a
    ["serve"]/op span, the queue depth is a gauge, per-request wall
    time lands in the ["serve.latency_s"] histogram (plus a per-op
    one), and shed/served/dedup counters — plus failure counters
    ([serve.internal_errors], [serve.worker_restarts],
    [serve.deadline_expired], [cache.recoveries]) — are readable
    through the protocol's [stats] request.

    Responses are deterministic (see {!Protocol}), so a daemon of any
    worker count emits byte-identical lines to {!handle} called
    serially — the ordering, not the bytes, is what concurrency
    changes.  This includes failure replies: a deliberately-expired
    deadline or an injected crash renders the same bytes in one-shot
    and pool modes. *)

type config = {
  workers : int;  (** evaluation domains, >= 1 *)
  queue_depth : int;  (** admission-control bound, >= 1 *)
  cache : Iced_explore.Cache.t;
      (** shared two-tier result store — pass {!Iced_explore.Cache.open_file}
          for a persistent tier that survives restarts *)
  restart_budget : int;
      (** worker-domain deaths the supervisor absorbs before retiring
          workers (>= 0) *)
  default_deadline_ms : int option;
      (** deadline applied to frames that carry none; [None] = no
          implicit deadline *)
}

val default_config : unit -> config
(** 2 workers, queue depth 64, a fresh in-memory cache, restart budget
    8, no default deadline. *)

exception Chaos_failure
(** What a [crash] request with [kill = false] raises — an ordinary
    handler failure, absorbed by the exception barrier. *)

exception Worker_kill
(** What a [crash] request with [kill = true] raises — escapes the
    barrier in pool mode and takes the worker domain down, exercising
    the supervisor. *)

val fingerprint : exn -> string
(** The stable 16-hex-digit FNV-1a an [internal_error] reply carries
    for this exception. *)

val handle :
  ?catch_kill:bool ->
  ?deadline_at:float ->
  ?health:(id:string -> string) ->
  cache:Iced_explore.Cache.t ->
  stats:(id:string -> string) ->
  Protocol.frame ->
  string
(** Evaluate one frame to its response line, synchronously on the
    calling domain — the one-shot execution path ([iced serve --once])
    and the byte-identity oracle for the pool.  [stats]/[health]
    render those replies (the daemon injects live pool counters; a
    one-shot context reports a static snapshot).  [deadline_at] is the
    absolute expiry on the {!Iced_obs.Clock.now} clock, which the
    transports derive when they accept the frame; when absent, the same
    rule derives it from the frame's own [deadline_ms] at call time.
    [catch_kill] (default [true]) also converts {!Worker_kill} into an
    [internal_error] reply; the pool passes [false] so the kill
    reaches its supervisor instead. *)

(** {2 The pool} *)

type t

val create : ?respond:(string -> latency_s:float -> unit) -> config -> t
(** Spawn the worker domains.  [respond] receives every response line
    exactly once, serialized under an internal lock, from whichever
    domain finished the request; [latency_s] is submit-to-respond wall
    time (0 for shed requests).  Default: discard. *)

val submit : t -> Protocol.frame -> bool
(** Enqueue a request ([false]: the queue was full or closed — the
    [overloaded] reply has already been emitted through [respond]).
    The frame's deadline (or the config default) starts counting
    here: queue wait is part of the budget. *)

val submit_line : t -> string -> [ `Submitted | `Invalid | `Rejected | `Shutdown ]
(** Decode then {!submit} one raw request line.  [`Invalid] frames get
    their error reply emitted immediately; [`Shutdown] means the frame
    was accepted and the transport should stop reading. *)

val drain : t -> unit
(** Block until every accepted request has been responded to. *)

val shutdown : t -> unit
(** {!drain}, close the queue, and join the worker domains — no stuck
    domains, no lost responses.  Safe to call twice. *)

val served : t -> int
(** Responses emitted so far (including error/overloaded replies). *)

val shed : t -> int
(** Requests refused by admission control so far. *)

val alive : t -> int
(** Worker domains still serving (drops only when a kill lands past
    the restart budget). *)

val restarts : t -> int
(** Worker kills absorbed by the supervisor so far. *)

val queue_length : t -> int

(** {2 Transports}

    All transports retry [EINTR] (see {!Lineio}) and poll [stop]
    before every blocking read/accept, so a signal handler that sets a
    flag interrupts the daemon without killing it; accepted in-flight
    work is still drained before the transport returns [Stopped]. *)

type stop_reason =
  | Eof  (** the client closed its end *)
  | Requested  (** a [shutdown] frame was served *)
  | Stopped  (** the [stop] predicate fired (SIGTERM/SIGINT drain) *)

val serve_fds :
  ?once:bool ->
  ?stop:(unit -> bool) ->
  config ->
  Unix.file_descr ->
  Unix.file_descr ->
  stop_reason
(** Serve one client over raw descriptors: read request lines from the
    first until EOF, a [shutdown] frame, or [stop ()]; write response
    lines to the second; then drain and stop the pool.  Blank lines
    are ignored; a torn final line (no terminator) is discarded.
    A line longer than {!Lineio.max_line} is answered [invalid] and
    the next one is read.  Both modes share one read loop and start a
    frame's deadline when they read it.  [once] skips the pool entirely and evaluates serially
    in arrival order on the calling domain — same bytes,
    deterministic interleaving. *)

val serve_channels :
  ?once:bool -> ?stop:(unit -> bool) -> config -> in_channel -> out_channel -> stop_reason
(** {!serve_fds} on the channels' underlying descriptors (the CLI's
    stdin/stdout path).  Bypasses channel buffering: don't interleave
    with reads from [ic]. *)

val serve_socket : ?once:bool -> ?stop:(unit -> bool) -> config -> string -> stop_reason
(** Listen on a Unix-domain socket at [path] (an existing socket file
    is replaced) and serve clients sequentially, each with
    {!serve_fds}, until one sends [shutdown] or [stop ()] holds.
    SIGPIPE is ignored for the process (a vanished client becomes a
    dropped reply, not a death).  The socket file is removed on exit —
    including abnormal exit, via an [at_exit] guard. *)
