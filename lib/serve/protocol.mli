(** The `iced serve` wire protocol: line-delimited JSON frames.

    One request per line on the way in, one response per line on the
    way out; a client correlates them by the [id] it chose (responses
    may arrive out of submission order — the daemon's worker pool
    completes cheap requests while expensive ones are still mapping).
    Every payload is a single flat-ish JSON object, decoded with the
    strict {!Iced_util.Json} parser, so a malformed or truncated frame
    is rejected with a positioned error instead of being guessed at.

    Result payloads are deterministic: they are rendered by
    {!Iced_util.Json.to_string}, whose [%.17g] number rule round-trips
    exactly (as the evaluation cache's persistent tier does), so the
    same request yields byte-identical
    response lines whether it was computed fresh, served from cache,
    handled by the one-shot CLI, or by a daemon of any worker count.
    Only [stats] replies — snapshots of live SLO instruments — are
    exempt from that guarantee.

    See docs/SERVING.md for the full request/response reference. *)

type request =
  | Ping  (** liveness check *)
  | Sleep of int  (** hold a worker for N ms — load/backpressure testing *)
  | Map of {
      point : Iced_explore.Space.point;
      kernel : string;
      backend : Iced_mapper.Backend.t;
    }
      (** evaluate one kernel at one design point; deduplicated and
          cached by the shared {!Iced_explore.Cache}.  [backend]
          (wire field ["backend"], default ["default"], strictly
          validated) selects the mapper's placement/routing pair;
          non-default backends get their own cache entries *)
  | Explore of { spec : Iced_explore.Space.spec; kernels : string list }
      (** run a sweep over a declarative space ([kernels = []] means
          the standalone Table I set); shares the daemon's cache *)
  | Stream of { app : Iced_stream.App.t; policy : Iced_stream.Runner.policy; inputs : int }
      (** run a streaming application over its dataset ([inputs = 0]
          means the whole dataset) and return aggregate totals *)
  | Fault of { app : Iced_stream.App.t; seeds : int; faults : int; inputs : int; window : int }
      (** run a seeded fault campaign (all recovery policies and fault
          families) and return per-policy survival/retention *)
  | Stats  (** SLO snapshot: queue depth, latency quantiles, dedup counters *)
  | Health
      (** liveness/readiness probe: worker aliveness and restart
          budget, queue occupancy, cache tier + recovery status *)
  | Crash of { kill : bool }
      (** deliberately raise inside the handler — the chaos harness's
          fault-injection hook.  [kill = false] exercises the
          exception barrier (a structured [internal_error] reply);
          [kill = true] kills the worker domain itself, exercising
          supervision/restart.  Never cached, never useful to real
          clients. *)
  | Shutdown  (** acknowledge, then stop accepting requests *)

type frame = {
  id : string;
  request : request;
  deadline_ms : int option;
  tenant : string option;
  qos : string option;
}
(** [id] is the client's correlation token (possibly [""]); it is
    echoed verbatim in the response.  [deadline_ms], when present, is
    the client's end-to-end budget: queue wait counts against it, an
    expired request is answered [status "timeout"] without (or
    mid-)evaluation.  [deadline_ms = Some 0] is already expired —
    deterministic timeout, handy for tests.

    [tenant] (wire field ["tenant"], any non-empty string) and [qos]
    (wire field ["qos"], one of {!Iced_tenancy.Qos.all}, strictly
    validated and stored canonicalised) attribute the request to a
    multi-tenant client for per-tenant SLO accounting in the [stats]
    reply — see docs/MULTITENANT.md.  They never change what is
    computed or how responses render, and the evaluation cache is
    shared across tenants, so identical requests from different
    tenants still deduplicate.  Both fields are left implicit when
    absent, so pre-tenancy frames encode byte-identically. *)

type decode_error =
  | Malformed of Iced_util.Json.error
      (** not a JSON document at all: truncated frame, trailing
          garbage, raw control bytes, bad escapes *)
  | Invalid of { id : string; reason : string }
      (** parseable JSON that is not a valid request: missing/unknown
          [op], wrong field types, out-of-range values *)

val op_to_string : request -> string
(** The request's [op] tag: ["ping"], ["map"], ["explore"], ... *)

val decode : string -> (frame, decode_error) result
(** Decode one request line. *)

val encode_request : frame -> string
(** Canonical encoding of a frame — [decode (encode_request f)] is
    [Ok f].  The load generator and the round-trip tests use it;
    hand-written client lines may of course order fields freely. *)

val default_point : Iced_explore.Space.point
(** The point a [map] request evaluates when it names none: the
    paper's 6x6 prototype, 2x2 islands, 8 banks, floor [rest],
    unroll 1, II cap 64. *)

(** {2 Response rendering}

    Each helper builds its reply as a {!Iced_util.Json.value} and
    returns it rendered: one complete line without the trailing
    newline. *)

val response_ping : id:string -> string
val response_sleep : id:string -> ms:int -> string

val response_map :
  id:string ->
  point:Iced_explore.Space.point ->
  kernel:string ->
  Iced_explore.Outcome.status ->
  string
(** [status "ok"] with the measurement fields, [status "unmapped"]
    with the mapper's message, or [status "timeout"]. *)

val response_explore :
  id:string ->
  frontier:Iced_explore.Outcome.summary list ->
  Iced_explore.Outcome.point_result list ->
  string
(** Per-point summaries in sweep order, each flagged with its Pareto
    membership. *)

val response_stream :
  id:string ->
  app:Iced_stream.App.t ->
  policy:Iced_stream.Runner.policy ->
  windows:int ->
  Iced_stream.Runner.totals ->
  string

val response_fault : id:string -> Iced_campaign.Campaign.t -> string
(** {!Iced_campaign.Campaign.summary}: per-recovery-policy aggregates
    over the campaign's cells. *)

val response_shutdown : id:string -> string

val response_timeout : id:string -> op:string -> string
(** [status "timeout"]: the request's [deadline_ms] expired (in queue
    or mid-evaluation) before a result was produced.  [map] timeouts
    use {!response_map} with [Timed_out] instead, which carries the
    point/kernel echo. *)

val response_internal_error : id:string -> op:string -> fingerprint:string -> string
(** [status "internal_error"]: the handler raised.  [fingerprint] is a
    stable 16-hex-digit FNV-1a of the exception rendering — enough to
    correlate repeats and grep server logs, never the raw
    message/backtrace (which stays on the daemon's stderr). *)

val response_error : id:string -> string -> string
(** [status "error"]: a well-formed request the handler rejected
    (unknown kernel, empty space, unpartitionable app...). *)

val response_overloaded : id:string -> depth:int -> string
(** [status "overloaded"]: admission control shed this request because
    the queue held [depth] items. *)

val response_invalid : decode_error -> string
(** [status "invalid"]: the frame never made it to a handler. *)
