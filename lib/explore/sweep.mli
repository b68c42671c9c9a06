(** The sweep driver: evaluate a list of design points over a list of
    kernels, in parallel, through the persistent cache.

    One task is one (point, kernel) mapping.  Cache lookups happen up
    front on the calling domain; only misses reach the {!Pool}, and
    fresh results are written back (in task order, on the calling
    domain) once the pool drains — the cache file layout is therefore
    deterministic too.  Each task races a wall-clock deadline of
    [timeout_s] seconds polled by the mapper between II attempts, so a
    pathological point is recorded as [Timed_out] and the sweep moves
    on.  Timeouts are the one nondeterministic outcome (they depend on
    machine speed); leave [timeout_s] infinite when byte-identical
    reports matter more than a bounded worst case. *)

type config = {
  workers : int;  (** evaluation domains; 1 = serial *)
  timeout_s : float;  (** per-(point, kernel) budget; [infinity] = none *)
  backend : Iced_mapper.Backend.t;
      (** placement/routing backend for every evaluation; part of the
          cache key, so different backends never share entries *)
  progress : bool;  (** live "evaluated k/n" line on stderr *)
}

val default_config : config
(** 1 worker, no timeout, default backend, no progress. *)

type stats = {
  points : int;
  pairs : int;  (** points x kernels *)
  fresh : int;  (** evaluated this run *)
  cached : int;  (** served from the cache *)
  failed : int;  (** pairs the mapper rejected *)
  timed_out : int;
  elapsed_s : float;
}

val run :
  ?config:config ->
  ?cancel:(unit -> bool) ->
  ?mapper_stats:Iced_mapper.Mapper.stats ->
  ?trace:bool ->
  cache:Cache.t ->
  Space.point list ->
  Iced_kernels.Kernel.t list ->
  Outcome.point_result list * stats
(** Results come back in input point order, each with kernels in input
    kernel order, regardless of [workers].  [cancel] (default: never)
    cuts the whole sweep short: it is checked before each task starts,
    and a task that starts after it fires is [Timed_out] unevaluated,
    and it is polled by every evaluation beside the task's own
    [timeout_s] budget, so the mapper stops between II attempts.  The
    daemon passes a frame's deadline here.  [mapper_stats] aggregates
    the mapper telemetry of every fresh evaluation (cache hits run no
    mapper and contribute nothing); workers fill private records that
    are merged after the pool drains, so the sink needs no locking.

    When the {!Iced_obs.Trace} collector is on, the sweep emits a
    ["sweep"]/["run"] span, one ["sweep"]/["point"] span per fresh
    evaluation (recorded on the evaluating worker's domain, so its
    [tid] is the domain id), and a ["sweep"]/["cache"] counter sample
    with the hit/miss split.  [trace:false] silences all of it — on
    the calling domain and on every worker — and the results are
    byte-identical either way (pinned by the determinism test). *)

val pp_stats : Format.formatter -> stats -> unit
