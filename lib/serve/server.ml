module J = Iced_util.Json
module Fnv = Iced_util.Fnv
module Cache = Iced_explore.Cache
module Space = Iced_explore.Space
module Outcome = Iced_explore.Outcome
module Sweep = Iced_explore.Sweep
module Report = Iced_explore.Report
module Registry = Iced_kernels.Registry
module Runner = Iced_stream.Runner
module Campaign = Iced_campaign.Campaign
module Metrics = Iced_obs.Metrics
module Trace = Iced_obs.Trace
module Clock = Iced_obs.Clock

type config = {
  workers : int;
  queue_depth : int;
  cache : Cache.t;
  restart_budget : int;
  default_deadline_ms : int option;
}

let default_config () =
  {
    workers = 2;
    queue_depth = 64;
    cache = Cache.in_memory ();
    restart_budget = 8;
    default_deadline_ms = None;
  }

exception Chaos_failure
exception Worker_kill

let fingerprint e = Fnv.to_hex (Fnv.hash_string (Printexc.to_string e))

(* EINTR-robust absolute-time sleep: the drain signal handlers install
   without SA_RESTART, so [sleepf] can return early with EINTR — retry
   until the target, never surface the interrupt *)
let rec sleep_until target =
  let now = Clock.now () in
  if now < target then begin
    (try Unix.sleepf (target -. now)
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    sleep_until target
  end

(* ------------------------------------------------------------------ *)
(* request handlers                                                    *)

let handle_map ~cache ~cancel ~id ~point ~kernel ~backend =
  match Registry.by_name kernel with
  | None -> Protocol.response_error ~id (Printf.sprintf "unknown kernel %S" kernel)
  | Some k ->
    let key = Cache.key ~backend:(Iced_mapper.Backend.to_string backend) point k in
    let status =
      Cache.find_or_store cache ~key (fun () ->
          Outcome.evaluate_kernel ~cancel ~backend point k)
    in
    (match status with
    | Outcome.Timed_out -> Metrics.incr "serve.deadline_expired"
    | _ -> ());
    Protocol.response_map ~id ~point ~kernel status

let handle_explore ~cache ~cancel ~id ~spec ~kernels =
  let resolved =
    match kernels with
    | [] -> Ok Registry.standalone
    | names ->
      List.fold_left
        (fun acc name ->
          match (acc, Registry.by_name name) with
          | Error _, _ -> acc
          | Ok _, None -> Error name
          | Ok ks, Some k -> Ok (k :: ks))
        (Ok []) names
      |> Result.map List.rev
  in
  match resolved with
  | Error name -> Protocol.response_error ~id (Printf.sprintf "unknown kernel %S" name)
  | Ok ks -> (
    match Space.enumerate spec with
    | [] -> Protocol.response_error ~id "the space enumerates to no valid points"
    | points ->
      (* workers = 1: the daemon's own pool is the parallelism; nesting
         a sweep pool inside a worker domain would oversubscribe *)
      let outcomes, stats = Sweep.run ~config:Sweep.default_config ~cancel ~cache points ks in
      (* the default config has no per-point budget, so a timed-out
         point means the frame's deadline fired *)
      if stats.Sweep.timed_out > 0 then begin
        Metrics.incr "serve.deadline_expired";
        Protocol.response_timeout ~id ~op:"explore"
      end
      else Protocol.response_explore ~id ~frontier:(Report.frontier_summaries outcomes) outcomes)

let take n l = if n <= 0 then l else List.filteri (fun i _ -> i < n) l

let handle_stream ~id ~app ~policy ~inputs =
  (* a stream is capped at its dataset, where a campaign draws past it *)
  let stream = take inputs (Iced_stream.App.inputs app) in
  match Iced_stream.App.partition app stream with
  | Error msg -> Protocol.response_error ~id ("partitioning failed: " ^ msg)
  | Ok partition ->
    let reports = Runner.run partition policy stream in
    Protocol.response_stream ~id ~app ~policy ~windows:(List.length reports)
      (Runner.aggregate reports)

let handle_fault ~id ~app ~seeds ~faults ~inputs ~window =
  let spec =
    {
      Campaign.default_spec with
      Campaign.app;
      seeds = List.init seeds Fun.id;
      faults_per_run = faults;
      inputs;
      window;
      workers = 1;
    }
  in
  match Campaign.run spec with
  | Error msg -> Protocol.response_error ~id ("campaign failed: " ^ msg)
  | Ok c -> Protocol.response_fault ~id c

(* ------------------------------------------------------------------ *)
(* the stats / health replies                                          *)

let failures_json () =
  let c name = J.int (Option.value ~default:0 (Metrics.counter_value name)) in
  J.Obj
    [ ("internal_errors", c "serve.internal_errors");
      ("worker_restarts", c "serve.worker_restarts");
      ("deadline_expired", c "serve.deadline_expired");
      ("cache_recoveries", c "cache.recoveries") ]

(* one latency histogram's summary, [null] before its first sample *)
let latency_json name =
  match Metrics.histogram_stats name with
  | None -> J.Null
  | Some (count, sum, _, _) ->
    let q p = match Metrics.quantile name p with Some v -> J.Num v | None -> J.Null in
    J.Obj
      [ ("count", J.int count); ("mean_s", J.Num (sum /. float_of_int count));
        ("p50_s", q 0.5); ("p99_s", q 0.99) ]

(* per-tenant SLO series are discovered from the metrics registry (any
   histogram under the prefix exists because some request carried that
   tenant id), so the daemon never maintains a tenant table of its own *)
let tenant_prefix = "serve.latency.tenant."

let tenants_json () =
  let series name =
    let tenant =
      String.sub name (String.length tenant_prefix)
        (String.length name - String.length tenant_prefix)
    in
    let requests =
      Option.value ~default:0 (Metrics.counter_value ("serve.req.tenant." ^ tenant))
    in
    J.Obj
      [ ("tenant", J.Str tenant); ("requests", J.int requests); ("latency", latency_json name) ]
  in
  J.Arr (List.map series (Metrics.histogram_names ~prefix:tenant_prefix ()))

let observe_tenant (frame : Protocol.frame) latency_s =
  (match frame.Protocol.tenant with
  | None -> ()
  | Some tenant ->
    Metrics.incr ("serve.req.tenant." ^ tenant);
    Metrics.observe (tenant_prefix ^ tenant) latency_s);
  match frame.Protocol.qos with
  | None -> ()
  | Some qos -> Metrics.observe ("serve.latency.qos." ^ qos) latency_s

let stats_line ~id ~workers ~queue_depth ~queue_length ~pending ~served ~shed cache =
  let hits = Cache.hits cache and misses = Cache.misses cache in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  J.to_string
    (J.Obj
       [ ("id", J.Str id); ("status", J.Str "ok"); ("op", J.Str "stats");
         ("workers", J.int workers); ("queue_depth", J.int queue_depth);
         ("queue_length", J.int queue_length); ("pending", J.int pending);
         ("served", J.int served); ("shed", J.int shed);
         ( "cache",
           J.Obj
             [ ("size", J.int (Cache.size cache)); ("hits", J.int hits);
               ("misses", J.int misses); ("coalesced", J.int (Cache.coalesced cache));
               ("hit_rate", J.Num hit_rate) ] );
         ("latency", latency_json "serve.latency_s"); ("tenants", tenants_json ());
         ("failures", failures_json ()) ])

let cache_health_json cache =
  let tier, path =
    match Cache.path cache with
    | Some p -> ("persistent", J.Str p)
    | None -> ("memory", J.Null)
  in
  let recovery =
    match Cache.recovery cache with
    | None -> J.Null
    | Some r ->
      J.Obj
        [ ("kept_records", J.int r.Cache.kept_records);
          ("dropped_bytes", J.int r.Cache.dropped_bytes);
          ("renamed_bak", J.Bool r.Cache.renamed_bak) ]
  in
  J.Obj
    [ ("tier", J.Str tier); ("path", path); ("entries", J.int (Cache.size cache)); ("recovery", recovery) ]

let health_line ~id ~workers ~alive ~restarts ~restart_budget ~queue_depth ~queue_length
    cache =
  (* a pool with zero live workers cannot make progress; the serial
     once-mode path (workers = 0) is its own worker *)
  let healthy = workers = 0 || alive > 0 in
  J.to_string
    (J.Obj
       [ ("id", J.Str id); ("status", J.Str "ok"); ("op", J.Str "health");
         ("healthy", J.Bool healthy);
         ( "workers",
           J.Obj
             [ ("total", J.int workers); ("alive", J.int alive); ("restarts", J.int restarts);
               ("restart_budget", J.int restart_budget) ] );
         ("queue", J.Obj [ ("length", J.int queue_length); ("depth", J.int queue_depth) ]);
         ("cache", cache_health_json cache) ])

(* ------------------------------------------------------------------ *)
(* deadlines                                                           *)

(* The one deadline rule: the frame's own [deadline_ms], else
   [default_ms], counted from [now], when the daemon accepts the frame.
   [None]: no deadline. *)
let deadline ?default_ms ~now (frame : Protocol.frame) =
  let ms = match frame.Protocol.deadline_ms with None -> default_ms | own -> own in
  Option.map (fun ms -> now +. (float_of_int ms /. 1000.0)) ms

let past deadline_at now = match deadline_at with Some d -> now >= d | None -> false

(* ------------------------------------------------------------------ *)
(* the exception barrier                                               *)

let dispatch ~cache ~stats ~health ~start ~deadline_at (frame : Protocol.frame) =
  let id = frame.Protocol.id in
  let expired () = past deadline_at (Clock.now ()) in
  match frame.Protocol.request with
  | Protocol.Ping -> Protocol.response_ping ~id
  | Protocol.Sleep ms -> (
    let finish = start +. (float_of_int ms /. 1000.0) in
    match deadline_at with
    | Some d when d <= finish ->
      (* the deadline lands first: wait it out, then time out — the
         reply bytes match a queue-expired sleep exactly *)
      sleep_until d;
      Metrics.incr "serve.deadline_expired";
      Protocol.response_timeout ~id ~op:"sleep"
    | _ ->
      sleep_until finish;
      Protocol.response_sleep ~id ~ms)
  | Protocol.Map { point; kernel; backend } ->
    handle_map ~cache ~cancel:expired ~id ~point ~kernel ~backend
  | Protocol.Explore { spec; kernels } ->
    handle_explore ~cache ~cancel:expired ~id ~spec ~kernels
  | Protocol.Stream { app; policy; inputs } -> handle_stream ~id ~app ~policy ~inputs
  | Protocol.Fault { app; seeds; faults; inputs; window } ->
    handle_fault ~id ~app ~seeds ~faults ~inputs ~window
  | Protocol.Stats -> stats ~id
  | Protocol.Health -> health ~id
  | Protocol.Crash { kill } -> if kill then raise Worker_kill else raise Chaos_failure
  | Protocol.Shutdown -> Protocol.response_shutdown ~id

let internal_error_line ~id ~op e =
  Metrics.incr "serve.internal_errors";
  Printf.eprintf "[serve] internal error handling op %s (id %s): %s\n%!" op
    (if id = "" then "<anon>" else id)
    (Printexc.to_string e);
  Protocol.response_internal_error ~id ~op ~fingerprint:(fingerprint e)

let handle ?(catch_kill = true) ?deadline_at ?health ~cache ~stats
    (frame : Protocol.frame) =
  let op = Protocol.op_to_string frame.Protocol.request in
  let id = frame.Protocol.id in
  let start = Clock.now () in
  let deadline_at =
    match deadline_at with Some _ as d -> d | None -> deadline ~now:start frame
  in
  let health =
    match health with
    | Some h -> h
    | None ->
      fun ~id ->
        health_line ~id ~workers:0 ~alive:0 ~restarts:0 ~restart_budget:0 ~queue_depth:0
          ~queue_length:0 cache
  in
  (* shed-on-expiry: queue wait already consumed the whole budget, so
     answer timeout without touching the handler at all *)
  if past deadline_at start then begin
    Metrics.incr "serve.deadline_expired";
    match frame.Protocol.request with
    | Protocol.Map { point; kernel; backend = _ } ->
      Protocol.response_map ~id ~point ~kernel Outcome.Timed_out
    | _ -> Protocol.response_timeout ~id ~op
  end
  else
    match
      Trace.span
        ~args:(fun () -> [ ("id", Trace.Str id) ])
        ~cat:"serve" ~name:op
        (fun () -> dispatch ~cache ~stats ~health ~start ~deadline_at frame)
    with
    | line -> line
    | exception Worker_kill when not catch_kill ->
      (* pool mode: let the kill escape the barrier so it takes out the
         worker domain and exercises supervision *)
      raise Worker_kill
    | exception e -> internal_error_line ~id ~op e

(* ------------------------------------------------------------------ *)
(* the pool                                                            *)

type item = { frame : Protocol.frame; submitted : float; deadline_at : float option }

type t = {
  config : config;
  queue : item Bqueue.t;
  respond : string -> latency_s:float -> unit;
  respond_mu : Mutex.t;
  state_mu : Mutex.t;
  idle : Condition.t;  (* signalled when [pending] returns to 0 *)
  mutable pending : int;  (* accepted, response not yet emitted *)
  mutable served_n : int;
  mutable shed_n : int;
  mutable alive_n : int;  (* worker domains still in their loop *)
  mutable restarts_n : int;  (* kills absorbed by the supervisor *)
  mutable domains : unit Domain.t list;
}

let emit t line ~latency_s =
  Mutex.protect t.respond_mu (fun () -> t.respond line ~latency_s);
  Mutex.protect t.state_mu (fun () -> t.served_n <- t.served_n + 1)

let pool_stats t ~id =
  let served, shed, pending =
    Mutex.protect t.state_mu (fun () -> (t.served_n, t.shed_n, t.pending))
  in
  stats_line ~id ~workers:t.config.workers ~queue_depth:t.config.queue_depth
    ~queue_length:(Bqueue.length t.queue) ~pending ~served ~shed t.config.cache

let pool_health t ~id =
  let alive, restarts = Mutex.protect t.state_mu (fun () -> (t.alive_n, t.restarts_n)) in
  health_line ~id ~workers:t.config.workers ~alive ~restarts
    ~restart_budget:t.config.restart_budget ~queue_depth:t.config.queue_depth
    ~queue_length:(Bqueue.length t.queue) t.config.cache

let mark_done t =
  Mutex.protect t.state_mu (fun () ->
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.idle)

(* every worker over budget: nothing will pop the queue again, so shut
   the door (future submits shed) and fail whatever is already queued
   rather than letting clients wait forever *)
let fail_pending t =
  Bqueue.close t.queue;
  let rec drain () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some { frame; submitted; deadline_at = _ } ->
      let id = frame.Protocol.id in
      let op = Protocol.op_to_string frame.Protocol.request in
      let line = internal_error_line ~id ~op Worker_kill in
      emit t line ~latency_s:(Clock.now () -. submitted);
      mark_done t;
      drain ()
  in
  drain ()

let process_item t { frame; submitted; deadline_at } =
  Metrics.gauge "serve.queue_depth" (float_of_int (Bqueue.length t.queue));
  let line =
    handle ~catch_kill:false ?deadline_at ~cache:t.config.cache ~stats:(pool_stats t)
      ~health:(pool_health t) frame
  in
  let latency_s = Clock.now () -. submitted in
  Metrics.observe "serve.latency_s" latency_s;
  Metrics.observe
    ("serve.latency." ^ Protocol.op_to_string frame.Protocol.request)
    latency_s;
  observe_tenant frame latency_s;
  emit t line ~latency_s;
  mark_done t

(* a request killed this worker: answer on its behalf, then decide
   whether the restart budget covers spinning the worker back up *)
let supervise_kill t item e =
  let id = item.frame.Protocol.id in
  let op = Protocol.op_to_string item.frame.Protocol.request in
  let line = internal_error_line ~id ~op e in
  emit t line ~latency_s:(Clock.now () -. item.submitted);
  let restarts, budget_left, last_alive =
    Mutex.protect t.state_mu (fun () ->
        t.restarts_n <- t.restarts_n + 1;
        let budget_left = t.restarts_n <= t.config.restart_budget in
        if not budget_left then t.alive_n <- t.alive_n - 1;
        (t.restarts_n, budget_left, (not budget_left) && t.alive_n = 0))
  in
  Metrics.incr "serve.worker_restarts";
  if budget_left then
    Printf.eprintf "[serve] worker killed by op %s (id %s); restarted (%d/%d)\n%!" op
      (if id = "" then "<anon>" else id)
      restarts t.config.restart_budget
  else
    Printf.eprintf "[serve] worker killed by op %s (id %s); restart budget exhausted\n%!"
      op
      (if id = "" then "<anon>" else id);
  (* settle the supervisor state — including closing the door when the
     last worker retires — before waking drainers *)
  if last_alive then Bqueue.close t.queue;
  mark_done t;
  if last_alive then fail_pending t;
  budget_left

let rec worker_loop t =
  match Bqueue.pop t.queue with
  | None -> ()
  | Some item ->
    let keep_going =
      match process_item t item with
      | () -> true
      | exception e -> supervise_kill t item e
    in
    if keep_going then worker_loop t

let create ?(respond = fun _line ~latency_s:_ -> ()) config =
  if config.workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  if config.queue_depth < 1 then invalid_arg "Server.create: queue_depth must be >= 1";
  if config.restart_budget < 0 then
    invalid_arg "Server.create: restart_budget must be >= 0";
  let t =
    {
      config;
      queue = Bqueue.create ~capacity:config.queue_depth;
      respond;
      respond_mu = Mutex.create ();
      state_mu = Mutex.create ();
      idle = Condition.create ();
      pending = 0;
      served_n = 0;
      shed_n = 0;
      alive_n = config.workers;
      restarts_n = 0;
      domains = [];
    }
  in
  t.domains <- List.init config.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let submit t (frame : Protocol.frame) =
  Metrics.incr "serve.requests";
  Metrics.incr ("serve.req." ^ Protocol.op_to_string frame.Protocol.request);
  Mutex.protect t.state_mu (fun () -> t.pending <- t.pending + 1);
  let submitted = Clock.now () in
  let deadline_at = deadline ?default_ms:t.config.default_deadline_ms ~now:submitted frame in
  if Bqueue.try_push t.queue { frame; submitted; deadline_at } then begin
    Metrics.gauge "serve.queue_depth" (float_of_int (Bqueue.length t.queue));
    true
  end
  else begin
    let depth = Bqueue.length t.queue in
    Mutex.protect t.state_mu (fun () ->
        t.pending <- t.pending - 1;
        t.shed_n <- t.shed_n + 1;
        if t.pending = 0 then Condition.broadcast t.idle);
    Metrics.incr "serve.shed";
    emit t (Protocol.response_overloaded ~id:frame.Protocol.id ~depth) ~latency_s:0.0;
    false
  end

(* answer a decode error at once, or submit the frame *)
let accept t = function
  | Error e ->
    Metrics.incr "serve.invalid";
    emit t (Protocol.response_invalid e) ~latency_s:0.0;
    `Invalid
  | Ok frame ->
    if not (submit t frame) then `Rejected
    else if frame.Protocol.request = Protocol.Shutdown then `Shutdown
    else `Submitted

let submit_line t line = accept t (Protocol.decode line)

let drain t =
  Mutex.protect t.state_mu (fun () ->
      while t.pending > 0 do
        Condition.wait t.idle t.state_mu
      done)

let shutdown t =
  drain t;
  Bqueue.close t.queue;
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let served t = Mutex.protect t.state_mu (fun () -> t.served_n)
let shed t = Mutex.protect t.state_mu (fun () -> t.shed_n)
let alive t = Mutex.protect t.state_mu (fun () -> t.alive_n)
let restarts t = Mutex.protect t.state_mu (fun () -> t.restarts_n)

let queue_length t = Bqueue.length t.queue

(* ------------------------------------------------------------------ *)
(* transports                                                          *)

type stop_reason = Eof | Requested | Stopped

let is_blank line = String.for_all (fun c -> c = ' ' || c = '\t' || c = '\r') line

let never_stop () = false

(* an over-long line is answered as a parse error at the cap *)
let too_long = Protocol.Malformed { Iced_util.Json.at = Lineio.max_line; reason = "line too long" }

(* The transports' one read loop: [serve] answers or queues each decoded
   line and says whether it was a shutdown to stop at. *)
let read_frames ~stop reader serve =
  let rec loop () =
    match Lineio.read_line ~stop reader with
    | `Eof -> Eof
    | `Stopped -> Stopped
    | `Line line when is_blank line -> loop ()
    | `Line line -> if serve (Protocol.decode line) then Requested else loop ()
    | `Too_long -> if serve (Error too_long) then Requested else loop ()
  in
  loop ()

let serve_fds ?(once = false) ?(stop = never_stop) config infd outfd =
  let reader = Lineio.reader infd in
  let writer = Lineio.writer outfd in
  let write line = ignore (Lineio.write_line writer line) in
  if once then begin
    let served = ref 0 in
    let stats ~id =
      stats_line ~id ~workers:0 ~queue_depth:0 ~queue_length:0 ~pending:0 ~served:!served
        ~shed:0 config.cache
    in
    read_frames ~stop reader (fun decoded ->
        let reply, shutdown =
          match decoded with
          | Error e -> (Protocol.response_invalid e, false)
          | Ok frame ->
            let deadline_at =
              deadline ?default_ms:config.default_deadline_ms ~now:(Clock.now ()) frame
            in
            ( handle ?deadline_at ~cache:config.cache ~stats frame,
              frame.Protocol.request = Protocol.Shutdown )
        in
        write reply;
        incr served;
        shutdown)
  end
  else begin
    let t = create config ~respond:(fun line ~latency_s:_ -> write line) in
    let reason = read_frames ~stop reader (fun decoded -> accept t decoded = `Shutdown) in
    (* even when stopped by a signal: drain accepted work, then stop —
       nothing already admitted is dropped or failed *)
    shutdown t;
    reason
  end

let serve_channels ?(once = false) ?stop config ic oc =
  (* the fd transport bypasses channel buffering; flush anything a
     caller already queued on [oc] so ordering is preserved *)
  flush oc;
  serve_fds ~once ?stop config (Unix.descr_of_in_channel ic) (Unix.descr_of_out_channel oc)

(* abnormal-exit guard: one registration per path, lives for the whole
   process — a second serve of the same path reuses it *)
let unlink_guards : (string, unit) Hashtbl.t = Hashtbl.create 4
let unlink_guards_mu = Mutex.create ()

let guard_unlink path =
  Mutex.protect unlink_guards_mu (fun () ->
      if not (Hashtbl.mem unlink_guards path) then begin
        Hashtbl.replace unlink_guards path ();
        at_exit (fun () -> try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      end)

let serve_socket ?once ?(stop = never_stop) config path =
  (* a client vanishing mid-reply must not kill the daemon with an
     unhandled SIGPIPE; writes then fail with EPIPE, which Lineio eats *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  guard_unlink path;
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        if stop () then Stopped
        else
          match Unix.accept sock with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
          | fd, _ ->
            let reason =
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close fd with Unix.Unix_error _ -> ())
                (fun () -> serve_fds ?once ~stop config fd fd)
            in
            (match reason with
            | Requested -> Requested
            | Stopped -> Stopped
            | Eof -> accept_loop ())
      in
      accept_loop ())
