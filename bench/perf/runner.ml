(* One run of one workload: set up, measure untraced, optionally
   measure again traced, and reduce everything to named metrics. *)

let workloads =
  [ Table1.workload; Shootout.workload; Certify.workload; Streaming.workload;
    Serving.hot; Serving.mixed ]

let name_of (Workload.W w) = w.name
let find name = List.find_opt (fun w -> name_of w = name) workloads

(* Metric names and units, in print order.  BENCHMARK.json lists the
   same names; the smoke test checks that the two agree. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("op_ms_p50", "ms"); ("op_ms_tail", "ms");
    ("peak_rss_mb", "MB"); ("ii_sum", "cycles"); ("power_mw_mean", "mW") ]

let span_layers =
  [ "bench"; "dfg"; "labeling"; "mapper"; "levels"; "validate"; "power"; "sim"; "exact";
    "stream.prepare"; "stream.run"; "stream.resilient"; "tenancy.plan"; "tenancy.run";
    "tenancy.sweep";
    "serve.decode"; "serve.handle_hit"; "serve.handle_miss" ]

let per_layer =
  List.map (fun l -> (l ^ ".self_pct", "%")) span_layers
  @ [ ("labeling.est_pct", "%");
      ("mapper.attempts", "count"); ("mapper.ii_bumps", "count");
      ("mapper.placements", "count"); ("mapper.route_calls", "count");
      ("mapper.expansions", "count"); ("mapper.alloc_mb", "MB");
      ("mapper.sa_temp_steps", "count"); ("mapper.pf_rounds", "count");
      ("mapper.pf_overflow", "count"); ("mapper.route_fail_ratio", "ratio");
      ("mapper.sa_accept_ratio", "ratio");
      ("exact.conflicts", "count"); ("exact.decisions", "count");
      ("exact.propagations", "count"); ("exact.route_blocks", "count");
      ("exact.clauses", "count"); ("exact.decided_ratio", "ratio");
      ("stream.efficiency_gain", "ratio");
      ("serve.queue_wait_pct", "%"); ("serve.shed", "count");
      ("cache.hit_ratio", "ratio"); ("cache.misses", "count"); ("cache.coalesced", "count");
      ("trace.overhead_pct", "%"); ("trace.spans", "count") ]

(* Set-up runs at least [setup_min] times and then until it has taken
   [setup_min_s] in all or run [setup_max] times; its median is
   setup_s.  Cheap set-ups thus get enough repeats for a steady median. *)
let setup_min = 5
let setup_max = 200
let setup_min_s = 0.3

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb -> kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

type result = {
  workload : string;
  config : Workload.config;
  seconds : float;
  tail_pct : float;
  traced : bool;
  attempted : int;
  failed : int;
  failures : string list;
  metrics : (string * float) list;  (* end-to-end, or per-layer when traced *)
  counters : (string * float) list;
  speed : float;  (* machine slowdown during the timed phase *)
}

let run ?trace_file (Workload.W w) (config : Workload.config) ~seconds ~traced =
  Speed.reset ();
  let min_s = if config.smoke then 0.0 else setup_min_s in
  (* set-up runs single-domain, with speed samples before the first
     repeats and on the timer, so each repeat is scaled by the speed
     measured around it *)
  let rec set_up times total =
    if List.length times < setup_min then Speed.sample ();
    let t0 = Tracer.now () in
    let s, dt, _ = Speed.net (fun () -> w.setup config) in
    let times = (t0, dt) :: times and total = total +. dt in
    let n = List.length times in
    if n >= setup_min && (n >= setup_max || total >= min_s) then (s, times) else set_up times total
  in
  let state, setups = Speed.sampling (fun () -> set_up [] 0.0) in
  Speed.sample ();
  let setup_s =
    let local = Speed.local () in
    Sample.median (List.map (fun (t, dt) -> dt /. local ~t0:t ~t1:(t +. dt)) setups)
  in
  (* A timed phase: its measurement, the machine's slowdown over it,
     each op's latency at nominal speed, and throughput at nominal
     speed.  One domain runs its ops back to back, so its throughput is
     over their busy time, each op at the speed measured around it; the
     serve pool's requests overlap, so theirs is over the wall time of
     the loop. *)
  let phase ~seconds =
    let measure () = w.measure state ~seconds in
    let m, speed =
      Speed.window (fun () ->
          (* samples bracket the phase as well as falling inside it *)
          Speed.sample ();
          let m = if w.domains = 1 then Speed.sampling measure else measure () in
          Speed.sample ();
          m)
    in
    let local = Speed.local () in
    let op_ms = List.map (fun (t, ms) -> ms /. local ~t0:t ~t1:(t +. (ms *. 1e-3))) m.ops in
    let n = float_of_int (List.length m.ops) in
    let ops_per_s =
      if w.domains = 1 then n /. (List.fold_left ( +. ) 0.0 op_ms *. 1e-3)
      else n /. m.wall_s *. speed
    in
    (m, speed, op_ms, ops_per_s)
  in
  let m, speed, op_ms, ops_per_s = phase ~seconds in
  let rss = peak_rss_mb () in
  let n = List.length m.ops in
  let untraced_metrics =
    [ ("setup_s", setup_s);
      ("ops_per_s", ops_per_s);
      ("op_ms_p50", Sample.median op_ms);
      ("op_ms_tail", Sample.percentile w.tail_pct op_ms);
      ("peak_rss_mb", rss);
      ("ii_sum", float_of_int m.ii_sum);
      ("power_mw_mean", m.power_mw_mean) ]
  in
  let metrics, attempted, failed, failures =
    if not traced then (untraced_metrics, n, m.failed, m.failures)
    else begin
      (* the same ops again, through each layer's own entry points, with
         speed sampling as in the untraced phase so that the two compare;
         samples land in spans in proportion to their length *)
      Tracer.start ();
      let tm, _, _, traced_ops_per_s = phase ~seconds:(seconds /. 4.0) in
      Tracer.stop ();
      let shares = Tracer.self_shares () in
      let measured =
        List.map
          (fun l -> (l ^ ".self_pct", Option.value ~default:0.0 (List.assoc_opt l shares)))
          span_layers
        @ tm.layer
        @ [ ("trace.overhead_pct", 100.0 *. ((ops_per_s /. traced_ops_per_s) -. 1.0));
            ("trace.spans", float_of_int (Tracer.span_count ())) ]
      in
      Option.iter Tracer.write_chrome trace_file;
      ( List.map
          (fun (name, _) -> (name, Option.value ~default:0.0 (List.assoc_opt name measured)))
          per_layer,
        n + List.length tm.ops,
        m.failed + tm.failed,
        m.failures @ tm.failures )
    end
  in
  {
    workload = w.name;
    config;
    seconds;
    tail_pct = w.tail_pct;
    traced;
    attempted;
    failed;
    failures;
    metrics;
    counters = m.counters;
    speed;
  }

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> List.assoc name per_layer

(* %.17g keeps every digit the measurement has. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The machine-readable result: the last line of standard output. *)
let result_line r =
  let q = Iced_util.Json.quote in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ","
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (q name) (number v)
              (q (unit_of name)))
          r.metrics))
