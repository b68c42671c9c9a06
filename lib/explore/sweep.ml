type config = {
  workers : int;
  timeout_s : float;
  backend : Iced_mapper.Backend.t;
  progress : bool;
}

let default_config =
  {
    workers = 1;
    timeout_s = infinity;
    backend = Iced_mapper.Backend.default;
    progress = false;
  }

type stats = {
  points : int;
  pairs : int;
  fresh : int;
  cached : int;
  failed : int;
  timed_out : int;
  elapsed_s : float;
}

module Obs = Iced_obs.Trace
module Clock = Iced_obs.Clock

let run_untraced ~config ~cancel ?mapper_stats ~trace ~cache points kernels =
  let t0 = Clock.now () in
  (* keys are computed once, up front: they embed the unrolled DFG's
     statistics, which are not free to recompute *)
  let backend_name = Iced_mapper.Backend.to_string config.backend in
  let keyed =
    List.map
      (fun point ->
        ( point,
          List.map
            (fun kernel -> (kernel, Cache.key ~backend:backend_name point kernel))
            kernels ))
      points
  in
  let pairs = List.concat_map (fun (point, ks) -> List.map (fun (k, key) -> (point, k, key)) ks) keyed in
  let results : (string, Outcome.status) Hashtbl.t = Hashtbl.create 64 in
  let scheduled : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let jobs =
    List.filter
      (fun (_, _, key) ->
        if Hashtbl.mem results key || Hashtbl.mem scheduled key then false
        else
          match Cache.find cache key with
          | Some status ->
            Hashtbl.replace results key status;
            false
          | None ->
            Hashtbl.replace scheduled key ();
            true)
      pairs
  in
  let jobs = Array.of_list jobs in
  let cached_pairs = List.length pairs - Array.length jobs in
  Iced_obs.Metrics.incr ~by:cached_pairs "sweep.cache.hits";
  Iced_obs.Metrics.incr ~by:(Array.length jobs) "sweep.cache.misses";
  Obs.counter ~cat:"sweep" ~name:"cache" (fun () ->
      [ ("hits", float_of_int cached_pairs); ("misses", float_of_int (Array.length jobs)) ]);
  let completed = ref 0 in
  let on_item _ =
    incr completed;
    if config.progress then
      Printf.eprintf "\r[explore] evaluated %d/%d fresh (%d cached)%!" !completed
        (Array.length jobs) cached_pairs
  in
  (* One private telemetry record per job: a pool worker only touches
     its own record, and the records are merged on the calling domain
     once the pool has drained — no cross-domain contention. *)
  let job_stats = Array.map (fun _ -> Iced_mapper.Mapper.create_stats ()) jobs in
  (* [trace] rides into the worker closure as a plain bool: DLS-based
     suppression does not inherit across domains, so each worker
     decides locally.  Traced evaluations get a ["sweep"]/["point"]
     span whose tid is the worker's domain id. *)
  let evaluate (i, (point, kernel, _key)) =
    let body () =
      let started = Clock.now () in
      let cancel () = cancel () || Clock.now () -. started > config.timeout_s in
      Outcome.evaluate_kernel ~cancel ~backend:config.backend ~stats:job_stats.(i) point
        kernel
    in
    (* a cancelled sweep starts no further task *)
    if cancel () then Outcome.Timed_out
    else if not trace then Obs.suppress body
    else
      Obs.span
        ~args:(fun () ->
          [
            ("point", Obs.Str (Space.to_string point));
            ("kernel", Obs.Str kernel.Iced_kernels.Kernel.name);
          ])
        ~result:(function
          | Outcome.Mapped m -> [ ("ii", Obs.Int m.Outcome.ii) ]
          | Outcome.Failed msg -> [ ("error", Obs.Str msg) ]
          | Outcome.Timed_out -> [ ("timeout", Obs.Bool true) ])
        ~cat:"sweep" ~name:"point" body
  in
  let fresh =
    Pool.map ~workers:config.workers ~on_item evaluate
      (Array.mapi (fun i job -> (i, job)) jobs)
  in
  if config.progress && Array.length jobs > 0 then prerr_newline ();
  (match mapper_stats with
  | None -> ()
  | Some sink ->
    Array.iter (fun s -> Iced_mapper.Mapper.merge_stats ~into:sink s) job_stats);
  Array.iteri
    (fun i (_, _, key) ->
      Cache.store cache ~key fresh.(i);
      Hashtbl.replace results key fresh.(i))
    jobs;
  let outcomes =
    List.map
      (fun (point, ks) ->
        {
          Outcome.point;
          per_kernel =
            List.map
              (fun ((kernel : Iced_kernels.Kernel.t), key) ->
                (kernel.name, Hashtbl.find results key))
              ks;
        })
      keyed
  in
  let count pred =
    List.fold_left
      (fun acc (r : Outcome.point_result) ->
        acc + List.length (List.filter (fun (_, s) -> pred s) r.Outcome.per_kernel))
      0 outcomes
  in
  let stats =
    {
      points = List.length points;
      pairs = List.length pairs;
      fresh = Array.length jobs;
      cached = cached_pairs;
      failed = count (function Outcome.Failed _ -> true | _ -> false);
      timed_out = count (function Outcome.Timed_out -> true | _ -> false);
      elapsed_s = Clock.now () -. t0;
    }
  in
  (outcomes, stats)

let run ?(config = default_config) ?(cancel = fun () -> false) ?mapper_stats ?(trace = true)
    ~cache points kernels =
  let body () = run_untraced ~config ~cancel ?mapper_stats ~trace ~cache points kernels in
  if not trace then Obs.suppress body
  else
    Obs.span
      ~args:(fun () ->
        [
          ("points", Obs.Int (List.length points));
          ("kernels", Obs.Int (List.length kernels));
          ("workers", Obs.Int config.workers);
        ])
      ~result:(fun (_, stats) ->
        [ ("fresh", Obs.Int stats.fresh); ("cached", Obs.Int stats.cached) ])
      ~cat:"sweep" ~name:"run" body

let pp_stats fmt s =
  Format.fprintf fmt
    "%d points x kernels = %d pairs: %d fresh, %d cached, %d failed, %d timed out in %.2fs"
    s.points s.pairs s.fresh s.cached s.failed s.timed_out s.elapsed_s
