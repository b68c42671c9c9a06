module Fault = Iced_fault.Fault
module Runner = Iced_stream.Runner
module App = Iced_stream.App
module Table = Iced_util.Table

type spec = {
  app : App.t;
  policy : Runner.policy;
  recoveries : Runner.recovery list;
  kinds : Fault.kind_class list;
  seeds : int list;
  faults_per_run : int;
  upset_rate : float;
  inputs : int;
  window : int;
  workers : int;
}

let default_spec =
  {
    app = Lu;
    policy = Runner.Iced_dvfs;
    recoveries = [ Runner.Remap; Runner.Gate_island; Runner.Raise_level; Runner.Fail_stop ];
    kinds = [ Fault.Tile; Fault.Link; Fault.Island; Fault.Upset ];
    seeds = [ 0; 1; 2; 3 ];
    faults_per_run = 2;
    upset_rate = 1e-3;
    inputs = 200;
    window = 10;
    workers = 1;
  }

type run_result = {
  seed : int;
  recovery : Runner.recovery;
  plan : Fault.plan;
  stats : Runner.fault_stats;
  totals : Runner.totals;
  retention : float;
  survived : bool;
  error : string option;
}

type t = { spec : spec; baseline : Runner.totals; runs : run_result list }

let max_seeds = 32
let max_inputs = 2_000
let max_faults = 10_000

type count = Seeds | Faults | Inputs | Window

(* The first bound [n] breaks, in order.  [Inputs] checks "> 0" before
   ">= 2" so that a count of 0 or less gets the reason clients already
   see for it. *)
let count_error count n =
  let bounds =
    match count with
    | Seeds -> [ (n > 0, "> 0"); (n <= max_seeds, Printf.sprintf "<= %d" max_seeds) ]
    | Faults -> [ (n >= 0, ">= 0"); (n <= max_faults, Printf.sprintf "<= %d" max_faults) ]
    | Inputs ->
      [ (n > 0, "> 0"); (n >= 2, ">= 2"); (n <= max_inputs, Printf.sprintf "<= %d" max_inputs) ]
    | Window -> [ (n > 0, "> 0") ]
  in
  List.find_map (fun (ok, bound) -> if ok then None else Some ("must be " ^ bound)) bounds

let counts_error ~seeds ~faults ~inputs ~window =
  List.find_map
    (fun (name, count, n) -> Option.map (fun why -> (name, why)) (count_error count n))
    [ ("seeds", Seeds, seeds); ("faults", Faults, faults); ("inputs", Inputs, inputs);
      ("window", Window, window) ]

let validate spec =
  if spec.policy = Runner.Drips then Error "the DRIPS baseline has no fault model"
  else if spec.recoveries = [] then Error "no recovery policies selected"
  else if spec.kinds = [] then Error "no fault kinds selected"
  else
    match
      counts_error ~seeds:(List.length spec.seeds) ~faults:spec.faults_per_run
        ~inputs:spec.inputs ~window:spec.window
    with
    | Some (name, why) -> Error (name ^ " " ^ why)
    | None -> Ok ()

let retention_of ~(baseline : Runner.totals) (stats : Runner.fault_stats)
    (totals : Runner.totals) =
  let completion =
    if stats.Runner.offered = 0 then 0.0
    else float_of_int stats.Runner.completed /. float_of_int stats.Runner.offered
  in
  let speed =
    if baseline.Runner.overall_throughput_per_s > 0.0 then
      Float.min 1.0
        (totals.Runner.overall_throughput_per_s
        /. baseline.Runner.overall_throughput_per_s)
    else 0.0
  in
  completion *. speed

let cell_untraced spec ~partition ~baseline ~inputs (seed, recovery) =
  let plan =
    Fault.random_plan ~seed ~cgra:partition.Iced_stream.Partition.cgra ~inputs:spec.inputs
      ~rate:spec.upset_rate ~kinds:spec.kinds ~count:spec.faults_per_run ()
  in
  match
    Runner.run_resilient ~window:spec.window ~faults:plan ~recovery partition spec.policy
      inputs
  with
  | exception e ->
    {
      seed;
      recovery;
      plan;
      stats = Runner.no_faults;
      totals = Runner.aggregate [];
      retention = 0.0;
      survived = false;
      error = Some (Printexc.to_string e);
    }
  | reports, stats ->
    let totals = Runner.aggregate reports in
    let retention = retention_of ~baseline stats totals in
    {
      seed;
      recovery;
      plan;
      stats;
      totals;
      retention;
      survived = retention >= 0.5;
      error = None;
    }

let run ?(progress = fun _ _ -> ()) spec =
  match validate spec with
  | Error e -> Error e
  | Ok () -> (
    let inputs = App.inputs ~count:spec.inputs spec.app in
    match App.partition spec.app inputs with
    | Error e -> Error ("partitioning failed: " ^ e)
    | Ok partition ->
      let baseline =
        Runner.aggregate (Runner.run ~window:spec.window partition spec.policy inputs)
      in
      let jobs =
        List.concat_map
          (fun seed -> List.map (fun recovery -> (seed, recovery)) spec.recoveries)
          spec.seeds
        |> Array.of_list
      in
      let total = Array.length jobs in
      let cell (seed, recovery) =
        let module Obs = Iced_obs.Trace in
        Obs.span
          ~args:(fun () ->
            [ ("seed", Obs.Int seed);
              ("recovery", Obs.Str (Runner.recovery_to_string recovery)) ])
          ~result:(fun r ->
            [ ("retention", Obs.Float r.retention); ("survived", Obs.Bool r.survived) ])
          ~cat:"campaign" ~name:"cell"
          (fun () -> cell_untraced spec ~partition ~baseline ~inputs (seed, recovery))
      in
      let finished = ref 0 in
      let on_item _ =
        incr finished;
        progress !finished total
      in
      let runs = Iced_explore.Pool.map ~workers:spec.workers ~on_item cell jobs in
      Ok { spec; baseline; runs = Array.to_list runs })

(* ------------------------------------------------------------------ *)
(* reporting *)

let plan_summary plan =
  if Fault.is_empty plan then "-"
  else
    String.concat "; "
      (List.map
         (fun (e : Fault.event) ->
           Printf.sprintf "@%d %s" e.Fault.at_input (Fault.kind_to_string e.Fault.fault))
         plan.Fault.events)

let table t =
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf "fault campaign: %s / %s" (App.to_string t.spec.app)
           (Runner.policy_to_string t.spec.policy))
      ~columns:
        [ "seed"; "recovery"; "injected"; "recovered"; "dropped"; "replayed";
          "mttr us"; "retention"; "verdict" ]
  in
  List.iter
    (fun r ->
      Table.add_row tbl
        [ string_of_int r.seed;
          Runner.recovery_to_string r.recovery;
          string_of_int r.stats.Runner.injected;
          string_of_int r.stats.Runner.recoveries;
          string_of_int r.stats.Runner.inputs_dropped;
          string_of_int r.stats.Runner.inputs_replayed;
          Printf.sprintf "%.2f" r.stats.Runner.mttr_us;
          Printf.sprintf "%.3f" r.retention;
          (match r.error with
          | Some _ -> "error"
          | None -> if r.survived then "survived" else "lost") ])
    t.runs;
  tbl

type summary = { cells : int; survivors : int; mean_retention : float; mean_mttr_us : float }

let summary t =
  List.map
    (fun recovery ->
      let cells = List.filter (fun r -> r.recovery = recovery) t.runs in
      let mean f = Iced_util.Stats.mean (List.map f cells) in
      ( recovery,
        {
          cells = List.length cells;
          survivors = List.length (List.filter (fun r -> r.survived) cells);
          mean_retention = mean (fun r -> r.retention);
          mean_mttr_us = mean (fun r -> r.stats.Runner.mttr_us);
        } ))
    t.spec.recoveries

let summary_table t =
  let tbl =
    Table.create ~title:"survival by recovery policy"
      ~columns:[ "recovery"; "cells"; "survival"; "mean retention"; "mean mttr us" ]
  in
  List.iter
    (fun (recovery, s) ->
      if s.cells > 0 then
        Table.add_row tbl
          [ Runner.recovery_to_string recovery;
            string_of_int s.cells;
            Printf.sprintf "%d/%d" s.survivors s.cells;
            Printf.sprintf "%.3f" s.mean_retention;
            Printf.sprintf "%.2f" s.mean_mttr_us ])
    (summary t);
  tbl

let csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "app,policy,seed,recovery,injected,recoveries,remaps,islands_gated,levels_raised,\
     dropped,replayed,recovery_us,mttr_us,offered,completed,throughput_per_s,\
     efficiency,retention,survived,error\n";
  List.iter
    (fun r ->
      let s = r.stats in
      Buffer.add_string b
        (Printf.sprintf "%s,%s,%d,%s,%d,%d,%d,%d,%d,%d,%d,%.6g,%.6g,%d,%d,%.6g,%.6g,%.6g,%b,%s\n"
           (App.to_string t.spec.app)
           (Runner.policy_to_string t.spec.policy)
           r.seed
           (Runner.recovery_to_string r.recovery)
           s.Runner.injected s.Runner.recoveries s.Runner.remaps s.Runner.islands_gated
           s.Runner.levels_raised s.Runner.inputs_dropped s.Runner.inputs_replayed
           s.Runner.recovery_time_us s.Runner.mttr_us s.Runner.offered s.Runner.completed
           r.totals.Runner.overall_throughput_per_s r.totals.Runner.overall_efficiency
           r.retention r.survived
           (match r.error with Some e -> String.map (fun c -> if c = ',' then ';' else c) e | None -> "")))
    t.runs;
  Buffer.contents b

let json t =
  let module J = Iced_util.Json in
  let run r =
    let s = r.stats in
    J.Obj
      [ ("seed", J.int r.seed); ("recovery", J.Str (Runner.recovery_to_string r.recovery));
        ("plan", J.Str (plan_summary r.plan)); ("injected", J.int s.Runner.injected);
        ("recoveries", J.int s.Runner.recoveries); ("remaps", J.int s.Runner.remaps);
        ("islands_gated", J.int s.Runner.islands_gated);
        ("levels_raised", J.int s.Runner.levels_raised);
        ("dropped", J.int s.Runner.inputs_dropped); ("replayed", J.int s.Runner.inputs_replayed);
        ("recovery_us", J.Num s.Runner.recovery_time_us); ("mttr_us", J.Num s.Runner.mttr_us);
        ("offered", J.int s.Runner.offered); ("completed", J.int s.Runner.completed);
        ("throughput_per_s", J.Num r.totals.Runner.overall_throughput_per_s);
        ("retention", J.Num r.retention); ("survived", J.Bool r.survived) ]
  in
  J.to_string
    (J.Obj
       [ ("app", J.Str (App.to_string t.spec.app));
         ("policy", J.Str (Runner.policy_to_string t.spec.policy));
         ("inputs", J.int t.spec.inputs); ("faults_per_run", J.int t.spec.faults_per_run);
         ("upset_rate", J.Num t.spec.upset_rate);
         ("baseline_throughput_per_s", J.Num t.baseline.Runner.overall_throughput_per_s);
         ("runs", J.Arr (List.map run t.runs)) ])

let render t =
  Table.render (table t) ^ "\n\n" ^ Table.render (summary_table t) ^ "\n"
