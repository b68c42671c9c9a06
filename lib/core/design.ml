open Iced_arch
open Iced_mapper
module Metrics = Iced_sim.Metrics
module Model = Iced_power.Model

type point = Baseline | Baseline_gated | Per_tile | Iced

let all_points = [ Baseline; Baseline_gated; Per_tile; Iced ]

let point_to_string = function
  | Baseline -> "baseline"
  | Baseline_gated -> "baseline+pg"
  | Per_tile -> "per-tile dvfs+pg"
  | Iced -> "iced"

type evaluation = {
  point : point;
  kernel : string;
  unroll : int;
  mapping : Mapping.t;
  ii : int;
  avg_utilization : float;
  avg_dvfs : float;
  power_mw : float;
  speedup_vs_cpu : float;
}

let strategy_of = function
  | Baseline | Baseline_gated | Per_tile -> Mapper.Conventional
  | Iced -> Mapper.Dvfs_aware

let fabric_of cgra = function
  | Per_tile -> Cgra.per_tile cgra
  | Baseline | Baseline_gated | Iced -> cgra

let model_design = function
  | Baseline -> Model.Baseline
  | Baseline_gated -> Model.Baseline_gated
  | Per_tile -> Model.Per_tile_dvfs
  | Iced -> Model.Iced

let assign_levels point mapping =
  match point with
  | Baseline -> Levels.all_normal mapping
  | Baseline_gated -> Levels.normal_with_gating mapping
  | Per_tile | Iced -> Levels.assign mapping

module Trace = Iced_obs.Trace

let evaluate_body ~cgra ~unroll ~label_floor ~max_ii ~cancel ~backend ?stats
    point kernel =
  let fabric = fabric_of cgra point in
  let dfg = Iced_kernels.Kernel.dfg_at kernel ~factor:unroll in
  let req =
    Mapper.request ~strategy:(strategy_of point) ~backend ~label_floor ~max_ii ~cancel
      fabric
  in
  match Mapper.map ?stats req dfg with
  | Error msg -> Error (Printf.sprintf "%s/%s: %s" kernel.name (point_to_string point) msg)
  | Ok mapping ->
    let mapping = assign_levels point mapping in
    (match Validate.check mapping with
    | Error msgs ->
      Error
        (Printf.sprintf "%s/%s: invalid mapping: %s" kernel.name (point_to_string point)
           (String.concat "; " msgs))
    | Ok () ->
      let tiles = Metrics.tile_states mapping in
      let power_mw =
        Model.total_power_mw Iced_power.Params.default (model_design point) fabric ~tiles
          ~sram_activity:(Metrics.sram_activity mapping)
      in
      Ok
        {
          point;
          kernel = kernel.name;
          unroll;
          mapping;
          ii = mapping.Mapping.ii;
          avg_utilization = Metrics.average_utilization mapping;
          avg_dvfs = Metrics.average_dvfs_fraction mapping;
          power_mw;
          speedup_vs_cpu = Metrics.speedup_vs_cpu mapping;
        })

let evaluate ?(cgra = Cgra.iced_6x6) ?(unroll = 1) ?(label_floor = Dvfs.Rest)
    ?(max_ii = 64) ?(cancel = fun () -> false) ?(backend = Backend.default) ?stats
    ?(trace = true) point kernel =
  let body () =
    evaluate_body ~cgra ~unroll ~label_floor ~max_ii ~cancel ~backend ?stats
      point kernel
  in
  if not trace then Trace.suppress body
  else
    Trace.span
      ~args:(fun () ->
        [
          ("kernel", Trace.Str kernel.Iced_kernels.Kernel.name);
          ("point", Trace.Str (point_to_string point));
          ("unroll", Trace.Int unroll);
        ])
      ~result:(function
        | Ok e -> [ ("ii", Trace.Int e.ii) ]
        | Error msg -> [ ("error", Trace.Str msg) ])
      ~cat:"design" ~name:"evaluate" body

let evaluate_exn ?cgra ?unroll ?label_floor ?max_ii ?cancel ?backend ?stats ?trace
    point kernel =
  match
    evaluate ?cgra ?unroll ?label_floor ?max_ii ?cancel ?backend ?stats ?trace point kernel
  with
  | Ok e -> e
  | Error msg -> failwith ("Design.evaluate: " ^ msg)

let functional_check (kernel : Iced_kernels.Kernel.t) mapping =
  let iterations = 25 in
  let result = Iced_sim.Sim.run ~binding:kernel.binding mapping ~iterations in
  let golden =
    Iced_sim.Sim.interpret ~binding:kernel.binding mapping.Mapping.dfg ~iterations
  in
  if result.violations <> [] then
    Error
      (Printf.sprintf "%d timing violations (first: %s)" (List.length result.violations)
         (List.hd result.violations))
  else if result.stores <> golden then Error "store trace differs from the golden interpreter"
  else Ok ()
