open Iced_arch

type design = Baseline | Baseline_gated | Per_tile_dvfs | Iced

type tile_state = { level : Dvfs.level; activity : float }

let controller_count design cgra =
  match design with
  | Baseline | Baseline_gated -> 0
  | Per_tile_dvfs -> Cgra.tile_count cgra
  | Iced -> Cgra.island_count cgra

let check_fraction name x =
  if Float.is_nan x || x < 0.0 || x > 1.0 +. 1e-9 then
    invalid_arg (Printf.sprintf "Model: %s %.4f out of [0,1]" name x)

let tile_power_mw (p : Params.t) state =
  check_fraction "tile activity" state.activity;
  if not (Dvfs.is_active state.level) then 0.0
  else
    let vf = Params.voltage_scale p state.level *. Params.frequency_scale p state.level in
    let dynamic = (p.tile.clock_mw +. (p.tile.dyn_max_mw *. state.activity)) *. vf in
    let static = p.tile.static_mw *. Params.leakage_scale p state.level in
    dynamic +. static

let sram_power_mw (p : Params.t) ~activity =
  check_fraction "sram activity" activity;
  p.sram.leak_mw +. (p.sram.dyn_max_mw *. activity)

let overhead_power_mw (p : Params.t) design cgra =
  let per_controller =
    match design with
    | Baseline | Baseline_gated -> 0.0
    | Per_tile_dvfs -> p.per_tile_controller.power_mw
    | Iced -> p.island_controller.power_mw
  in
  float_of_int (controller_count design cgra) *. per_controller

let total_power_mw p design cgra ~tiles ~sram_activity =
  let tile_sum = List.fold_left (fun acc state -> acc +. tile_power_mw p state) 0.0 tiles in
  tile_sum +. sram_power_mw p ~activity:sram_activity +. overhead_power_mw p design cgra

let exec_time_us (p : Params.t) ~cycles =
  if cycles < 0 then invalid_arg "Model.exec_time_us: negative cycles";
  float_of_int cycles /. p.f_normal_mhz

let energy_uj p design cgra ~tiles ~sram_activity ~cycles =
  total_power_mw p design cgra ~tiles ~sram_activity /. 1000.0
  *. exec_time_us p ~cycles

let area_mm2 (p : Params.t) design cgra =
  let tiles = float_of_int (Cgra.tile_count cgra) *. p.tile.area_mm2 in
  let per_controller =
    match design with
    | Baseline | Baseline_gated -> 0.0
    | Per_tile_dvfs -> p.per_tile_controller.area_mm2
    | Iced -> p.island_controller.area_mm2
  in
  let dvfs = float_of_int (controller_count design cgra) *. per_controller in
  let sram = p.sram.area_mm2 in
  [
    ("tiles", tiles);
    ("dvfs support", dvfs);
    ("sram", sram);
    ("total", tiles +. dvfs +. sram);
  ]

let power_breakdown_mw p design cgra ~tiles ~sram_activity =
  let tile_sum = List.fold_left (fun acc state -> acc +. tile_power_mw p state) 0.0 tiles in
  let dvfs = overhead_power_mw p design cgra in
  let sram = sram_power_mw p ~activity:sram_activity in
  [
    ("tiles", tile_sum);
    ("dvfs support", dvfs);
    ("sram", sram);
    ("total", tile_sum +. dvfs +. sram);
  ]
