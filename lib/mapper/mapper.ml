open Iced_arch

type strategy = Cost.strategy = Conventional | Dvfs_aware

type knobs = Cost.knobs = {
  island_affinity : bool;
  packing : bool;
  phase_alignment : bool;
  conventional_fallback : bool;
}

let all_knobs = Cost.all_knobs

type request = Engine.request = {
  cgra : Cgra.t;
  strategy : strategy;
  backend : Backend.t;
  tiles : int list option;
  memory_tiles : int list option;
  label_floor : Dvfs.level;
  label_guard : int;
  max_ii : int;
  knobs : knobs;
  cancel : unit -> bool;
  dead_tiles : int list;
  dead_links : (int * Dir.t) list;
  commit_islands : bool;
}

let request = Engine.request

type stats = Telemetry.t = {
  mutable attempts : int;
  mutable ii_bumps : int;
  mutable margin_position : int;
  mutable placements_tried : int;
  mutable route_calls : int;
  mutable route_failures : int;
  mutable expansions : int;
  mutable sa_moves_accepted : int;
  mutable sa_moves_rejected : int;
  mutable sa_temp_steps : int;
  mutable pf_rounds : int;
  mutable pf_overflow : int;
  mutable sat_conflicts : int;
  mutable sat_decisions : int;
  mutable sat_propagations : int;
  mutable per_ii_s : (int * float) list;
  mutable wall_s : float;
}

let create_stats = Telemetry.create
let merge_stats = Telemetry.merge
let per_ii_times = Telemetry.per_ii
let stats_to_json = Telemetry.to_json

let map ?stats req dfg = Search.run ?stats req dfg

let map_exn ?stats req dfg =
  match map ?stats req dfg with
  | Ok m -> m
  | Error msg -> failwith ("Mapper.map: " ^ msg)
