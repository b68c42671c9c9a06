(* Tests for the streaming stack: workloads, pipelines, partitioning,
   the DVFS controller, DRIPS, and the runner. *)

open Iced_arch
module W = Iced_stream.Workload
module P = Iced_stream.Pipeline
module Part = Iced_stream.Partition
module C = Iced_stream.Controller
module D = Iced_stream.Drips
module R = Iced_stream.Runner

let cgra = Cgra.iced_6x6

(* ---------------- Workload ---------------- *)

let test_enzyme_stream () =
  let graphs = W.enzyme_graphs ~seed:1 () in
  Alcotest.(check int) "600 graphs" 600 (List.length graphs);
  List.iter
    (fun (g : W.gcn_graph) ->
      if g.vertices < 8 || g.vertices > 96 then Alcotest.failf "vertices %d" g.vertices;
      if g.edges < g.vertices then Alcotest.failf "edges %d < vertices" g.edges)
    graphs;
  let mean = W.mean_degree graphs in
  Alcotest.(check bool) "mean degree plausible (paper 32.6)" true (mean > 10.0 && mean < 70.0)

let test_enzyme_deterministic () =
  Alcotest.(check bool) "same seed same stream" true
    (W.enzyme_graphs ~seed:3 () = W.enzyme_graphs ~seed:3 ());
  Alcotest.(check bool) "different seeds differ" true
    (W.enzyme_graphs ~seed:3 () <> W.enzyme_graphs ~seed:4 ())

let test_ufl_stream () =
  let mats = W.ufl_matrices ~seed:1 () in
  Alcotest.(check int) "150 matrices" 150 (List.length mats);
  List.iter
    (fun (m : W.lu_matrix) ->
      if m.dim < 12 || m.dim > 100 then Alcotest.failf "dim %d" m.dim;
      if m.nnz < m.dim || m.nnz > m.dim * m.dim then Alcotest.failf "nnz %d" m.nnz)
    mats

(* ---------------- Pipeline ---------------- *)

let test_gcn_pipeline_shape () =
  let p = P.gcn () in
  Alcotest.(check int) "6 stages" 6 (List.length p.P.stages);
  Alcotest.(check int) "6 instances" 6 (List.length (P.instances p));
  (* aggregate appears twice *)
  let aggs =
    List.filter
      (fun (i : P.instance) -> i.P.kernel.Iced_kernels.Kernel.name = "aggregate")
      (P.instances p)
  in
  Alcotest.(check int) "aggregate twice" 2 (List.length aggs)

let test_lu_pipeline_shape () =
  let p = P.lu () in
  Alcotest.(check int) "4 stages" 4 (List.length p.P.stages);
  Alcotest.(check int) "6 kernels" 6 (List.length (P.instances p));
  let parallel = List.filter (fun s -> List.length s > 1) p.P.stages in
  Alcotest.(check int) "two parallel stages" 2 (List.length parallel)

let test_pipeline_iterations_scale () =
  let p = P.gcn () in
  let sparse = P.of_gcn_graph { W.id = 0; vertices = 30; edges = 30 } in
  let dense = P.of_gcn_graph { W.id = 1; vertices = 30; edges = 900 } in
  let agg = P.find p "aggregate.0" in
  Alcotest.(check bool) "aggregate tracks edges" true
    (agg.P.iterations dense > 10 * agg.P.iterations sparse);
  let comb = P.find p "combine" in
  Alcotest.(check int) "combine fixed per vertex-count" (comb.P.iterations sparse)
    (comb.P.iterations dense)

let test_pipeline_find () =
  let p = P.gcn () in
  Alcotest.(check bool) "find works" true ((P.find p "pooling").P.label = "pooling");
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (P.find p "nope");
       false
     with Not_found -> true)

(* ---------------- Partition ---------------- *)

(* an app's whole dataset and its partition, as every edge sets it up *)
let prepared_app app =
  lazy
    (let inputs = Iced_stream.App.inputs app in
     match Iced_stream.App.partition app inputs with
     | Ok p -> (p, inputs)
     | Error e -> failwith e)

let prepared = prepared_app Iced_stream.App.Gcn

let test_partition_allocates_all_islands () =
  let p, _ = Lazy.force prepared in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 p.Part.allocation in
  Alcotest.(check int) "all 9 islands" 9 total;
  List.iter
    (fun (label, c) ->
      if c < 1 then Alcotest.failf "%s got %d islands" label c)
    p.Part.allocation

let test_partition_island_ids_disjoint () =
  let p, _ = Lazy.force prepared in
  let all = List.concat_map snd p.Part.island_ids in
  Alcotest.(check int) "disjoint cover" 9 (List.length (List.sort_uniq compare all))

let test_partition_ii_monotone () =
  let p, _ = Lazy.force prepared in
  List.iter
    (fun (label, _) ->
      let rec check best k =
        if k > 6 then ()
        else begin
          let ii = Part.ii_for p label k in
          if ii < max_int then begin
            if ii > best then Alcotest.failf "%s II grew with more islands" label;
            check ii (k + 1)
          end
          else check best (k + 1)
        end
      in
      check max_int 1)
    p.Part.allocation

let test_partition_levels_floors () =
  let p, _ = Lazy.force prepared in
  Alcotest.(check int) "floor per instance" (List.length p.Part.allocation)
    (List.length p.Part.level_floors)

let test_partition_too_many_kernels () =
  let tiny = Cgra.make ~rows:2 ~cols:2 () in
  let inputs = List.map P.of_gcn_graph (W.enzyme_graphs ~seed:1 ~count:10 ()) in
  match Part.prepare tiny (P.gcn ()) ~profile:inputs with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "6 kernels cannot fit 1 island"

let lu_prepared = prepared_app Iced_stream.App.Lu

let test_lu_partition () =
  let p, _ = Lazy.force lu_prepared in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 p.Part.allocation in
  Alcotest.(check int) "all islands" 9 total;
  (* the heavy solvers must be mappable on their allocation *)
  List.iter
    (fun (label, count) ->
      Alcotest.(check bool)
        (label ^ " maps at its allocation")
        true
        (Part.ii_for p label count < max_int))
    p.Part.allocation

let test_lu_iced_beats_drips () =
  let p, inputs = Lazy.force lu_prepared in
  let iced = R.aggregate (R.run p R.Iced_dvfs inputs) in
  let drips = R.aggregate (R.run p R.Drips inputs) in
  Alcotest.(check bool) "LU: iced more efficient (Fig. 13)" true
    (iced.R.overall_efficiency > drips.R.overall_efficiency)

(* ---------------- Controller ---------------- *)

let test_controller_initial_levels () =
  let c = C.create ~labels:[ "a"; "b" ] () in
  Alcotest.(check bool) "starts normal" true (C.level c "a" = Dvfs.Normal);
  Alcotest.(check int) "default window" 10 (C.window c)

let feed c label time = C.observe c ~label ~busy_time:time

let test_controller_lowers_slack () =
  let c = C.create ~window:5 ~labels:[ "slow"; "fast" ] () in
  for _ = 1 to 5 do
    feed c "slow" 100.0;
    feed c "fast" 10.0;
    C.input_done c
  done;
  Alcotest.(check bool) "bottleneck stays normal" true (C.level c "slow" = Dvfs.Normal);
  Alcotest.(check bool) "slack kernel lowered" true (C.level c "fast" <> Dvfs.Normal)

let test_controller_never_lowers_bottleneck () =
  let c = C.create ~window:5 ~labels:[ "only" ] () in
  for _ = 1 to 25 do
    feed c "only" 50.0;
    C.input_done c
  done;
  Alcotest.(check bool) "sole kernel is the bottleneck" true (C.level c "only" = Dvfs.Normal)

let test_controller_restores_new_bottleneck () =
  let c = C.create ~window:5 ~labels:[ "a"; "b" ] () in
  (* phase 1: b has slack and is lowered *)
  for _ = 1 to 10 do
    feed c "a" 100.0;
    feed c "b" 10.0;
    C.input_done c
  done;
  Alcotest.(check bool) "b lowered" true (C.level c "b" <> Dvfs.Normal);
  (* phase 2: b becomes the bottleneck; controller snaps it back *)
  for _ = 1 to 5 do
    feed c "a" 10.0;
    feed c "b" 400.0;
    C.input_done c
  done;
  Alcotest.(check bool) "b restored" true (C.level c "b" = Dvfs.Normal)

let test_controller_respects_floor () =
  let c = C.create ~window:2 ~label_floors:[ ("b", Dvfs.Relax) ] ~labels:[ "a"; "b" ] () in
  for _ = 1 to 30 do
    feed c "a" 1000.0;
    feed c "b" 1.0;
    C.input_done c
  done;
  Alcotest.(check bool) "b no lower than its floor" true
    (Dvfs.at_most Dvfs.Relax (C.level c "b"))

let test_controller_window_boundary () =
  let c = C.create ~window:10 ~labels:[ "a"; "b" ] () in
  for _ = 1 to 9 do
    feed c "a" 100.0;
    feed c "b" 1.0;
    C.input_done c
  done;
  Alcotest.(check bool) "no change before the window closes" true
    (C.level c "b" = Dvfs.Normal);
  feed c "a" 100.0;
  feed c "b" 1.0;
  C.input_done c;
  Alcotest.(check bool) "adjusts on the boundary" true (C.level c "b" <> Dvfs.Normal);
  Alcotest.(check bool) "counted" true (C.adjustments c >= 1)

let test_controller_starved_kernel_keeps_level () =
  (* Regression: a kernel that produced no samples in a window used to
     read as worst = 0 and be stepped down unconditionally — then cost
     a slow window the moment its phase returned.  The decayed
     cross-window memory must speak for it instead. *)
  let c = C.create ~window:5 ~labels:[ "a"; "b" ] () in
  for _ = 1 to 5 do
    feed c "a" 100.0;
    feed c "b" 90.0;
    C.input_done c
  done;
  Alcotest.(check bool) "b near the bottleneck stays normal" true
    (C.level c "b" = Dvfs.Normal);
  (* one starved window: b's memory (90 decayed to 45, doubled to 90)
     still exceeds the 0.8 * 100 guard band *)
  for _ = 1 to 5 do
    feed c "a" 100.0;
    C.input_done c
  done;
  Alcotest.(check bool) "one starved window does not lower b" true
    (C.level c "b" = Dvfs.Normal);
  (* but a kernel that stays idle is lowered once the memory fades *)
  for _ = 1 to 20 do
    feed c "a" 100.0;
    C.input_done c
  done;
  Alcotest.(check bool) "a long-idle kernel is eventually lowered" true
    (C.level c "b" <> Dvfs.Normal)

let test_controller_settle_is_monotone () =
  let c = C.create ~window:5 ~labels:[ "a"; "b" ] () in
  (* two windows of heavy slack walk b down to Rest *)
  for _ = 1 to 10 do
    feed c "a" 400.0;
    feed c "b" 1.0;
    C.input_done c
  done;
  Alcotest.(check bool) "b reaches rest" true (C.level c "b" = Dvfs.Rest);
  (* b's work grows: at Rest the observed time crowds the bottleneck,
     so one adjustment raises it exactly far enough (one level) *)
  for _ = 1 to 5 do
    feed c "a" 400.0;
    feed c "b" 380.0;
    C.input_done c
  done;
  Alcotest.(check bool) "raised one level" true (C.level c "b" = Dvfs.Relax);
  (* the same work at Relax takes half the time and now fits with
     margin on both sides: the level is stable, no oscillation *)
  for _ = 1 to 5 do
    feed c "a" 400.0;
    feed c "b" 190.0;
    C.input_done c
  done;
  Alcotest.(check bool) "stable at relax" true (C.level c "b" = Dvfs.Relax)

(* ---------------- Drips ---------------- *)

let test_drips_conserves_islands () =
  let p, inputs = Lazy.force prepared in
  let d = D.create ~window:10 p in
  let reports = ref 0 in
  List.iteri
    (fun i input ->
      if i < 200 then begin
        List.iter
          (fun (instance : P.instance) ->
            let label = instance.P.label in
            let t = float_of_int (instance.P.iterations input) in
            D.observe d ~label ~busy_time:t)
          (P.instances p.Part.pipeline);
        D.input_done d;
        incr reports;
        let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (D.allocation d) in
        Alcotest.(check int) "9 islands always" 9 total;
        List.iter (fun (_, c) -> if c < 1 then Alcotest.fail "starved kernel") (D.allocation d)
      end)
    inputs

(* ---------------- Runner ---------------- *)

let test_runner_reports () =
  let p, inputs = Lazy.force prepared in
  let short = List.filteri (fun i _ -> i < 100) inputs in
  let reports = R.run p R.Static short in
  Alcotest.(check int) "10 windows of 10" 10 (List.length reports);
  List.iter
    (fun (w : R.window_report) ->
      if w.throughput_per_s <= 0.0 then Alcotest.fail "non-positive throughput";
      if w.power_mw <= 0.0 then Alcotest.fail "non-positive power";
      Alcotest.(check int) "10 inputs per window" 10 w.inputs)
    reports

let test_runner_static_all_normal () =
  let p, inputs = Lazy.force prepared in
  let short = List.filteri (fun i _ -> i < 30) inputs in
  List.iter
    (fun (w : R.window_report) ->
      List.iter
        (fun (_, level) -> Alcotest.(check bool) "normal" true (level = Dvfs.Normal))
        w.levels)
    (R.run p R.Static short)

let test_runner_iced_saves_energy () =
  let p, inputs = Lazy.force prepared in
  let iced = R.aggregate (R.run p R.Iced_dvfs inputs) in
  let drips = R.aggregate (R.run p R.Drips inputs) in
  Alcotest.(check bool) "ICED more efficient than DRIPS (Fig. 13)" true
    (iced.R.overall_efficiency > drips.R.overall_efficiency);
  Alcotest.(check bool) "throughput within 5% of DRIPS" true
    (iced.R.overall_throughput_per_s > 0.95 *. drips.R.overall_throughput_per_s)

let test_runner_aggregate_consistency () =
  let p, inputs = Lazy.force prepared in
  let short = List.filteri (fun i _ -> i < 50) inputs in
  let reports = R.run p R.Static short in
  let t = R.aggregate reports in
  Alcotest.(check int) "inputs counted" 50 t.R.total_inputs;
  Alcotest.(check bool) "energy positive" true (t.R.total_energy_uj > 0.0)

let test_runner_aggregate_empty_is_finite () =
  let t = R.aggregate [] in
  Alcotest.(check int) "no inputs" 0 t.R.total_inputs;
  Alcotest.(check (float 0.0)) "zero throughput, not nan" 0.0
    t.R.overall_throughput_per_s;
  Alcotest.(check (float 0.0)) "zero efficiency, not nan" 0.0 t.R.overall_efficiency

(* ---------------- Candidate pricing ---------------- *)

(* A candidate's stored activities are what Metrics gives for its
   mapping: each tile's busy slots over the II, in [mapping.tiles]
   order, and the SRAM activity. *)
let check_priced what (c : Part.candidate) =
  let m = c.Part.mapping in
  let ii = float_of_int m.Iced_mapper.Mapping.ii in
  Alcotest.(check (list (float 0.0)))
    (what ^ " tile activity")
    (List.map
       (fun (tm : Iced_sim.Metrics.tile_metrics) -> float_of_int tm.busy_slots /. ii)
       (Iced_sim.Metrics.per_tile m))
    c.Part.tile_activity;
  Alcotest.(check (float 0.0)) (what ^ " sram activity")
    (Iced_sim.Metrics.sram_activity m) c.Part.sram_activity

let test_candidates_priced () =
  List.iter
    (fun (app, prepared) ->
      let p, _ = Lazy.force prepared in
      List.iter
        (fun (pi : Part.prepared_instance) ->
          List.iter
            (fun (c : Part.candidate) ->
              check_priced
                (Printf.sprintf "%s %s at %d islands" app pi.Part.instance.P.label c.Part.islands)
                c)
            pi.Part.candidates)
        p.Part.prepared)
    [ ("gcn", prepared); ("lu", lu_prepared) ];
  (* a recovery override: remapped around a dead tile as the runner's
     Remap recovery does, then priced by the same constructor *)
  let p, _ = Lazy.force lu_prepared in
  let pi = List.hd p.Part.prepared in
  let count = 2 in
  let tiles = List.concat_map (Cgra.island_tiles cgra) (List.init count Fun.id) in
  let dead = List.nth tiles 1 in
  let req =
    Iced_mapper.Mapper.request ~strategy:Iced_mapper.Mapper.Dvfs_aware ~tiles
      ~label_floor:Dvfs.Relax ~dead_tiles:[ dead ] cgra
  in
  match Iced_mapper.Mapper.map req pi.Part.instance.P.kernel.Iced_kernels.Kernel.dfg with
  | Error e -> Alcotest.failf "remap around tile %d: %s" dead e
  | Ok m ->
    let c =
      Part.candidate ~islands:count
        (Iced_mapper.Levels.assign ~floor:Dvfs.Relax ~allow_gating:false m)
    in
    Alcotest.(check bool) "the override avoids the dead tile" false
      (List.mem dead c.Part.mapping.Iced_mapper.Mapping.tiles);
    check_priced "remapped override" c

(* A counted stream is a prefix of a longer one, past the dataset's
   size too: the generators draw in order. *)
let test_app_streams_are_prefixes () =
  List.iter
    (fun (app, size) ->
      let name = Iced_stream.App.to_string app in
      let full = Iced_stream.App.inputs app in
      Alcotest.(check int) (name ^ " dataset size") size (List.length full);
      let longer = Iced_stream.App.inputs ~count:(size + 50) app in
      Alcotest.(check int) (name ^ " counted past the dataset") (size + 50)
        (List.length longer);
      List.iter
        (fun n ->
          let prefix l = List.filteri (fun i _ -> i < n) l in
          Alcotest.(check bool)
            (Printf.sprintf "%s %d is a prefix" name n)
            true
            (Iced_stream.App.inputs ~count:n app = prefix full
            && prefix longer = prefix full))
        [ 1; 12; size ])
    [ (Iced_stream.App.Gcn, 600); (Iced_stream.App.Lu, 150) ]

(* The runner asks a fault plan for each input's events; the indexed
   lookup must give exactly the filter over the plan's events, in plan
   order, including inputs with several events and none. *)
let prop_events_at_is_filter =
  let module Fault = Iced_fault.Fault in
  QCheck.Test.make ~name:"fault plan: events_at = filter over events" ~count:300
    QCheck.(list_of_size Gen.(0 -- 40) (pair (int_bound 12) (int_bound 35)))
    (fun raw ->
      let plan =
        Fault.make
          (List.map (fun (at_input, tile) -> { Fault.at_input; fault = Fault.Tile_dead tile }) raw)
      in
      List.for_all
        (fun i ->
          Fault.events_at plan i
          = List.filter_map
              (fun (e : Fault.event) -> if e.at_input = i then Some e.fault else None)
              plan.Fault.events)
        (List.init 16 (fun i -> i - 1)))

let suite =
  [
    ("workload: enzyme stream", `Quick, test_enzyme_stream);
    ("workload: deterministic", `Quick, test_enzyme_deterministic);
    ("workload: ufl stream", `Quick, test_ufl_stream);
    ("pipeline: gcn shape", `Quick, test_gcn_pipeline_shape);
    ("pipeline: lu shape", `Quick, test_lu_pipeline_shape);
    ("pipeline: data-dependent iterations", `Quick, test_pipeline_iterations_scale);
    ("pipeline: find", `Quick, test_pipeline_find);
    ("partition: allocates all islands", `Slow, test_partition_allocates_all_islands);
    ("partition: island ids disjoint", `Slow, test_partition_island_ids_disjoint);
    ("partition: II monotone in islands", `Slow, test_partition_ii_monotone);
    ("partition: floors per instance", `Slow, test_partition_levels_floors);
    ("partition: too many kernels", `Quick, test_partition_too_many_kernels);
    ("controller: initial levels", `Quick, test_controller_initial_levels);
    ("controller: lowers slack kernels", `Quick, test_controller_lowers_slack);
    ("controller: bottleneck never lowered", `Quick, test_controller_never_lowers_bottleneck);
    ("controller: restores a new bottleneck", `Quick, test_controller_restores_new_bottleneck);
    ("controller: respects compile floor", `Quick, test_controller_respects_floor);
    ("controller: window boundary", `Quick, test_controller_window_boundary);
    ("controller: starved kernel keeps its level", `Quick,
     test_controller_starved_kernel_keeps_level);
    ("controller: settle is monotone", `Quick, test_controller_settle_is_monotone);
    ("drips: conserves islands", `Slow, test_drips_conserves_islands);
    ("runner: window reports", `Slow, test_runner_reports);
    ("runner: static all normal", `Slow, test_runner_static_all_normal);
    ("runner: iced beats drips (Fig. 13)", `Slow, test_runner_iced_saves_energy);
    ("runner: aggregate consistency", `Slow, test_runner_aggregate_consistency);
    ("runner: aggregate of nothing is finite", `Quick,
     test_runner_aggregate_empty_is_finite);
    ("lu: partition feasible", `Slow, test_lu_partition);
    ("lu: iced beats drips (Fig. 13)", `Slow, test_lu_iced_beats_drips);
    ("partition: candidates priced like a fresh per_tile", `Slow, test_candidates_priced);
    ("app: counted streams are prefixes", `Quick, test_app_streams_are_prefixes);
    QCheck_alcotest.to_alcotest prop_events_at_is_filter;
  ]
