(* Tests for the fault subsystem: the seeded fault model, fault-aware
   mapping (dead tiles / dead links / guard bands), resilient streaming
   execution, and campaign determinism. *)

open Iced_arch
module F = Iced_fault.Fault
module Campaign = Iced_campaign.Campaign
module P = Iced_stream.Pipeline
module Part = Iced_stream.Partition
module R = Iced_stream.Runner
module W = Iced_stream.Workload
module Mapper = Iced_mapper.Mapper
module Mapping = Iced_mapper.Mapping

let cgra = Cgra.iced_6x6

(* ---------------- the fault model ---------------- *)

let test_plan_sorted_and_validated () =
  let plan =
    F.make [ { F.at_input = 9; fault = F.Tile_dead 1 };
             { F.at_input = 2; fault = F.Island_down 0 } ]
  in
  Alcotest.(check (list int)) "sorted by input" [ 2; 9 ]
    (List.map (fun e -> e.F.at_input) plan.F.events);
  Alcotest.(check bool) "negative index rejected" true
    (try
       ignore (F.make [ { F.at_input = -1; fault = F.Tile_dead 0 } ]);
       false
     with Invalid_argument _ -> true)

let test_events_at () =
  let plan =
    F.make
      [ { F.at_input = 5; fault = F.Tile_dead 1 };
        { F.at_input = 5; fault = F.Island_down 2 };
        { F.at_input = 7; fault = F.Tile_dead 3 } ]
  in
  Alcotest.(check int) "two at 5" 2 (List.length (F.events_at plan 5));
  Alcotest.(check int) "none at 6" 0 (List.length (F.events_at plan 6));
  Alcotest.(check bool) "empty plan is empty" true (F.is_empty F.none)

let test_random_plan_deterministic () =
  let mk seed =
    F.random_plan ~seed ~cgra ~inputs:100
      ~kinds:[ F.Tile; F.Link; F.Island; F.Upset ] ~count:8 ()
  in
  Alcotest.(check bool) "same seed, same plan" true (mk 5 = mk 5);
  Alcotest.(check bool) "different seeds differ" true (mk 5 <> mk 6);
  List.iter
    (fun e ->
      if e.F.at_input < 1 || e.F.at_input > 99 then
        Alcotest.failf "event outside the stream: input %d" e.F.at_input;
      let island = F.island_of cgra e.F.fault in
      if island < 0 || island >= Cgra.island_count cgra then
        Alcotest.failf "fault outside the fabric: island %d" island)
    (mk 5).F.events

let test_fault_classes () =
  Alcotest.(check bool) "tile permanent" true (F.permanent (F.Tile_dead 0));
  Alcotest.(check bool) "island permanent" true (F.permanent (F.Island_down 0));
  Alcotest.(check bool) "upsets transient" false
    (F.permanent (F.Upsets { island = 0; rate = 0.1 }));
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (F.class_to_string cls) true
        (F.class_of_string (F.class_to_string cls) = Some cls))
    [ F.Tile; F.Link; F.Island; F.Upset ]

let test_upset_rate_tracks_level () =
  let rate = 1e-3 in
  Alcotest.(check (float 1e-12)) "full at rest" rate (F.upset_rate ~rate Dvfs.Rest);
  Alcotest.(check (float 1e-12)) "16x margin at relax" (rate /. 16.0)
    (F.upset_rate ~rate Dvfs.Relax);
  Alcotest.(check (float 1e-12)) "clean at normal" 0.0 (F.upset_rate ~rate Dvfs.Normal);
  Alcotest.(check (float 1e-12)) "gated island cannot upset" 0.0
    (F.upset_rate ~rate Dvfs.Power_gated)

let test_upset_probability_bounds () =
  Alcotest.(check (float 1e-12)) "zero rate" 0.0
    (F.upset_probability ~rate:0.0 ~cycles:1000);
  Alcotest.(check (float 1e-12)) "zero cycles" 0.0
    (F.upset_probability ~rate:0.5 ~cycles:0);
  let p = F.upset_probability ~rate:1e-3 ~cycles:500 in
  Alcotest.(check bool) "in (0, 1)" true (p > 0.0 && p < 1.0);
  Alcotest.(check bool) "more cycles, more risk" true
    (F.upset_probability ~rate:1e-3 ~cycles:1000 > p)

let test_upset_draw_pure () =
  let d = F.upset_draw ~seed:3 ~input:17 ~salt:"solver0" in
  Alcotest.(check bool) "in [0, 1)" true (d >= 0.0 && d < 1.0);
  Alcotest.(check (float 0.0)) "pure function" d
    (F.upset_draw ~seed:3 ~input:17 ~salt:"solver0");
  Alcotest.(check bool) "salt matters" true
    (d <> F.upset_draw ~seed:3 ~input:17 ~salt:"solver1");
  Alcotest.(check bool) "input matters" true
    (d <> F.upset_draw ~seed:3 ~input:18 ~salt:"solver0")

(* ---------------- fault-aware mapping ---------------- *)

let kernel () =
  match Iced_kernels.Registry.by_name "fir" with
  | Some k -> k
  | None -> Alcotest.fail "fir kernel missing"

let test_mapper_avoids_dead_tiles () =
  let k = kernel () in
  let dead = [ 0; 7 ] in
  match Mapper.map (Mapper.request ~dead_tiles:dead cgra) k.Iced_kernels.Kernel.dfg with
  | Error e -> Alcotest.failf "mapping failed around dead tiles: %s" e
  | Ok m ->
    List.iter
      (fun tile ->
        if List.mem tile dead then Alcotest.failf "placed on dead tile %d" tile)
      (Mapping.used_tiles m);
    List.iter
      (fun (r : Mapping.route) ->
        List.iter
          (fun (h : Mapping.hop) ->
            if List.mem h.Mapping.tile dead then
              Alcotest.failf "routed through dead tile %d" h.Mapping.tile)
          r.Mapping.hops)
      m.Mapping.routes

(* Every backend must route around dead links: the incremental router
   through MRRG freedom, Pathfinder through the forbidding price its
   port pricing gives a dead slot.  These links cost fir no II, so each
   backend must also match its healthy-fabric II: a router that planned
   through a dead link would only find out at commit and climb the II
   ladder instead. *)
let test_mapper_avoids_dead_links () =
  let k = kernel () in
  (* kill every eastward port of the westmost column's neighbours *)
  let dead = [ (0, Dir.East); (1, Dir.South); (6, Dir.East) ] in
  List.iter
    (fun backend ->
      let name = Iced_mapper.Backend.to_string backend in
      let healthy_ii =
        match Mapper.map (Mapper.request ~backend cgra) k.Iced_kernels.Kernel.dfg with
        | Ok m -> m.Mapping.ii
        | Error e -> Alcotest.failf "%s: mapping failed on the healthy fabric: %s" name e
      in
      match
        Mapper.map (Mapper.request ~backend ~dead_links:dead cgra) k.Iced_kernels.Kernel.dfg
      with
      | Error e -> Alcotest.failf "%s: mapping failed around dead links: %s" name e
      | Ok m ->
        Alcotest.(check int) (name ^ ": II around dead links") healthy_ii m.Mapping.ii;
        List.iter
          (fun (r : Mapping.route) ->
            List.iter
              (fun (h : Mapping.hop) ->
                if List.mem (h.Mapping.tile, h.Mapping.dir) dead then
                  Alcotest.failf "%s: routed through dead link tile %d" name h.Mapping.tile)
              r.Mapping.hops)
          m.Mapping.routes)
    Iced_mapper.Backend.[ default; sa; pathfinder ]

let test_mapper_all_tiles_dead () =
  let k = kernel () in
  let all = List.init (Cgra.tile_count cgra) Fun.id in
  match Mapper.map (Mapper.request ~dead_tiles:all cgra) k.Iced_kernels.Kernel.dfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mapped onto a fully-faulted fabric"

let test_label_guard_raises_floor () =
  let k = kernel () in
  let tiles = List.init (Cgra.tile_count cgra) Fun.id in
  let lowest labels =
    List.fold_left
      (fun acc (_, l) -> if Dvfs.faster acc l then l else acc)
      Dvfs.Normal labels
  in
  let base =
    Iced_mapper.Labeling.label k.Iced_kernels.Kernel.dfg ~cgra ~tiles ~ii:8
  in
  let guarded =
    Iced_mapper.Labeling.label ~guard:1 k.Iced_kernels.Kernel.dfg ~cgra ~tiles ~ii:8
  in
  Alcotest.(check bool) "guard raises the lowest label" true
    (Dvfs.faster (lowest guarded) (lowest base)
    || (lowest base = Dvfs.Normal && lowest guarded = Dvfs.Normal));
  let pinned =
    Iced_mapper.Labeling.label ~guard:3 k.Iced_kernels.Kernel.dfg ~cgra ~tiles ~ii:8
  in
  List.iter
    (fun (n, l) ->
      if l <> Dvfs.Normal then Alcotest.failf "node %d below Normal under guard 3" n)
    pinned

(* ---------------- resilient execution ---------------- *)

let lu_prepared =
  lazy
    (let inputs = List.map P.of_lu_matrix (W.ufl_matrices ~seed:7 ()) in
     let profile = List.filteri (fun i _ -> i mod 3 = 0) inputs in
     match Part.prepare cgra (P.lu ()) ~profile with
     | Ok p -> (p, inputs)
     | Error e -> failwith e)

let test_no_fault_plan_is_identity () =
  let p, inputs = Lazy.force lu_prepared in
  let short = List.filteri (fun i _ -> i < 60) inputs in
  List.iter
    (fun policy ->
      let plain = R.run p policy short in
      let resilient, stats =
        R.run_resilient ~faults:F.none ~recovery:R.Remap p policy short
      in
      Alcotest.(check bool)
        (R.policy_to_string policy ^ ": reports identical")
        true (plain = resilient);
      Alcotest.(check int) "nothing injected" 0 stats.R.injected;
      Alcotest.(check int) "all inputs completed" (List.length short) stats.R.completed)
    [ R.Static; R.Iced_dvfs; R.Drips ]

let retention ~baseline (stats : R.fault_stats) (totals : R.totals) =
  float_of_int stats.R.completed
  /. float_of_int stats.R.offered
  *. Float.min 1.0
       (totals.R.overall_throughput_per_s /. baseline.R.overall_throughput_per_s)

let test_single_tile_fault_recovery () =
  let p, inputs = Lazy.force lu_prepared in
  let baseline = R.aggregate (R.run p R.Iced_dvfs inputs) in
  let plan = F.make ~seed:1 [ { F.at_input = 50; fault = F.Tile_dead 0 } ] in
  let outcome recovery =
    let reports, stats = R.run_resilient ~faults:plan ~recovery p R.Iced_dvfs inputs in
    (stats, retention ~baseline stats (R.aggregate reports))
  in
  let remap_stats, remap_ret = outcome R.Remap in
  Alcotest.(check int) "remap completes the stream" remap_stats.R.offered
    remap_stats.R.completed;
  Alcotest.(check bool) "remap keeps >= 50% throughput" true (remap_ret >= 0.5);
  let gate_stats, gate_ret = outcome R.Gate_island in
  Alcotest.(check int) "gate completes the stream" gate_stats.R.offered
    gate_stats.R.completed;
  Alcotest.(check bool) "gate keeps >= 50% throughput" true (gate_ret >= 0.5);
  Alcotest.(check bool) "gate powered an island off" true
    (gate_stats.R.islands_gated >= 1);
  let fs_stats, fs_ret = outcome R.Fail_stop in
  Alcotest.(check bool) "fail-stop loses the tail" true
    (fs_stats.R.completed < fs_stats.R.offered);
  Alcotest.(check int) "fail-stop reports the loss"
    (fs_stats.R.offered - fs_stats.R.completed)
    fs_stats.R.inputs_dropped;
  Alcotest.(check bool) "fail-stop retention below remap" true (fs_ret < remap_ret)

let test_upsets_recovered_by_raise () =
  let p, inputs = Lazy.force lu_prepared in
  (* strike an island whose kernel the runtime lowers to Rest *)
  let island =
    let rec first = function
      | [] -> 0
      | (label, floor) :: rest ->
        if floor = Dvfs.Rest then List.hd (List.assoc label p.Part.island_ids)
        else first rest
    in
    first p.Part.level_floors
  in
  let plan =
    F.make ~seed:2 [ { F.at_input = 30; fault = F.Upsets { island; rate = 5e-3 } } ]
  in
  let _, raise_stats =
    R.run_resilient ~faults:plan ~recovery:R.Raise_level p R.Iced_dvfs inputs
  in
  Alcotest.(check int) "raise pins the kernel" 1 raise_stats.R.levels_raised;
  Alcotest.(check int) "raised run replays nothing" 0 raise_stats.R.inputs_replayed;
  Alcotest.(check int) "raised run completes" raise_stats.R.offered
    raise_stats.R.completed;
  let _, endure_stats =
    R.run_resilient ~faults:plan ~recovery:R.Remap p R.Iced_dvfs inputs
  in
  Alcotest.(check bool) "enduring the upsets costs replays" true
    (endure_stats.R.inputs_replayed > 0)

let test_drips_rejects_faults () =
  let p, inputs = Lazy.force lu_prepared in
  let plan = F.make [ { F.at_input = 1; fault = F.Tile_dead 0 } ] in
  Alcotest.(check bool) "drips has no fault model" true
    (try
       ignore (R.run_resilient ~faults:plan p R.Drips inputs);
       false
     with Invalid_argument _ -> true)

(* ---------------- campaign ---------------- *)

let small_spec workers =
  {
    Campaign.default_spec with
    Campaign.seeds = [ 0; 1 ];
    recoveries = [ R.Remap; R.Fail_stop ];
    inputs = 40;
    workers;
  }

let test_campaign_workers_deterministic () =
  let run workers =
    match Campaign.run (small_spec workers) with
    | Ok c -> (Campaign.csv c, Campaign.json c)
    | Error e -> Alcotest.failf "campaign failed: %s" e
  in
  let serial = run 1 and parallel = run 3 in
  Alcotest.(check string) "csv byte-identical across workers" (fst serial)
    (fst parallel);
  Alcotest.(check string) "json byte-identical across workers" (snd serial)
    (snd parallel)

let test_campaign_validates_spec () =
  let bad spec = match Campaign.run spec with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "drips rejected" true
    (bad { Campaign.default_spec with Campaign.policy = R.Drips });
  Alcotest.(check bool) "no seeds rejected" true
    (bad { Campaign.default_spec with Campaign.seeds = [] });
  Alcotest.(check bool) "no kinds rejected" true
    (bad { Campaign.default_spec with Campaign.kinds = [] })

let suite =
  [
    ("plan: sorted and validated", `Quick, test_plan_sorted_and_validated);
    ("plan: events_at", `Quick, test_events_at);
    ("plan: random plans deterministic", `Quick, test_random_plan_deterministic);
    ("model: fault classes", `Quick, test_fault_classes);
    ("model: upset rate tracks level", `Quick, test_upset_rate_tracks_level);
    ("model: upset probability bounds", `Quick, test_upset_probability_bounds);
    ("model: upset draw is pure", `Quick, test_upset_draw_pure);
    ("mapper: avoids dead tiles", `Slow, test_mapper_avoids_dead_tiles);
    ("mapper: avoids dead links", `Slow, test_mapper_avoids_dead_links);
    ("mapper: fully-faulted fabric fails", `Quick, test_mapper_all_tiles_dead);
    ("labeling: guard raises the floor", `Quick, test_label_guard_raises_floor);
    ("runner: empty plan is identity", `Slow, test_no_fault_plan_is_identity);
    ("runner: single tile fault recovery", `Slow, test_single_tile_fault_recovery);
    ("runner: raise clears upsets", `Slow, test_upsets_recovered_by_raise);
    ("runner: drips rejects faults", `Quick, test_drips_rejects_faults);
    ("campaign: workers deterministic", `Slow, test_campaign_workers_deterministic);
    ("campaign: spec validation", `Quick, test_campaign_validates_spec);
  ]
