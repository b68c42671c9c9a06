(* Tests for the simulator: op semantics, interpreter/schedule
   equivalence, and static metrics. *)

open Iced_dfg
module Sim = Iced_sim.Sim
module Metrics = Iced_sim.Metrics
module Eval = Iced_sim.Eval

let cgra = Iced_arch.Cgra.iced_6x6

(* ---------------- Eval ---------------- *)

let test_eval_arithmetic () =
  Alcotest.(check int) "add" 6 (Eval.apply Op.Add [ 1; 2; 3 ]);
  Alcotest.(check int) "sub" (-1) (Eval.apply Op.Sub [ 1; 2 ]);
  Alcotest.(check int) "mul" 24 (Eval.apply Op.Mul [ 2; 3; 4 ]);
  Alcotest.(check int) "div" 3 (Eval.apply Op.Div [ 7; 2 ]);
  Alcotest.(check int) "div by zero" 0 (Eval.apply Op.Div [ 7; 0 ]);
  Alcotest.(check int) "rem" 1 (Eval.apply Op.Rem [ 7; 2 ]);
  Alcotest.(check int) "shl" 8 (Eval.apply Op.Shl [ 1; 3 ]);
  Alcotest.(check int) "shr" 2 (Eval.apply Op.Shr [ 8; 2 ]);
  Alcotest.(check int) "and" 4 (Eval.apply Op.And [ 6; 12 ]);
  Alcotest.(check int) "xor" 10 (Eval.apply Op.Xor [ 6; 12 ])

let test_eval_cmp_select () =
  Alcotest.(check int) "lt true" 1 (Eval.apply (Op.Cmp Op.Lt) [ 1; 2 ]);
  Alcotest.(check int) "unary gt vs 0" 0 (Eval.apply (Op.Cmp Op.Gt) [ -3 ]);
  Alcotest.(check int) "select ternary" 7 (Eval.apply Op.Select [ 1; 7; 9 ]);
  Alcotest.(check int) "select else" 9 (Eval.apply Op.Select [ 0; 7; 9 ]);
  Alcotest.(check int) "select binary default 0" 0 (Eval.apply Op.Select [ 0; 7 ])

let test_eval_const_gep_route () =
  Alcotest.(check int) "const" 5 (Eval.apply (Op.Const 5) []);
  Alcotest.(check int) "gep sums" 12 (Eval.apply Op.Gep [ 10; 2 ]);
  Alcotest.(check int) "route identity" 3 (Eval.apply Op.Route [ 3 ])

let test_eval_invalid () =
  List.iter
    (fun op ->
      Alcotest.(check bool) (Op.to_string op ^ " rejected") true
        (try
           ignore (Eval.apply op [ 1 ]);
           false
         with Invalid_argument _ -> true))
    [ Op.Phi; Op.Load; Op.Store ]

(* ---------------- Interpreter ---------------- *)

let test_interpret_invalid_iterations () =
  let fir = Option.get (Iced_kernels.Registry.by_name "fir") in
  Alcotest.check_raises "zero iterations"
    (Invalid_argument "Sim.interpret: non-positive iterations") (fun () ->
      ignore (Sim.interpret fir.dfg ~iterations:0))

let test_interpret_predication () =
  (* a consumer of a carried value is invalid on iteration 0 and its
     store is suppressed *)
  let g = Graph.empty in
  let g, ld = Graph.add_node ~label:"x" g Op.Load in
  let g, dly = Graph.add_node ~label:"dly" g Op.Route in
  let g = Graph.add_edge ~distance:1 g ld dly in
  let g, st = Graph.add_node ~label:"out" g Op.Store in
  let g = Graph.add_edge g dly st in
  let binding =
    { Sim.load = (fun ~label:_ ~iter ~operands:_ -> iter + 10); phi_init = (fun ~label:_ -> 0) }
  in
  let stores = Sim.interpret ~binding g ~iterations:4 in
  (* iteration 0 invalid; iterations 1..3 forward x[i-1] *)
  Alcotest.(check int) "3 valid stores" 3 (List.length stores);
  List.iteri
    (fun idx (ev : Sim.store_event) ->
      Alcotest.(check int) "delayed value" (idx + 10) (List.hd ev.operands))
    stores

(* ---------------- Schedule simulation ---------------- *)

let run_equiv (k : Iced_kernels.Kernel.t) strategy =
  let req = Iced_mapper.Mapper.request ~strategy cgra in
  let m = Iced_mapper.Mapper.map_exn req k.dfg in
  let m = Iced_mapper.Levels.assign m in
  let result = Sim.run ~binding:k.binding m ~iterations:15 in
  let golden = Sim.interpret ~binding:k.binding k.dfg ~iterations:15 in
  Alcotest.(check (list string))
    (k.name ^ " no timing violations")
    [] result.Sim.violations;
  Alcotest.(check bool)
    (k.name ^ " stores match the golden interpreter")
    true
    (result.Sim.stores = golden);
  Alcotest.(check int)
    (k.name ^ " executed all instances")
    (Graph.node_count k.dfg * 15)
    result.Sim.executed

let test_run_matches_interpret_all_kernels () =
  List.iter
    (fun k -> run_equiv k Iced_mapper.Mapper.Dvfs_aware)
    Iced_kernels.Registry.standalone

let test_run_matches_interpret_conventional () =
  List.iter
    (fun k -> run_equiv k Iced_mapper.Mapper.Conventional)
    Iced_kernels.Registry.standalone

let test_run_unrolled_kernels () =
  List.iter
    (fun name ->
      let k = Option.get (Iced_kernels.Registry.by_name name) in
      let g2 = Iced_kernels.Kernel.dfg_at k ~factor:2 in
      let m = Iced_mapper.Mapper.map_exn (Iced_mapper.Mapper.request cgra) g2 in
      let result = Sim.run ~binding:k.binding m ~iterations:10 in
      let golden = Sim.interpret ~binding:k.binding g2 ~iterations:10 in
      Alcotest.(check bool) (name ^ " uf2 equivalence") true (result.Sim.stores = golden))
    [ "fir"; "relu"; "histogram" ]

(* ---------------- Metrics ---------------- *)

let mapping () =
  let fir = Option.get (Iced_kernels.Registry.by_name "fir") in
  Iced_mapper.Levels.assign
    (Iced_mapper.Mapper.map_exn (Iced_mapper.Mapper.request cgra) fir.dfg)

let test_metrics_utilization_bounds () =
  let m = mapping () in
  List.iter
    (fun (tm : Metrics.tile_metrics) ->
      if tm.utilization < 0.0 || tm.utilization > 1.0 then
        Alcotest.failf "utilization out of range: %f" tm.utilization)
    (Metrics.per_tile m);
  let avg = Metrics.average_utilization m in
  Alcotest.(check bool) "avg in (0,1]" true (avg > 0.0 && avg <= 1.0)

let test_metrics_dvfs_fraction () =
  let m = mapping () in
  let avg = Metrics.average_dvfs_fraction m in
  Alcotest.(check bool) "avg level in [0,1]" true (avg >= 0.0 && avg <= 1.0);
  (* fir is tiny: most of the fabric must be gated, pulling the mean
     far below the all-normal value *)
  Alcotest.(check bool) "well below 1 for a small kernel" true (avg < 0.5)

let test_metrics_gated_excluded_from_utilization () =
  let m = mapping () in
  let active =
    List.filter
      (fun (tm : Metrics.tile_metrics) -> Iced_arch.Dvfs.is_active tm.level)
      (Metrics.per_tile m)
  in
  let expected = Iced_util.Stats.mean (List.map (fun tm -> tm.Metrics.utilization) active) in
  Alcotest.(check (float 1e-9)) "matches active-only mean" expected
    (Metrics.average_utilization m)

let test_metrics_total_cycles () =
  let m = mapping () in
  let one = Metrics.total_cycles m ~iterations:1 in
  let two = Metrics.total_cycles m ~iterations:2 in
  Alcotest.(check int) "steady state adds II per iteration" m.Iced_mapper.Mapping.ii
    (two - one);
  Alcotest.(check int) "depth baseline" (Metrics.schedule_depth m) one;
  Alcotest.check_raises "zero iterations"
    (Invalid_argument "Metrics.total_cycles: non-positive iterations") (fun () ->
      ignore (Metrics.total_cycles m ~iterations:0))

let test_metrics_speedup () =
  let m = mapping () in
  Alcotest.(check (float 1e-9)) "nodes / II"
    (float_of_int (Graph.node_count m.Iced_mapper.Mapping.dfg)
    /. float_of_int m.Iced_mapper.Mapping.ii)
    (Metrics.speedup_vs_cpu m)

let test_metrics_sram_activity () =
  let m = mapping () in
  let a = Metrics.sram_activity m in
  Alcotest.(check bool) "in (0,1]" true (a > 0.0 && a <= 1.0)

(* ---------------- Trace ---------------- *)

let test_trace_events () =
  let m = mapping () in
  let events = Iced_sim.Trace.record m ~iterations:3 in
  (* every placement contributes one execute event per iteration *)
  let executes =
    List.filter
      (fun (e : Iced_sim.Trace.event) ->
        match e.activity with `Execute _ -> true | `Route _ -> false)
      events
  in
  Alcotest.(check int) "executes = nodes x iterations"
    (Graph.node_count m.Iced_mapper.Mapping.dfg * 3)
    (List.length executes);
  (* cycle-ordered *)
  let rec ordered = function
    | (a : Iced_sim.Trace.event) :: (b :: _ as rest) -> a.cycle <= b.cycle && ordered rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by cycle" true (ordered events);
  Alcotest.check_raises "bad iterations"
    (Invalid_argument "Trace.record: non-positive iterations") (fun () ->
      ignore (Iced_sim.Trace.record m ~iterations:0))

let test_trace_histogram () =
  let m = mapping () in
  let hist = Iced_sim.Trace.busy_histogram m ~iterations:5 in
  List.iter
    (fun (tile, count) ->
      if count <= 0 then Alcotest.failf "tile %d has %d busy cycles" tile count)
    hist;
  (* only tiles with events appear *)
  Alcotest.(check int) "tiles with activity"
    (List.length (Iced_mapper.Mapping.used_tiles m))
    (List.length hist)

let test_trace_vcd () =
  let m = mapping () in
  let vcd = Iced_sim.Trace.to_vcd m ~iterations:2 in
  List.iter
    (fun needle ->
      let rec scan i =
        i + String.length needle <= String.length vcd
        && (String.sub vcd i (String.length needle) = needle || scan (i + 1))
      in
      if not (scan 0) then Alcotest.failf "VCD missing %s" needle)
    [ "$timescale"; "$enddefinitions"; "$var wire 1 ! clk"; "#0" ]

let test_buffer_occupancy_all_kernels () =
  (* the prototype tile's register file holds a handful of values; no
     kernel mapping may exceed a plausible capacity *)
  List.iter
    (fun (k : Iced_kernels.Kernel.t) ->
      let m =
        Iced_mapper.Levels.assign
          (Iced_mapper.Mapper.map_exn (Iced_mapper.Mapper.request cgra) k.dfg)
      in
      let peak = Metrics.max_buffer_occupancy m in
      if peak > 16 then Alcotest.failf "%s: buffer pressure %d exceeds 16" k.name peak;
      List.iter
        (fun (_, slot, live) ->
          if slot < 0 || slot >= m.Iced_mapper.Mapping.ii then Alcotest.fail "slot range";
          if live <= 0 then Alcotest.fail "non-positive occupancy")
        (Metrics.buffer_occupancy m))
    Iced_kernels.Registry.standalone

let test_buffer_occupancy_counts_waiting_value () =
  (* x fans out to a join that also waits for a two-op chain: the x
     value must sit in buffers while the chain computes *)
  let g = Graph.empty in
  let g, ld = Graph.add_node ~label:"x" g Op.Load in
  let g, a1 = Graph.add_node ~label:"a1" g Op.Add in
  let g, a2 = Graph.add_node ~label:"a2" g Op.Add in
  let g, join = Graph.add_node ~label:"join" g Op.Add in
  let g = Graph.add_edge g ld a1 in
  let g = Graph.add_edge g a1 a2 in
  let g = Graph.add_edge g a2 join in
  let g = Graph.add_edge g ld join in
  let g, st = Graph.add_node ~label:"out" g Op.Store in
  let g = Graph.add_edge g join st in
  let m = Iced_mapper.Mapper.map_exn (Iced_mapper.Mapper.request cgra) g in
  Alcotest.(check bool) "some residency" true (Metrics.max_buffer_occupancy m >= 1)

(* per_tile counts every tile's busy slots in one pass.  The reference
   reads each tile's level and then Mapping.busy_slots_of_tile, as
   per_tile once did; results and raised exceptions must agree.
   Variants shift events to negative times, use negative and zero IIs
   and list a tile past the fabric. *)
let test_metrics_busy_slots_match_definition () =
  let module Mapping = Iced_mapper.Mapping in
  let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  let reference (m : Mapping.t) =
    outcome (fun () ->
        List.map
          (fun tile ->
            ignore (Mapping.level_of_tile m tile);
            List.length (Mapping.busy_slots_of_tile m tile))
          m.tiles)
  in
  let counted m =
    outcome (fun () -> List.map (fun (t : Metrics.tile_metrics) -> t.busy_slots) (Metrics.per_tile m))
  in
  let rng = Iced_util.Rng.create 2207 in
  List.iter
    (fun name ->
      let k = Option.get (Iced_kernels.Registry.by_name name) in
      let m = Iced_mapper.Mapper.map_exn (Iced_mapper.Mapper.request cgra) k.dfg in
      let shift time = time - Iced_util.Rng.int rng (3 * m.ii) in
      let shifted =
        {
          m with
          placements = List.map (fun (id, (tile, time)) -> (id, (tile, shift time))) m.placements;
          routes =
            List.map
              (fun (r : Mapping.route) ->
                { r with hops = List.map (fun (h : Mapping.hop) -> { h with time = shift h.time }) r.hops })
              m.routes;
        }
      in
      List.iter
        (fun (what, (v : Mapping.t)) ->
          Alcotest.(check (result (list int) string)) (name ^ " " ^ what) (reference v) (counted v))
        [
          ("as mapped", m);
          ("shifted earlier", shifted);
          ("ii 3", { shifted with ii = 3 });
          ("ii -4", { shifted with ii = -4 });
          ("ii 0", { shifted with ii = 0 });
          ("ii 0, idle tiles only", { shifted with ii = 0; placements = []; routes = [] });
          ("tile past the fabric", { shifted with tiles = m.tiles @ [ 36 ] });
        ])
    [ "fir"; "spmv"; "fft" ]

(* Sim.run orders instances by (time, node, iteration).  A node 2^40
   cycles out still packs into one int key; one at max_int / 2 would
   overflow a packed key and takes the unpacked path. *)
let test_run_huge_time_span () =
  let module Mapping = Iced_mapper.Mapping in
  let g = Graph.empty in
  let g, ld = Graph.add_node ~label:"x" g Op.Load in
  let g, add = Graph.add_node ~label:"y" g Op.Add in
  let g, st = Graph.add_node ~label:"out" g Op.Store in
  let g = Graph.add_edge (Graph.add_edge g ld add) add st in
  let mapping placements =
    {
      Mapping.dfg = g;
      cgra;
      ii = 2;
      tiles = [ 0 ];
      memory_tiles = [ 0 ];
      placements;
      routes = [];
      labels = [];
      island_levels = [];
    }
  in
  let iterations = 5 in
  List.iter
    (fun far ->
      let late_store =
        Sim.run (mapping [ (ld, (0, 0)); (add, (0, 1)); (st, (0, far)) ]) ~iterations
      in
      Alcotest.(check int) "executed" 15 late_store.executed;
      Alcotest.(check (list string)) "no violations" [] late_store.violations;
      Alcotest.(check bool) "stores = interpret" true
        (late_store.stores = Sim.interpret g ~iterations);
      let late_load =
        Sim.run (mapping [ (ld, (0, far)); (add, (0, 1)); (st, (0, 2)) ]) ~iterations
      in
      Alcotest.(check (list string)) "every read of x is early"
        (List.init iterations (fun i ->
             Printf.sprintf "operand n%d@@iter%d consumed before production" ld i))
        late_load.violations;
      Alcotest.(check int) "no valid stores" 0 (List.length late_load.stores))
    [ 1 lsl 40; max_int / 2 ]

let suite =
  [
    ("eval arithmetic", `Quick, test_eval_arithmetic);
    ("eval compare/select", `Quick, test_eval_cmp_select);
    ("eval const/gep/route", `Quick, test_eval_const_gep_route);
    ("eval rejects phi/load/store", `Quick, test_eval_invalid);
    ("interpret invalid iterations", `Quick, test_interpret_invalid_iterations);
    ("interpret predicated warm-up", `Quick, test_interpret_predication);
    ("run = interpret (iced, 10 kernels)", `Slow, test_run_matches_interpret_all_kernels);
    ("run = interpret (conventional)", `Slow, test_run_matches_interpret_conventional);
    ("run = interpret (unrolled)", `Slow, test_run_unrolled_kernels);
    ("metrics utilization bounds", `Quick, test_metrics_utilization_bounds);
    ("metrics dvfs fraction", `Quick, test_metrics_dvfs_fraction);
    ("metrics gated excluded", `Quick, test_metrics_gated_excluded_from_utilization);
    ("metrics total cycles", `Quick, test_metrics_total_cycles);
    ("metrics speedup", `Quick, test_metrics_speedup);
    ("metrics sram activity", `Quick, test_metrics_sram_activity);
    ("trace events", `Quick, test_trace_events);
    ("trace busy histogram", `Quick, test_trace_histogram);
    ("trace vcd export", `Quick, test_trace_vcd);
    ("buffer occupancy bounded (10 kernels)", `Slow, test_buffer_occupancy_all_kernels);
    ("buffer occupancy counts waiting values", `Quick, test_buffer_occupancy_counts_waiting_value);
    ("metrics busy slots match the definition", `Quick, test_metrics_busy_slots_match_definition);
    ("run orders instances across a huge time span", `Quick, test_run_huge_time_span);
  ]
