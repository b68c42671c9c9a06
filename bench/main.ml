(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md, "Experiment index").

   Usage:
     bench/main.exe                 run every experiment
     bench/main.exe fig9 fig11      run a subset
     bench/main.exe perf            Bechamel micro-benchmarks (one
                                    Test.make per table/figure)

   Absolute numbers come from this repository's analytical models; the
   paper-facing claim is the *shape* (who wins, by what factor) —
   EXPERIMENTS.md records paper-vs-measured for each experiment. *)

open Iced_arch
module Design = Iced.Design
module Kernel = Iced_kernels.Kernel
module Registry = Iced_kernels.Registry
module Table = Iced_util.Table
module Stats = Iced_util.Stats
module J = Iced_util.Json
module Clock = Iced_obs.Clock

(* the BENCH_*.json files CI validates: one compact document per file *)
let write_json path doc =
  let oc = open_out path in
  output_string oc (J.to_string doc ^ "\n");
  close_out oc

let kernels = Registry.standalone

let fmt = Table.fmt_float

(* a positive integer from the environment, else [default] *)
let getenv_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

(* ------------------------------------------------------------------ *)
(* Shared evaluation cache: figures 9, 10, 11 and 12 reuse mappings.   *)

let eval_cache : (string, Design.evaluation option) Hashtbl.t = Hashtbl.create 64

let evaluate ?(cgra = Cgra.iced_6x6) ~unroll point kernel =
  let key =
    Printf.sprintf "%s/%d/%s/%dx%d" (kernel : Kernel.t).name unroll
      (Design.point_to_string point) cgra.Cgra.rows cgra.Cgra.cols
  in
  match Hashtbl.find_opt eval_cache key with
  | Some v -> v
  | None ->
    let v =
      match Design.evaluate ~cgra ~unroll point kernel with
      | Ok e -> Some e
      | Error _ -> None
    in
    Hashtbl.replace eval_cache key v;
    v

(* ------------------------------------------------------------------ *)
(* Table I: kernel statistics at unroll factors 1 and 2.               *)

let table1 () =
  let t =
    Table.create ~title:"Table I: workload statistics (measured vs paper)"
      ~columns:
        [ "kernel"; "domain"; "data";
          "n1"; "e1"; "mii1"; "paper(1)";
          "n2"; "e2"; "mii2"; "paper(2)" ]
  in
  List.iter
    (fun (k : Kernel.t) ->
      let n1, e1, r1 = Kernel.stats k.dfg in
      let n2, e2, r2 = Kernel.stats (Kernel.dfg_at k ~factor:2) in
      let p = Option.get k.table in
      Table.add_row t
        [ k.name; Kernel.domain_to_string k.domain; k.data;
          string_of_int n1; string_of_int e1; string_of_int r1;
          Printf.sprintf "%d/%d/%d" p.nodes1 p.edges1 p.rec_mii1;
          string_of_int n2; string_of_int e2; string_of_int r2;
          Printf.sprintf "%d/%d/%d" p.nodes2 p.edges2 p.rec_mii2 ])
    Registry.all;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 2: baseline utilization vs CGRA size and unroll factor.      *)

let fig2 () =
  let sizes = [ 4; 6; 8 ] in
  let t =
    Table.create ~title:"Figure 2: average tile utilization, conventional CGRA (no DVFS)"
      ~columns:
        ("kernel"
        :: List.concat_map
             (fun n -> [ Printf.sprintf "%dx%d uf1" n n; Printf.sprintf "%dx%d uf2" n n ])
             sizes)
  in
  let per_config = Hashtbl.create 16 in
  List.iter
    (fun (k : Kernel.t) ->
      let cells =
        List.concat_map
          (fun n ->
            let cgra = Cgra.make ~rows:n ~cols:n () in
            List.map
              (fun unroll ->
                match evaluate ~cgra ~unroll Design.Baseline k with
                | Some e ->
                  Hashtbl.add per_config (n, unroll) e.Design.avg_utilization;
                  fmt e.Design.avg_utilization
                | None -> "-")
              [ 1; 2 ])
          sizes
      in
      Table.add_row t (k.name :: cells))
    kernels;
  let means =
    List.concat_map
      (fun n ->
        List.map
          (fun unroll -> fmt (Stats.mean (Hashtbl.find_all per_config (n, unroll))))
          [ 1; 2 ])
      sizes
  in
  Table.add_row t ("MEAN" :: means);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 4: normalized performance vs DVFS island size (8x8 fabric,   *)
(* committed-island mapping).                                          *)

let fig4 () =
  let base = Cgra.make ~rows:8 ~cols:8 () in
  let sizes = [ (1, 1); (2, 2); (3, 3); (4, 4) ] in
  let t =
    Table.create
      ~title:
        "Figure 4: normalized performance vs island size (8x8, islands committed to \
         labeled levels)"
      ~columns:("kernel" :: List.map (fun (r, c) -> Printf.sprintf "%dx%d" r c) sizes)
  in
  let columns = Hashtbl.create 8 in
  List.iter
    (fun (k : Kernel.t) ->
      let conv =
        Iced_mapper.Mapper.map
          (Iced_mapper.Mapper.request ~strategy:Iced_mapper.Mapper.Conventional base)
          k.dfg
      in
      match conv with
      | Error _ -> Table.add_row t (k.name :: List.map (fun _ -> "-") sizes)
      | Ok conv ->
        let cells =
          List.map
            (fun island ->
              let cgra = Cgra.with_island base island in
              let req =
                Iced_mapper.Mapper.request ~strategy:Iced_mapper.Mapper.Dvfs_aware
                  ~commit_islands:true cgra
              in
              match Iced_mapper.Mapper.map req k.dfg with
              | Error _ -> "-"
              | Ok m ->
                let perf =
                  float_of_int conv.Iced_mapper.Mapping.ii
                  /. float_of_int m.Iced_mapper.Mapping.ii
                in
                Hashtbl.add columns island perf;
                fmt perf)
            sizes
        in
        Table.add_row t (k.name :: cells))
    kernels;
  Table.add_row t
    ("MEAN" :: List.map (fun isl -> fmt (Stats.mean (Hashtbl.find_all columns isl))) sizes);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 8: area and power breakdown of the 6x6 ICED.                 *)

let fig8 () =
  let params = Iced_power.Params.default in
  let cgra = Cgra.iced_6x6 in
  let designs = Iced_power.Model.[ Baseline; Per_tile_dvfs; Iced ] in
  let area =
    Table.create
      ~title:"Figure 8: area breakdown, 6x6 (mm^2; paper: 6.63 + SRAM 0.559 for iced)"
      ~columns:[ "component"; "baseline"; "per-tile dvfs"; "iced" ]
  in
  let area_tables = List.map (fun d -> Iced_power.Model.area_mm2 params d cgra) designs in
  List.iter
    (fun component ->
      Table.add_row area
        (component :: List.map (fun table -> fmt (List.assoc component table)) area_tables))
    [ "tiles"; "dvfs support"; "sram"; "total" ];
  Table.print area;
  let power =
    Table.create
      ~title:
        "Figure 8: power breakdown at 0.7V/434MHz, ~60% activity (mW; paper: 113.95 + \
         SRAM up to 62.653 for iced)"
      ~columns:[ "component"; "baseline"; "per-tile dvfs"; "iced" ]
  in
  let tiles =
    List.init (Cgra.tile_count cgra) (fun _ ->
        { Iced_power.Model.level = Dvfs.Normal; activity = 0.6 })
  in
  let power_tables =
    List.map
      (fun d -> Iced_power.Model.power_breakdown_mw params d cgra ~tiles ~sram_activity:0.5)
      designs
  in
  List.iter
    (fun component ->
      Table.add_row power
        (component :: List.map (fun table -> fmt (List.assoc component table)) power_tables))
    [ "tiles"; "dvfs support"; "sram"; "total" ];
  Table.print power

(* ------------------------------------------------------------------ *)
(* Figures 9-11: utilization, average DVFS level, and power on the     *)
(* 6x6 prototype across the design points.                             *)

let metric_figure ~title ~metric ~points () =
  let t =
    Table.create ~title
      ~columns:
        ("kernel"
        :: List.concat_map
             (fun p ->
               [ Design.point_to_string p ^ " uf1"; Design.point_to_string p ^ " uf2" ])
             points)
  in
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (k : Kernel.t) ->
      let cells =
        List.concat_map
          (fun p ->
            List.map
              (fun unroll ->
                match evaluate ~unroll p k with
                | Some e ->
                  Hashtbl.add sums (p, unroll) (metric e);
                  fmt (metric e)
                | None -> "-")
              [ 1; 2 ])
          points
      in
      Table.add_row t (k.name :: cells))
    kernels;
  Table.add_row t
    ("MEAN"
    :: List.concat_map
         (fun p ->
           List.map
             (fun unroll -> fmt (Stats.mean (Hashtbl.find_all sums (p, unroll))))
             [ 1; 2 ])
         points);
  Table.print t

let fig9 () =
  metric_figure
    ~title:
      "Figure 9: average tile utilization (paper: baseline 0.33 -> iced 0.76 at uf1, \
       0.44 -> 0.71 at uf2)"
    ~metric:(fun e -> e.Design.avg_utilization)
    ~points:Design.[ Baseline; Per_tile; Iced ]
    ()

let fig10 () =
  metric_figure
    ~title:
      "Figure 10: average DVFS level, gated=0 (paper: per-tile 0.26 vs iced 0.35 at uf1, \
       0.37 vs 0.53 at uf2)"
    ~metric:(fun e -> e.Design.avg_dvfs)
    ~points:Design.[ Per_tile; Iced ]
    ()

let fig11 () =
  metric_figure
    ~title:
      "Figure 11: average power, mW (paper uf2: baseline 160.4, baseline+pg 143.8, \
       per-tile 193.9, iced 121.3)"
    ~metric:(fun e -> e.Design.power_mw)
    ~points:Design.[ Baseline; Baseline_gated; Per_tile; Iced ]
    ()

(* ------------------------------------------------------------------ *)
(* Figure 12: scalability across fabric sizes.                         *)

let fig12 () =
  let sizes = [ 2; 4; 6; 8 ] in
  let t =
    Table.create
      ~title:"Figure 12: average DVFS level vs fabric size, uf1 (per-tile vs iced)"
      ~columns:
        ("kernel"
        :: List.concat_map
             (fun n -> [ Printf.sprintf "pt %dx%d" n n; Printf.sprintf "iced %dx%d" n n ])
             sizes)
  in
  let sums = Hashtbl.create 16 in
  List.iter
    (fun (k : Kernel.t) ->
      let cells =
        List.concat_map
          (fun n ->
            let cgra = Cgra.make ~rows:n ~cols:n () in
            List.map
              (fun p ->
                match evaluate ~cgra ~unroll:1 p k with
                | Some e ->
                  Hashtbl.add sums (p, n) e.Design.avg_dvfs;
                  fmt e.Design.avg_dvfs
                | None -> "-")
              Design.[ Per_tile; Iced ])
          sizes
      in
      Table.add_row t (k.name :: cells))
    kernels;
  Table.add_row t
    ("MEAN"
    :: List.concat_map
         (fun n ->
           List.map
             (fun p -> fmt (Stats.mean (Hashtbl.find_all sums (p, n))))
             Design.[ Per_tile; Iced ])
         sizes);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Figure 13: streaming energy-efficiency, ICED vs DRIPS.              *)

let stream_setup app =
  let inputs = Iced_stream.App.inputs app in
  match Iced_stream.App.partition app inputs with
  | Ok p -> (p, inputs)
  | Error msg ->
    failwith (Printf.sprintf "fig13 %s: %s" (Iced_stream.App.to_string app) msg)

let fig13 () =
  List.iter
    (fun app ->
      let partition, inputs = stream_setup app in
      let app = Iced_stream.App.to_string app in
      let alloc =
        String.concat " "
          (List.map
             (fun (l, c) -> Printf.sprintf "%s=%d" l c)
             partition.Iced_stream.Partition.allocation)
      in
      Printf.printf "[fig13:%s] partition: %s\n" app alloc;
      let iced = Iced_stream.Runner.run partition Iced_stream.Runner.Iced_dvfs inputs in
      let drips = Iced_stream.Runner.run partition Iced_stream.Runner.Drips inputs in
      let t =
        Table.create
          ~title:
            (Printf.sprintf
               "Figure 13 (%s): per-window energy-efficiency, ICED vs DRIPS (paper \
                averages: gcn 1.12x, lu 1.26x)"
               app)
          ~columns:[ "window"; "iced eff"; "drips eff"; "iced/drips" ]
      in
      List.iter2
        (fun (a : Iced_stream.Runner.window_report) (b : Iced_stream.Runner.window_report) ->
          Table.add_row t
            [ string_of_int a.index; fmt a.efficiency; fmt b.efficiency;
              fmt (a.efficiency /. b.efficiency) ])
        iced drips;
      let ti = Iced_stream.Runner.aggregate iced in
      let td = Iced_stream.Runner.aggregate drips in
      Table.add_row t
        [ "OVERALL";
          fmt ti.Iced_stream.Runner.overall_efficiency;
          fmt td.Iced_stream.Runner.overall_efficiency;
          fmt
            (ti.Iced_stream.Runner.overall_efficiency
            /. td.Iced_stream.Runner.overall_efficiency) ];
      Table.print t)
    Iced_stream.App.all

(* ------------------------------------------------------------------ *)
(* Figure 14: FFT performance/power across architectures.  Literature  *)
(* rows are quoted from the cited papers (as the paper itself does);   *)
(* ICED's row comes from this repository's model.                      *)

let fig14 () =
  let t =
    Table.create
      ~title:"Figure 14: FFT kernel across architectures (literature rows quoted)"
      ~columns:[ "architecture"; "tech"; "power mW"; "perf MOPS"; "MOPS/mW" ]
  in
  List.iter
    (fun (name, tech, p, perf, eff) ->
      Table.add_row t [ name; tech; fmt p; fmt perf; fmt eff ])
    [ ("HyCUBE (A-SSCC'19)", "40nm", 42.0, 1109.0, 26.4);
      ("RipTide (MICRO'22)", "22nm", 0.36, 110.0, 305.0);
      ("SNAFU (ISCA'21)", "28nm", 0.31, 68.0, 220.0) ];
  (match Registry.by_name "fft" with
  | None -> ()
  | Some fft -> (
    match evaluate ~unroll:1 Design.Iced fft with
    | None -> ()
    | Some e ->
      let params = Iced_power.Params.default in
      let ops_per_cycle =
        float_of_int (Iced_dfg.Graph.node_count fft.dfg) /. float_of_int e.Design.ii
      in
      let mops = ops_per_cycle *. params.Iced_power.Params.f_normal_mhz in
      Table.add_row t
        [ "ICED (this repo)"; "7nm (model)"; fmt e.Design.power_mw; fmt mops;
          fmt (mops /. e.Design.power_mw) ]));
  Table.print t

(* ------------------------------------------------------------------ *)
(* Ablation: disable one DVFS-aware mapping feature at a time and      *)
(* measure what it buys (DESIGN.md design-choice index).               *)

let ablation () =
  let variants =
    [ ("full iced", Iced_mapper.Cost.all_knobs);
      ("no island affinity",
       { Iced_mapper.Cost.all_knobs with Iced_mapper.Cost.island_affinity = false });
      ("no packing", { Iced_mapper.Cost.all_knobs with Iced_mapper.Cost.packing = false });
      ("no phase alignment",
       { Iced_mapper.Cost.all_knobs with Iced_mapper.Cost.phase_alignment = false });
      ("no conventional fallback",
       { Iced_mapper.Cost.all_knobs with
         Iced_mapper.Cost.conventional_fallback = false }) ]
  in
  let t =
    Table.create ~title:"Ablation: ICED mapping features (means over 10 kernels, uf1, 6x6)"
      ~columns:[ "variant"; "mean II"; "avg util"; "avg dvfs"; "power mW" ]
  in
  let params = Iced_power.Params.default in
  List.iter
    (fun (name, knobs) ->
      let evals =
        List.filter_map
          (fun (k : Kernel.t) ->
            let req =
              Iced_mapper.Mapper.request ~strategy:Iced_mapper.Mapper.Dvfs_aware ~knobs
                Cgra.iced_6x6
            in
            match Iced_mapper.Mapper.map req k.dfg with
            | Error _ -> None
            | Ok m ->
              let m = Iced_mapper.Levels.assign m in
              let tiles = Iced_sim.Metrics.tile_states m in
              let power =
                Iced_power.Model.total_power_mw params Iced_power.Model.Iced Cgra.iced_6x6
                  ~tiles
                  ~sram_activity:(Iced_sim.Metrics.sram_activity m)
              in
              Some
                ( float_of_int m.Iced_mapper.Mapping.ii,
                  Iced_sim.Metrics.average_utilization m,
                  Iced_sim.Metrics.average_dvfs_fraction m,
                  power ))
          kernels
      in
      let mean f = Stats.mean (List.map f evals) in
      Table.add_row t
        [ name;
          fmt (mean (fun (ii, _, _, _) -> ii));
          fmt (mean (fun (_, u, _, _) -> u));
          fmt (mean (fun (_, _, d, _) -> d));
          fmt (mean (fun (_, _, _, p) -> p)) ])
    variants;
  Table.print t

(* ------------------------------------------------------------------ *)
(* Island-granularity design-space exploration: sweep every island    *)
(* shape tiling the 6x6 fabric — 1x1 per-tile DVFS through the single  *)
(* whole-fabric island — over the standalone kernels, and report the   *)
(* (throughput, energy, EDP) Pareto frontier.  The paper fixes 2x2     *)
(* islands (Section V-A) and argues per-tile DVFS overprovisions       *)
(* controllers; this experiment makes that comparison a frontier.      *)

let explore () =
  let module Space = Iced_explore.Space in
  let module Sweep = Iced_explore.Sweep in
  let module Outcome = Iced_explore.Outcome in
  let module Report = Iced_explore.Report in
  let spec = { Space.default_spec with Space.floors = [ Dvfs.Rest ] } in
  let points = Space.enumerate spec in
  let cache = Iced_explore.Cache.in_memory () in
  let config =
    { Sweep.default_config with
      Sweep.workers = min 4 (Domain.recommended_domain_count ()) }
  in
  let outcomes, stats = Sweep.run ~config ~cache points kernels in
  let frontier = Report.frontier_summaries outcomes in
  let on_frontier (s : Outcome.summary) =
    List.exists (fun (f : Outcome.summary) -> f.Outcome.point = s.Outcome.point) frontier
  in
  let t =
    Table.create
      ~title:
        "Exploration: island granularity on 6x6 (floor rest, uf1, means over 10 kernels)"
      ~columns:
        [ "island"; "ctrls"; "mapped"; "geo thpt Mi/s"; "mean energy nJ";
          "mean EDP nJ*us"; "mean power mW"; "pareto" ]
  in
  List.iter
    (fun (r : Outcome.point_result) ->
      let s = Outcome.summarize r in
      let p = r.Outcome.point in
      Table.add_row t
        [ Printf.sprintf "%dx%d" p.Space.island_rows p.Space.island_cols;
          string_of_int (Cgra.island_count (Space.cgra p));
          Printf.sprintf "%d/%d" s.Outcome.mapped s.Outcome.total;
          fmt s.Outcome.geo_throughput_mips;
          fmt s.Outcome.mean_energy_nj;
          fmt s.Outcome.mean_edp;
          fmt s.Outcome.mean_power_mw;
          (if on_frontier s then "*" else "") ])
    outcomes;
  Table.print t;
  Table.print (Report.best_per_kernel_table outcomes);
  Printf.printf "explored %d points (%d pairs, %d failed)\n" stats.Sweep.points
    stats.Sweep.pairs stats.Sweep.failed

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure, timing   *)
(* each experiment's core computation.                                 *)

let perf () =
  let open Bechamel in
  let fir = Option.get (Registry.by_name "fir") in
  let fft = Option.get (Registry.by_name "fft") in
  let map_kernel strategy (k : Kernel.t) () =
    let req = Iced_mapper.Mapper.request ~strategy Cgra.iced_6x6 in
    ignore (Iced_mapper.Mapper.map req k.dfg)
  in
  let gcn_partition, gcn_inputs = stream_setup Iced_stream.App.Gcn in
  let gcn_window = List.filteri (fun i _ -> i < 20) gcn_inputs in
  let cases =
    [ ( "table1_stats",
        fun () -> List.iter (fun (k : Kernel.t) -> ignore (Kernel.stats k.dfg)) Registry.all );
      ("fig2_map_baseline", map_kernel Iced_mapper.Mapper.Conventional fir);
      ( "fig4_committed_map",
        fun () ->
          let cgra = Cgra.make ~rows:8 ~cols:8 () in
          let req =
            Iced_mapper.Mapper.request ~strategy:Iced_mapper.Mapper.Dvfs_aware
              ~commit_islands:true cgra
          in
          ignore (Iced_mapper.Mapper.map req fir.dfg) );
      ( "fig8_power_model",
        fun () ->
          let params = Iced_power.Params.default in
          ignore (Iced_power.Model.area_mm2 params Iced_power.Model.Iced Cgra.iced_6x6) );
      ("fig9_map_iced", map_kernel Iced_mapper.Mapper.Dvfs_aware fir);
      ( "fig10_levels_assign",
        fun () ->
          match
            Iced_mapper.Mapper.map (Iced_mapper.Mapper.request Cgra.iced_6x6) fir.dfg
          with
          | Ok m -> ignore (Iced_mapper.Levels.assign m)
          | Error _ -> () );
      ("fig11_full_evaluation", fun () -> ignore (Design.evaluate Design.Iced fir));
      ( "fig12_map_large_fabric",
        fun () ->
          let cgra = Cgra.make ~rows:8 ~cols:8 () in
          ignore (Iced_mapper.Mapper.map (Iced_mapper.Mapper.request cgra) fft.dfg) );
      ( "fig13_stream_window",
        fun () ->
          ignore (Iced_stream.Runner.run gcn_partition Iced_stream.Runner.Iced_dvfs gcn_window)
      );
      ("fig14_fft_eval", fun () -> ignore (Design.evaluate Design.Iced fft)) ]
  in
  let tests =
    Test.make_grouped ~name:"iced"
      (List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) cases)
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let t =
    Table.create ~title:"Bechamel: experiment core computations" ~columns:[ "test"; "time" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some (est :: _) ->
          if est > 1e9 then Printf.sprintf "%.2f s" (est /. 1e9)
          else if est > 1e6 then Printf.sprintf "%.2f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%.2f us" (est /. 1e3)
          else Printf.sprintf "%.0f ns" est
        | _ -> "-"
      in
      rows := (name, time) :: !rows)
    results;
  List.iter (fun (name, time) -> Table.add_row t [ name; time ]) (List.sort compare !rows);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Mapper engine benchmark: per-kernel mapping telemetry and the       *)
(* router's steady-path allocation, written to BENCH_mapper.json (the  *)
(* CI smoke job parses it).  ICED_BENCH_KERNELS=fir,fft filters the    *)
(* kernel list.                                                        *)

let mapper_bench () =
  let module Mapper = Iced_mapper.Mapper in
  let module Telemetry = Iced_mapper.Telemetry in
  let module Router = Iced_mapper.Router in
  let selected =
    match Sys.getenv_opt "ICED_BENCH_KERNELS" with
    | None | Some "" -> kernels
    | Some spec ->
      let wanted = String.split_on_char ',' spec in
      List.filter (fun (k : Kernel.t) -> List.mem k.name wanted) kernels
  in
  (* Bytes allocated so far: minor-heap words plus the words allocated
     straight into the major heap.  On OCaml 5.1 [Gc.allocated_bytes]
     reads about an eighth of minor allocation and jumps by megabytes at
     minor collections; [Gc.minor_words] is exact. *)
  let allocated_bytes () =
    let _, promoted, major = Gc.counters () in
    (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)
  in
  (* Steady-path router allocation: route and release the same edge
     repeatedly through an otherwise-empty MRRG, once with a private
     arena per call (the pre-arena engine's behavior) and once with a
     shared arena.  Per-iteration byte delta isolates what one route
     costs. *)
  let bytes_per_route ~shared iterations =
    let mrrg = Iced_mrrg.Mrrg.create Cgra.iced_6x6 ~ii:8 in
    let edge = { Iced_dfg.Graph.src = 0; dst = 1; distance = 0 } in
    let scratch = if shared then Some (Router.create_scratch ()) else None in
    let route () =
      Router.route ?scratch mrrg ~edge ~src_tile:0 ~src_time:0 ~dst_tile:14 ~deadline:12
    in
    (* warm up so the shared arena's buffers are grown before measuring *)
    (match route () with Ok (hops, _) -> Router.release mrrg hops edge | Error _ -> ());
    let before = allocated_bytes () in
    for _ = 1 to iterations do
      match route () with
      | Ok (hops, _) -> Router.release mrrg hops edge
      | Error _ -> ()
    done;
    (allocated_bytes () -. before) /. float_of_int iterations
  in
  let iterations = 1000 in
  let fresh_bytes = bytes_per_route ~shared:false iterations in
  let shared_bytes = bytes_per_route ~shared:true iterations in
  let reduction = fresh_bytes /. Float.max shared_bytes 1.0 in
  let t =
    Table.create ~title:"Mapper engine: per-kernel mapping cost (iced point, uf1, 6x6)"
      ~columns:
        [ "kernel"; "ii"; "wall ms"; "alloc MB"; "routes"; "KB/route"; "expansions";
          "placements" ]
  in
  let kernel_rows =
    List.filter_map
      (fun (k : Kernel.t) ->
        let stats = Mapper.create_stats () in
        let req = Mapper.request ~strategy:Mapper.Dvfs_aware Cgra.iced_6x6 in
        let before = allocated_bytes () in
        match Mapper.map ~stats req k.dfg with
        | Error _ ->
          Table.add_row t (k.name :: List.map (fun _ -> "-") [ 1; 2; 3; 4; 5; 6; 7 ]);
          None
        | Ok m ->
          let alloc = allocated_bytes () -. before in
          let routes = max 1 stats.Telemetry.route_calls in
          Table.add_row t
            [ k.name;
              string_of_int m.Iced_mapper.Mapping.ii;
              Printf.sprintf "%.2f" (stats.Telemetry.wall_s *. 1e3);
              Printf.sprintf "%.2f" (alloc /. 1048576.0);
              string_of_int stats.Telemetry.route_calls;
              Printf.sprintf "%.1f" (alloc /. float_of_int routes /. 1024.0);
              string_of_int stats.Telemetry.expansions;
              string_of_int stats.Telemetry.placements_tried ];
          Some
            (J.Obj
               [ ("kernel", J.Str k.name); ("ii", J.int m.Iced_mapper.Mapping.ii);
                 ("wall_s", J.Num stats.Telemetry.wall_s); ("alloc_bytes", J.Num alloc);
                 ("route_calls", J.int stats.Telemetry.route_calls);
                 ("alloc_per_route", J.Num (alloc /. float_of_int routes));
                 ("expansions", J.int stats.Telemetry.expansions);
                 ("placements_tried", J.int stats.Telemetry.placements_tried);
                 ("attempts", J.int stats.Telemetry.attempts);
                 ("ii_bumps", J.int stats.Telemetry.ii_bumps) ]))
      selected
  in
  Table.print t;
  Printf.printf
    "router steady path: %.0f B/route with a fresh arena vs %.0f B/route shared \
     (%.1fx less allocation)\n"
    fresh_bytes shared_bytes reduction;
  (* Backend shoot-out: the three placement/routing pairs on large
     seeded synthetic kernels over a 16x16 fabric, where greedy
     placement leaves II on the table.  Non-default backends are mapped
     twice to pin same-seed determinism. *)
  let shoot_fabric = Cgra.make ~rows:16 ~cols:16 () in
  let shoot_kernels =
    List.filter_map Iced_kernels.Registry.by_name
      (match Sys.getenv_opt "ICED_BENCH_SHOOTOUT" with
      | None | Some "" -> [ "rand100x1"; "rand120x3" ]
      | Some spec -> String.split_on_char ',' spec)
  in
  let st =
    Table.create ~title:"Backend shoot-out (16x16, seeded synthetic kernels)"
      ~columns:[ "kernel"; "backend"; "ok"; "ii"; "wall ms"; "deterministic" ]
  in
  let shoot_rows =
    List.map
      (fun (k : Kernel.t) ->
        let per_backend =
          List.map
            (fun backend ->
              let name = Iced_mapper.Backend.to_string backend in
              let map_once () =
                let stats = Mapper.create_stats () in
                let req =
                  Mapper.request ~strategy:Mapper.Dvfs_aware ~backend shoot_fabric
                in
                (Mapper.map ~stats req k.dfg, stats)
              in
              let before = allocated_bytes () in
              let result, stats = map_once () in
              let alloc = allocated_bytes () -. before in
              let render m = Format.asprintf "%a" Iced_mapper.Mapping.pp m in
              let ok, ii = match result with
                | Ok m -> (true, m.Iced_mapper.Mapping.ii)
                | Error _ -> (false, 0)
              in
              let deterministic =
                match result with
                | Error _ -> true  (* failures are deterministic too *)
                | Ok m -> (
                  match fst (map_once ()) with
                  | Ok m2 -> render m = render m2
                  | Error _ -> false)
              in
              Table.add_row st
                [ k.name; name; string_of_bool ok;
                  (if ok then string_of_int ii else "-");
                  Printf.sprintf "%.1f" (stats.Telemetry.wall_s *. 1e3);
                  string_of_bool deterministic ];
              J.Obj
                [ ("backend", J.Str name); ("ok", J.Bool ok); ("ii", J.int ii);
                  ("wall_s", J.Num stats.Telemetry.wall_s); ("deterministic", J.Bool deterministic);
                  ("attempts", J.int stats.Telemetry.attempts);
                  ("route_calls", J.int stats.Telemetry.route_calls);
                  ("pf_rounds", J.int stats.Telemetry.pf_rounds); ("alloc_bytes", J.Num alloc);
                  ( "sa_moves",
                    J.int (stats.Telemetry.sa_moves_accepted + stats.Telemetry.sa_moves_rejected)
                  );
                  ("expansions", J.int stats.Telemetry.expansions) ])
            [ Iced_mapper.Backend.default; Iced_mapper.Backend.sa;
              Iced_mapper.Backend.pathfinder ]
        in
        J.Obj
          [ ("kernel", J.Str k.name); ("fabric", J.Str "16x16"); ("backends", J.Arr per_backend) ])
      shoot_kernels
  in
  Table.print st;
  write_json "BENCH_mapper.json"
    (J.Obj
       [ ("schema", J.Str "iced-bench-mapper-v2");
         ( "router_alloc",
           J.Obj
             [ ("iterations", J.int iterations); ("fresh_bytes_per_route", J.Num fresh_bytes);
               ("shared_bytes_per_route", J.Num shared_bytes);
               ("reduction_factor", J.Num reduction) ] );
         ("kernels", J.Arr kernel_rows); ("shootout", J.Arr shoot_rows) ]);
  Printf.printf "wrote BENCH_mapper.json (%d kernels)\n" (List.length kernel_rows)

(* ------------------------------------------------------------------ *)
(* Fault injection: recovery policies under a single tile fault, then  *)
(* a seeded multi-fault campaign (DESIGN.md "lib/fault").               *)

let fault_injection () =
  let module Fault = Iced_fault.Fault in
  let module Runner = Iced_stream.Runner in
  (* one dead tile in the LU pipeline's fabric, mid-stream: the
     acceptance scenario — remap and gate must keep >= 50% of the
     fault-free throughput, fail-stop reports the loss *)
  let partition, inputs = stream_setup Iced_stream.App.Lu in
  let baseline = Runner.aggregate (Runner.run partition Runner.Iced_dvfs inputs) in
  let plan = Fault.make ~seed:1 [ { Fault.at_input = 50; fault = Fault.Tile_dead 0 } ] in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Recovery policies, LU pipeline, tile 0 dead at input 50 (%d inputs)"
           (List.length inputs))
      ~columns:[ "recovery"; "completed"; "dropped"; "mttr us"; "inputs/s"; "retention" ]
  in
  List.iter
    (fun recovery ->
      let reports, stats =
        Runner.run_resilient ~faults:plan ~recovery partition Runner.Iced_dvfs inputs
      in
      let totals = Runner.aggregate reports in
      let retention =
        float_of_int stats.Runner.completed
        /. float_of_int stats.Runner.offered
        *. Float.min 1.0
             (totals.Runner.overall_throughput_per_s
             /. baseline.Runner.overall_throughput_per_s)
      in
      Table.add_row t
        [ Runner.recovery_to_string recovery;
          Printf.sprintf "%d/%d" stats.Runner.completed stats.Runner.offered;
          string_of_int stats.Runner.inputs_dropped;
          fmt stats.Runner.mttr_us;
          fmt totals.Runner.overall_throughput_per_s;
          fmt retention ])
    [ Runner.Remap; Runner.Gate_island; Runner.Raise_level; Runner.Fail_stop ];
  Table.print t;
  (* seeded campaign over all fault families *)
  let spec = { Iced_campaign.Campaign.default_spec with inputs = 100; workers = 2 } in
  match Iced_campaign.Campaign.run spec with
  | Error msg -> Printf.eprintf "campaign failed: %s\n" msg
  | Ok campaign -> print_string (Iced_campaign.Campaign.render campaign)

(* ------------------------------------------------------------------ *)
(* Serve: closed-loop load generator against an in-process daemon pool *)
(* (BENCH_serve.json; the CI smoke job parses it).                     *)
(* ICED_BENCH_SERVE_REQUESTS / _WORKERS override the defaults.         *)

let serve_bench () =
  let module Server = Iced_serve.Server in
  let module Protocol = Iced_serve.Protocol in
  let module Cache = Iced_explore.Cache in
  let module Space = Iced_explore.Space in
  let requests = getenv_int "ICED_BENCH_SERVE_REQUESTS" 2000 in
  let workers = getenv_int "ICED_BENCH_SERVE_WORKERS" 4 in
  let queue_depth = 256 in
  (* request mix: ~90% map draws over a small point x kernel pool, so
     most requests repeat an earlier one and exercise the dedup path;
     the rest are pings threaded between the expensive work *)
  let points =
    [ Protocol.default_point;
      { Protocol.default_point with Space.floor = Dvfs.Relax } ]
  in
  let kernel_names = List.map (fun (k : Kernel.t) -> k.name) kernels in
  let rng = Iced_util.Rng.create 2026 in
  let frames =
    List.init requests (fun i ->
        let id = Printf.sprintf "r%04d" i in
        if Iced_util.Rng.int rng 10 = 0 then
          { Protocol.id; request = Protocol.Ping; deadline_ms = None; tenant = None; qos = None }
        else
          let point = Iced_util.Rng.choose rng points in
          let kernel = Iced_util.Rng.choose rng kernel_names in
          { Protocol.id; request = Protocol.Map { point; kernel; backend = Iced_mapper.Backend.default }; deadline_ms = None; tenant = None; qos = None })
  in
  let cache = Cache.in_memory () in
  let latencies = Array.make requests 0.0 in
  let recorded = ref 0 in
  let mu = Mutex.create () in
  let advanced = Condition.create () in
  let outstanding = ref 0 in
  (* closed loop: enough concurrency to keep every worker busy without
     ever tripping admission control *)
  let window = workers * 4 in
  let respond _line ~latency_s =
    Mutex.lock mu;
    latencies.(!recorded) <- latency_s;
    incr recorded;
    decr outstanding;
    Condition.broadcast advanced;
    Mutex.unlock mu
  in
  let server =
    Server.create ~respond
      { Server.workers; queue_depth; cache; restart_budget = 8;
        default_deadline_ms = None }
  in
  let t0 = Clock.now () in
  List.iter
    (fun frame ->
      Mutex.lock mu;
      while !outstanding >= window do
        Condition.wait advanced mu
      done;
      incr outstanding;
      Mutex.unlock mu;
      ignore (Server.submit server frame))
    frames;
  Server.shutdown server;
  let wall_s = Clock.now () -. t0 in
  let n = !recorded in
  let lat = Array.sub latencies 0 n in
  Array.sort compare lat;
  let pct p =
    if n = 0 then 0.0
    else lat.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let p50 = pct 0.5 and p99 = pct 0.99 in
  let hits = Cache.hits cache and misses = Cache.misses cache in
  let coalesced = Cache.coalesced cache in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  let throughput = float_of_int n /. wall_s in
  let shed = Server.shed server in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "iced serve: %d requests, %d workers (closed loop, window %d)"
           requests workers window)
      ~columns:[ "metric"; "value" ]
  in
  List.iter
    (fun (k, v) -> Table.add_row t [ k; v ])
    [ ("responses", string_of_int n);
      ("wall s", Printf.sprintf "%.2f" wall_s);
      ("throughput rps", Printf.sprintf "%.0f" throughput);
      ("p50 ms", Printf.sprintf "%.3f" (p50 *. 1e3));
      ("p99 ms", Printf.sprintf "%.3f" (p99 *. 1e3));
      ("cache hits", string_of_int hits);
      ("cache misses", string_of_int misses);
      ("coalesced", string_of_int coalesced);
      ("dedup hit rate", Printf.sprintf "%.3f" hit_rate);
      ("shed", string_of_int shed) ];
  Table.print t;
  write_json "BENCH_serve.json"
    (J.Obj
       [ ("schema", J.Str "iced-bench-serve-v1"); ("requests", J.int requests);
         ("responses", J.int n); ("workers", J.int workers); ("queue_depth", J.int queue_depth);
         ("window", J.int window); ("wall_s", J.Num wall_s); ("throughput_rps", J.Num throughput);
         ("p50_ms", J.Num (p50 *. 1e3)); ("p99_ms", J.Num (p99 *. 1e3));
         ( "dedup",
           J.Obj
             [ ("hits", J.int hits); ("misses", J.int misses); ("coalesced", J.int coalesced);
               ("hit_rate", J.Num hit_rate) ] );
         ("shed", J.int shed) ]);
  Printf.printf "wrote BENCH_serve.json (%d responses)\n" n

(* ------------------------------------------------------------------ *)
(* Chaos: seeded fault injection against a live forked daemon          *)
(* (BENCH_chaos.json; the CI chaos-soak job parses it).                *)
(* ICED_BENCH_CHAOS_SEED / _EVENTS override the defaults.  The whole   *)
(* scenario runs twice with the same seed and the two deterministic    *)
(* summaries must match byte-for-byte.                                 *)

type chaos_summary = {
  ch_seed : int;
  ch_events : int;
  ch_errors : int;  (* crash kill=false -> internal_error barrier *)
  ch_kills : int;  (* crash kill=true  -> worker supervision *)
  ch_slows : int;  (* expired-deadline sleeps -> timeout shed *)
  ch_disconnects : int;  (* client vanishes mid-frame *)
  ch_restarts : int;  (* SIGTERM drain under in-flight load *)
  ch_corruptions : int;  (* SIGKILL + cache-byte damage + recovery *)
  ch_skipped_corruptions : int;  (* cache empty, nothing to damage *)
  ch_daemon_restarts : int;
  ch_cache_recoveries : int;
  ch_probes : int;
  ch_probes_ok : int;
}

let chaos () =
  let module Server = Iced_serve.Server in
  let module Protocol = Iced_serve.Protocol in
  let module Lineio = Iced_serve.Lineio in
  let module Cache = Iced_explore.Cache in
  let module Space = Iced_explore.Space in
  let seed = getenv_int "ICED_BENCH_CHAOS_SEED" 7 in
  let events = getenv_int "ICED_BENCH_CHAOS_EVENTS" 500 in
  (* The daemon's stderr log is an artifact, not a repo file: keep it
     out of the working tree unless the caller asks for a path (the CI
     soak job sets ICED_BENCH_CHAOS_LOG to grep it afterwards). *)
  let daemon_log =
    match Sys.getenv_opt "ICED_BENCH_CHAOS_LOG" with
    | Some path when path <> "" -> path
    | _ ->
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "iced_chaos_daemon.%d.log" (Unix.getpid ()))
  in
  (try Sys.remove daemon_log with Sys_error _ -> ());
  let failf fmt = Printf.ksprintf (fun m -> failwith ("chaos: " ^ m)) fmt in
  (* -------------------------------------------------------------- *)
  (* daemon lifecycle: the daemon is a fork of this process serving  *)
  (* a Unix socket; its stderr goes to the log the CI job greps      *)
  let start_daemon ~socket_path ~cache_path =
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      (try
         let log =
           Unix.openfile daemon_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
         in
         Unix.dup2 log Unix.stderr;
         Unix.close log;
         let stop_flag = Atomic.make false in
         Sys.set_signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Atomic.set stop_flag true));
         let cache = Cache.open_file cache_path in
         let config =
           { Server.workers = 2; queue_depth = 64; cache; restart_budget = 1_000_000;
             default_deadline_ms = None }
         in
         ignore
           (Server.serve_socket ~stop:(fun () -> Atomic.get stop_flag) config socket_path);
         Cache.close cache;
         exit 0
       with e ->
         Printf.eprintf "[chaos-daemon] fatal: %s\n%!" (Printexc.to_string e);
         exit 1)
    | pid -> pid
  in
  let connect ~socket_path =
    let give_up = Clock.now () +. 30.0 in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
      | () ->
        (* a wedged daemon should fail the bench loudly, not hang it *)
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
        (Lineio.reader fd, Lineio.writer fd, fd)
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if Clock.now () > give_up then failf "daemon never came up";
        ignore (Unix.sleepf 0.01);
        go ()
    in
    go ()
  in
  let recv reader =
    match Lineio.read_line reader with
    | `Line l -> l
    | `Eof -> failf "daemon hung up mid-conversation"
    | `Too_long -> failf "daemon sent a reply past the line cap"
    | `Stopped -> assert false
  in
  let stop_daemon ~signal ~socket_path pid =
    Unix.kill pid signal;
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 when signal = Sys.sigterm -> ()
    | _, Unix.WSIGNALED s when signal = Sys.sigkill && s = Sys.sigkill -> ()
    | _, status ->
      let show = function
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
      in
      failf "daemon died wrong: %s" (show status));
    if signal = Sys.sigterm && Sys.file_exists socket_path then
      failf "socket file survived a graceful shutdown"
  in
  (* -------------------------------------------------------------- *)
  (* the scenario *)
  let run_scenario run_idx =
    let socket_path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "iced_chaos_%d_%d.sock" (Unix.getpid ()) run_idx)
    in
    let cache_path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "iced_chaos_%d_%d.cache" (Unix.getpid ()) run_idx)
    in
    (try Sys.remove cache_path with Sys_error _ -> ());
    (try Sys.remove (cache_path ^ ".bak") with Sys_error _ -> ());
    let rng = Iced_util.Rng.create seed in
    let oracle = Cache.in_memory () in
    let oracle_stats ~id:_ = "" in
    let expect frame = Server.handle ~cache:oracle ~stats:oracle_stats frame in
    let points =
      [ Protocol.default_point;
        { Protocol.default_point with Space.floor = Dvfs.Relax } ]
    in
    let kernel_names = [ "fir"; "relu"; "spmv" ] in
    let s = ref { ch_seed = seed; ch_events = events; ch_errors = 0; ch_kills = 0;
                  ch_slows = 0; ch_disconnects = 0; ch_restarts = 0; ch_corruptions = 0;
                  ch_skipped_corruptions = 0; ch_daemon_restarts = 0;
                  ch_cache_recoveries = 0; ch_probes = 0; ch_probes_ok = 0 }
    in
    let probe_lat = ref [] in
    let pid = ref (start_daemon ~socket_path ~cache_path) in
    let conn = ref (connect ~socket_path) in
    let send frame =
      let _, w, _ = !conn in
      if not (Lineio.write_line w (Protocol.encode_request frame)) then
        failf "daemon closed the socket unexpectedly"
    in
    let roundtrip frame =
      send frame;
      let r, _, _ = !conn in
      recv r
    in
    let reconnect () =
      let _, _, fd = !conn in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      conn := connect ~socket_path
    in
    let restart_daemon () =
      s := { !s with ch_daemon_restarts = !s.ch_daemon_restarts + 1 };
      pid := start_daemon ~socket_path ~cache_path;
      reconnect ()
    in
    (* after every event the daemon must answer a probe correctly;
       every 10th probe is a map checked byte-for-byte against the
       serial oracle, the rest are pings *)
    let probe k =
      let id = Printf.sprintf "p%05d" k in
      let frame =
        if k mod 10 = 5 then
          let point = Iced_util.Rng.choose rng points in
          let kernel = Iced_util.Rng.choose rng kernel_names in
          { Protocol.id; request = Protocol.Map { point; kernel; backend = Iced_mapper.Backend.default }; deadline_ms = None; tenant = None; qos = None }
        else { Protocol.id; request = Protocol.Ping; deadline_ms = None; tenant = None; qos = None }
      in
      let want = expect frame in
      let t0 = Clock.now () in
      let got = roundtrip frame in
      probe_lat := (Clock.now () -. t0) :: !probe_lat;
      s :=
        { !s with
          ch_probes = !s.ch_probes + 1;
          ch_probes_ok = (!s.ch_probes_ok + if got = want then 1 else 0) };
      if got <> want then
        Printf.eprintf "[chaos] probe %s diverged:\n  want %s\n  got  %s\n%!" id want got
    in
    let event k =
      let id = Printf.sprintf "e%05d" k in
      match Iced_util.Rng.int rng 100 with
      | d when d < 30 ->
        (* handler exception: the barrier answers with a fingerprint *)
        s := { !s with ch_errors = !s.ch_errors + 1 };
        let got =
          roundtrip
            { Protocol.id; request = Protocol.Crash { kill = false }; deadline_ms = None; tenant = None; qos = None }
        in
        let want =
          Protocol.response_internal_error ~id ~op:"crash"
            ~fingerprint:(Server.fingerprint Server.Chaos_failure)
        in
        if got <> want then failf "error event %s: want %s, got %s" id want got
      | d when d < 55 ->
        (* worker-domain death: supervisor answers, restarts the worker *)
        s := { !s with ch_kills = !s.ch_kills + 1 };
        let got =
          roundtrip
            { Protocol.id; request = Protocol.Crash { kill = true }; deadline_ms = None; tenant = None; qos = None }
        in
        let want =
          Protocol.response_internal_error ~id ~op:"crash"
            ~fingerprint:(Server.fingerprint Server.Worker_kill)
        in
        if got <> want then failf "kill event %s: want %s, got %s" id want got
      | d when d < 75 ->
        (* a request whose budget is already spent: deterministic shed *)
        s := { !s with ch_slows = !s.ch_slows + 1 };
        let got =
          roundtrip { Protocol.id; request = Protocol.Sleep 200; deadline_ms = Some 0; tenant = None; qos = None }
        in
        let want = Protocol.response_timeout ~id ~op:"sleep" in
        if got <> want then failf "slow event %s: want %s, got %s" id want got
      | d when d < 90 ->
        (* client vanishes mid-frame: the torn line must be discarded *)
        s := { !s with ch_disconnects = !s.ch_disconnects + 1 };
        let _, w, _ = !conn in
        ignore (Lineio.write_line w (Printf.sprintf "{\"id\":\"%s\",\"op\":\"pi" id));
        reconnect ()
      | d when d < 95 ->
        (* SIGTERM under load: accepted sleeps drain, exit 0, socket gone *)
        s := { !s with ch_restarts = !s.ch_restarts + 1 };
        let sleeps =
          List.init 3 (fun i ->
              { Protocol.id = Printf.sprintf "%s-s%d" id i;
                request = Protocol.Sleep 50; deadline_ms = None; tenant = None; qos = None })
        in
        List.iter send sleeps;
        let r, _, _ = !conn in
        let first = recv r in
        Unix.kill !pid Sys.sigterm;
        let rest = [ recv r; recv r ] in
        let got = List.sort compare (first :: rest) in
        let want =
          List.sort compare
            (List.map
               (fun (f : Protocol.frame) -> Protocol.response_sleep ~id:f.Protocol.id ~ms:50)
               sleeps)
        in
        if got <> want then
          failf "restart event %s: drained replies diverged (%s)" id (String.concat " " got);
        (match Unix.waitpid [] !pid with
        | _, Unix.WEXITED 0 -> ()
        | _, _ -> failf "restart event %s: daemon did not exit 0" id);
        if Sys.file_exists socket_path then
          failf "restart event %s: socket file survived drain" id;
        restart_daemon ()
      | _ -> (
        (* SIGKILL, then damage the cache file; the reopened daemon
           must recover the intact prefix and still answer correctly *)
        stop_daemon ~signal:Sys.sigkill ~socket_path !pid;
        let image =
          let ic = open_in_bin cache_path in
          let c = really_input_string ic (in_channel_length ic) in
          close_in ic;
          c
        in
        match Cache.wal_entries image with
        | [] ->
          s := { !s with ch_skipped_corruptions = !s.ch_skipped_corruptions + 1 };
          restart_daemon ()
        | entries ->
          s := { !s with ch_corruptions = !s.ch_corruptions + 1 };
          let off, len = List.nth entries (Iced_util.Rng.int rng (List.length entries)) in
          let pos = off + (len / 2) in
          if Iced_util.Rng.int rng 2 = 0 then
            (* torn append: the file ends mid-record *)
            Unix.truncate cache_path pos
          else begin
            (* flipped byte: the record's checksum no longer matches *)
            let b = Bytes.of_string image in
            Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
            let oc = open_out_bin cache_path in
            output_bytes oc b;
            close_out oc
          end;
          restart_daemon ();
          let health =
            roundtrip { Protocol.id; request = Protocol.Health; deadline_ms = None; tenant = None; qos = None }
          in
          let recovered =
            match J.parse health with
            | Error _ -> false
            | Ok v -> (
              match Option.bind (J.member "cache" v) (J.member "recovery") with
              | Some J.Null | None -> false
              | Some _ -> true)
          in
          if not recovered then failf "corrupt event %s: health reported no recovery" id;
          s := { !s with ch_cache_recoveries = !s.ch_cache_recoveries + 1 })
    in
    let t0 = Clock.now () in
    for k = 0 to events - 1 do
      event k;
      probe k
    done;
    (* graceful wind-down of the last daemon generation *)
    send { Protocol.id = "bye"; request = Protocol.Shutdown; deadline_ms = None; tenant = None; qos = None };
    let r, _, fd = !conn in
    let bye = recv r in
    if bye <> Protocol.response_shutdown ~id:"bye" then failf "bad shutdown reply: %s" bye;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (match Unix.waitpid [] !pid with
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> failf "final daemon did not exit 0");
    let wall_s = Clock.now () -. t0 in
    (try Sys.remove cache_path with Sys_error _ -> ());
    (!s, wall_s, !probe_lat)
  in
  (* -------------------------------------------------------------- *)
  let summary, wall_s, lats = run_scenario 0 in
  let summary2, _, _ = run_scenario 1 in
  let deterministic = summary = summary2 in
  if not deterministic then
    Printf.eprintf "[chaos] WARNING: two same-seed runs produced different summaries\n%!";
  let availability =
    if summary.ch_probes = 0 then 1.0
    else float_of_int summary.ch_probes_ok /. float_of_int summary.ch_probes
  in
  let lat = Array.of_list lats in
  Array.sort compare lat;
  let n = Array.length lat in
  let pct p =
    if n = 0 then 0.0
    else lat.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let t =
    Table.create
      ~title:(Printf.sprintf "iced chaos: %d events, seed %d (run twice)" events seed)
      ~columns:[ "metric"; "value" ]
  in
  List.iter
    (fun (k, v) -> Table.add_row t [ k; v ])
    [ ("handler errors", string_of_int summary.ch_errors);
      ("worker kills", string_of_int summary.ch_kills);
      ("expired deadlines", string_of_int summary.ch_slows);
      ("disconnects", string_of_int summary.ch_disconnects);
      ("drain restarts", string_of_int summary.ch_restarts);
      ("cache corruptions", string_of_int summary.ch_corruptions);
      ("daemon restarts", string_of_int summary.ch_daemon_restarts);
      ("cache recoveries", string_of_int summary.ch_cache_recoveries);
      ("probes ok", Printf.sprintf "%d/%d" summary.ch_probes_ok summary.ch_probes);
      ("availability", Printf.sprintf "%.4f" availability);
      ("probe p99 ms", Printf.sprintf "%.3f" (pct 0.99 *. 1e3));
      ("deterministic", string_of_bool deterministic) ];
  Table.print t;
  write_json "BENCH_chaos.json"
    (J.Obj
       [ ("schema", J.Str "iced-bench-chaos-v1"); ("seed", J.int seed); ("events", J.int events);
         ( "injected",
           J.Obj
             [ ("error", J.int summary.ch_errors); ("kill", J.int summary.ch_kills);
               ("slow", J.int summary.ch_slows); ("disconnect", J.int summary.ch_disconnects);
               ("restart", J.int summary.ch_restarts); ("corrupt", J.int summary.ch_corruptions);
               ("corrupt_skipped", J.int summary.ch_skipped_corruptions) ] );
         ( "recoveries",
           J.Obj
             [ ("worker_restarts", J.int summary.ch_kills);
               ("daemon_restarts", J.int summary.ch_daemon_restarts);
               ("cache_recoveries", J.int summary.ch_cache_recoveries) ] );
         ( "probes",
           J.Obj
             [ ("sent", J.int summary.ch_probes);
               ("answered_correctly", J.int summary.ch_probes_ok) ] );
         ("availability", J.Num availability); ("deterministic", J.Bool deterministic);
         ( "timing",
           J.Obj
             [ ("wall_s", J.Num wall_s); ("probe_p50_ms", J.Num (pct 0.5 *. 1e3));
               ("probe_p99_ms", J.Num (pct 0.99 *. 1e3)) ] ) ]);
  Printf.printf "wrote BENCH_chaos.json (%d events, availability %.4f)\n" events
    availability;
  Printf.printf "daemon log: %s\n" daemon_log;
  if availability < 1.0 then failwith "chaos: availability below 1.0";
  if not deterministic then failwith "chaos: same-seed runs diverged"

(* ------------------------------------------------------------------ *)
(* Exact oracle gap report: SAT-certified minimal II per small kernel  *)
(* vs each heuristic backend's II (BENCH_exact.json; the CI exact-gap  *)
(* job parses it).  ICED_BENCH_EXACT_KERNELS filters the kernel list,  *)
(* ICED_BENCH_EXACT_BUDGET overrides the per-II conflict budget.       *)

let exact_bench () =
  let module Mapper = Iced_mapper.Mapper in
  let module Exact = Iced_mapper.Exact in
  let budget = getenv_int "ICED_BENCH_EXACT_BUDGET" 100_000 in
  let fabric = Cgra.iced_6x6 in
  let selected =
    match Sys.getenv_opt "ICED_BENCH_EXACT_KERNELS" with
    | None | Some "" -> kernels
    | Some spec ->
      let wanted = String.split_on_char ',' spec in
      List.filter (fun (k : Kernel.t) -> List.mem k.name wanted) kernels
  in
  let t =
    Table.create
      ~title:"Exact oracle: certified minimal II vs heuristic backends (uf1, 6x6)"
      ~columns:
        [ "kernel"; "nodes"; "verdict"; "opt ii"; "default"; "sa"; "pathfinder";
          "conflicts"; "blocks"; "wall ms" ]
  in
  let backends =
    [ Iced_mapper.Backend.default; Iced_mapper.Backend.sa;
      Iced_mapper.Backend.pathfinder ]
  in
  let bad_witness = ref [] in
  let rows =
    List.map
      (fun (k : Kernel.t) ->
        let t0 = Clock.now () in
        let report = Exact.certify ~budget_conflicts:budget fabric k.dfg in
        let wall = Clock.now () -. t0 in
        let verdict, opt_ii, first_undecided, feasible_at =
          match report.Exact.verdict with
          | Exact.Optimal ii -> ("optimal", Some ii, None, None)
          | Exact.Infeasible -> ("infeasible", None, None, None)
          | Exact.Unknown { first_undecided; feasible_at } ->
            ("unknown", None, Some first_undecided, feasible_at)
        in
        let witness_valid =
          match report.Exact.witness with
          | None -> false
          | Some m -> Iced_mapper.Validate.check m = Ok ()
        in
        (match opt_ii with
        | Some _ when not witness_valid -> bad_witness := k.name :: !bad_witness
        | _ -> ());
        let per_backend =
          List.map
            (fun backend ->
              let name = Iced_mapper.Backend.to_string backend in
              let req = Mapper.request ~strategy:Mapper.Dvfs_aware ~backend fabric in
              match Mapper.map req k.dfg with
              | Error _ -> (name, None)
              | Ok m -> (name, Some m.Iced_mapper.Mapping.ii))
            backends
        in
        let cell (_, ii) =
          match (ii, opt_ii) with
          | Some hii, Some oii when hii > oii ->
            Printf.sprintf "%d (+%d)" hii (hii - oii)
          | Some hii, _ -> string_of_int hii
          | None, _ -> "-"
        in
        Table.add_row t
          [ k.name;
            string_of_int (Iced_dfg.Graph.node_count k.dfg);
            verdict;
            (match opt_ii with Some ii -> string_of_int ii | None -> "-");
            cell (List.nth per_backend 0);
            cell (List.nth per_backend 1);
            cell (List.nth per_backend 2);
            string_of_int report.Exact.conflicts;
            string_of_int report.Exact.route_blocks;
            Printf.sprintf "%.1f" (wall *. 1e3) ];
        let opt_field = function Some v -> J.int v | None -> J.Null in
        let backend_json (name, ii) =
          match ii with
          | Some hii ->
            J.Obj
              ([ ("backend", J.Str name); ("ok", J.Bool true); ("ii", J.int hii) ]
              @ match opt_ii with Some oii -> [ ("gap", J.int (hii - oii)) ] | None -> [])
          | None -> J.Obj [ ("backend", J.Str name); ("ok", J.Bool false) ]
        in
        J.Obj
          [ ("kernel", J.Str k.name); ("nodes", J.int (Iced_dfg.Graph.node_count k.dfg));
            ("edges", J.int (Iced_dfg.Graph.edge_count k.dfg)); ("verdict", J.Str verdict);
            ("optimal_ii", opt_field opt_ii); ("first_undecided", opt_field first_undecided);
            ("feasible_at", opt_field feasible_at); ("start_ii", J.int report.Exact.start_ii);
            ("conflicts", J.int report.Exact.conflicts);
            ("decisions", J.int report.Exact.decisions);
            ("propagations", J.int report.Exact.propagations);
            ("route_blocks", J.int report.Exact.route_blocks); ("vars", J.int report.Exact.vars);
            ("clauses", J.int report.Exact.clauses); ("witness_valid", J.Bool witness_valid);
            ("wall_s", J.Num wall); ("backends", J.Arr (List.map backend_json per_backend)) ])
      selected
  in
  Table.print t;
  write_json "BENCH_exact.json"
    (J.Obj
       [ ("schema", J.Str "iced-bench-exact-v1"); ("fabric", J.Str "6x6");
         ("budget_conflicts", J.int budget); ("kernels", J.Arr rows) ]);
  Printf.printf "wrote BENCH_exact.json (%d kernels)\n" (List.length rows);
  if !bad_witness <> [] then
    failwith
      (Printf.sprintf "exact: invalid witness for %s"
         (String.concat ", " (List.rev !bad_witness)))

(* ------------------------------------------------------------------ *)
(* tenancy: cap-sweep the multi-tenant scheduler at several fleet      *)
(* sizes (BENCH_tenancy.json; the CI tenancy-smoke job parses it).     *)
(* ICED_BENCH_TENANCY_TENANTS / _INPUTS / _SEED override the           *)
(* defaults.  The experiment is its own gate: every sweep cell must    *)
(* hold measured power under the cap with nobody starved, each sweep   *)
(* must be byte-identical across worker counts and a same-seed rerun,  *)
(* and a single-tenant shared run must reproduce Runner.run            *)
(* byte-for-byte.                                                      *)

let tenancy_bench () =
  let module Tenant = Iced_tenancy.Tenant in
  let module Scheduler = Iced_tenancy.Scheduler in
  let module Capsweep = Iced_tenancy.Capsweep in
  let module Runner = Iced_stream.Runner in
  let getenv_int name default =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some v -> v
    | None -> default
  in
  let counts =
    match Sys.getenv_opt "ICED_BENCH_TENANCY_TENANTS" with
    | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
    | None -> [ 2; 4; 8 ]
  in
  let inputs = getenv_int "ICED_BENCH_TENANCY_INPUTS" 40 in
  let seed = getenv_int "ICED_BENCH_TENANCY_SEED" 1 in
  let plan_fleet count =
    match Scheduler.plan (Tenant.synthetic_mix ~inputs ~seed ~count ()) with
    | Ok plan -> plan
    | Error msg -> failwith (Printf.sprintf "tenancy: planning %d tenants: %s" count msg)
  in
  (* gate 1: a 1-tenant shared run with no cap reproduces the solo
     runner byte-for-byte (window reports are all floats, so structural
     equality is byte equality of any rendering) *)
  let single_tenant_identical =
    let plan = plan_fleet 1 in
    let p = List.hd plan.Scheduler.placements in
    let partition = List.assoc p.Scheduler.islands p.Scheduler.partitions in
    let tenant = p.Scheduler.tenant in
    let shared =
      Runner.run_shared ~trace:false ~fabric:Scheduler.fabric
        [ { Runner.tenant = tenant.Tenant.id; partition; stream = tenant.Tenant.inputs } ]
    in
    let solo = Runner.run ~trace:false partition Runner.Iced_dvfs tenant.Tenant.inputs in
    List.assoc tenant.Tenant.id shared.Runner.tenant_reports = solo
  in
  if not single_tenant_identical then
    failwith "tenancy: single-tenant shared run diverged from Runner.run";
  let sweeps =
    List.map
      (fun count ->
        let plan = plan_fleet count in
        let s1 = Capsweep.run ~workers:1 plan in
        let j1 = Capsweep.sweep_json s1 in
        (* gate 2: byte-identical across worker counts and reruns *)
        if Capsweep.sweep_json (Capsweep.run ~workers:4 plan) <> j1 then
          failwith
            (Printf.sprintf "tenancy: %d-tenant sweep diverged across worker counts" count);
        if Capsweep.sweep_json (Capsweep.run ~workers:1 (plan_fleet count)) <> j1 then
          failwith
            (Printf.sprintf "tenancy: %d-tenant sweep diverged on a same-seed rerun" count);
        (* gate 3: the cap held and nobody starved in any cell *)
        List.iter
          (fun (r : Capsweep.row) ->
            if not r.Capsweep.cap_ok then
              failwith
                (Printf.sprintf "tenancy: cap violated (%d tenants, fraction %.2f)" count
                   r.Capsweep.fraction);
            if r.Capsweep.starved <> [] then
              failwith
                (Printf.sprintf "tenancy: starved tenants %s (%d tenants, fraction %.2f)"
                   (String.concat "," r.Capsweep.starved)
                   count r.Capsweep.fraction))
          s1.Capsweep.rows;
        Capsweep.render Format.std_formatter s1;
        Format.pp_print_newline Format.std_formatter ();
        Capsweep.sweep_value s1)
      counts
  in
  write_json "BENCH_tenancy.json"
    (J.Obj
       [ ("schema", J.Str "iced-bench-tenancy-v1"); ("inputs", J.int inputs);
         ("seed", J.int seed); ("workers_compared", J.Arr [ J.int 1; J.int 4 ]);
         ("deterministic", J.Bool true);
         ("single_tenant_identical", J.Bool single_tenant_identical);
         ("sweeps", J.Arr sweeps) ]);
  Printf.printf "wrote BENCH_tenancy.json (%d sweeps)\n" (List.length sweeps)

(* ------------------------------------------------------------------ *)

let experiments =
  [ ("table1", table1); ("fig2", fig2); ("fig4", fig4); ("fig8", fig8); ("fig9", fig9);
    ("fig10", fig10); ("fig11", fig11); ("fig12", fig12); ("fig13", fig13);
    ("fig14", fig14); ("ablation", ablation); ("explore", explore); ("perf", perf);
    ("mapper", mapper_bench); ("fault", fault_injection); ("serve", serve_bench);
    ("chaos", chaos); ("exact", exact_bench); ("tenancy", tenancy_bench) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some fn ->
        Printf.printf "### %s ###\n%!" name;
        fn ();
        print_newline ()
      | None ->
        Printf.eprintf "unknown experiment %s (available: %s)\n" name
          (String.concat " " (List.map fst experiments)))
    requested
