(* The `iced` command-line tool: map kernels, simulate schedules, run
   streaming applications, and print the design-point report.

     iced kernels                         list the Table I workloads
     iced map fir --point iced --unroll 2 map one kernel
     iced certify fir --json              SAT-certified minimal II
     iced simulate gemm --iterations 50   functional simulation
     iced stream gcn --policy iced        streaming run
     iced report                          headline design comparison
     iced explore --workers 4             design-space sweep + Pareto report
     iced fault lu --policies remap       fault-injection campaign
     iced serve --workers 4               mapping-as-a-service daemon
     iced trace map fir --trace-out t.json  any of the above, traced

   Every subcommand's term builds a thunk (its run function takes a
   trailing unit), so the `trace` group can reuse the exact same
   argument spec and wrap the thunk in Iced_obs.Export.capture. *)

open Cmdliner
open Iced_arch
module Design = Iced.Design
module J = Iced_util.Json

(* Run [f], which writes the files [paths].  Opening one of them fails
   with [Sys_error "PATH: reason"]; report that as one line and the
   CLI's error code rather than an uncaught exception. *)
let writing paths f =
  let names msg = List.exists (fun p -> String.starts_with ~prefix:(p ^ ": ") msg) paths in
  try f () with
  | Sys_error msg when names msg ->
    Printf.eprintf "iced: cannot write %s\n" msg;
    exit 1

(* Write a report file and name it on stderr, so stdout stays the
   report itself. *)
let write_report path contents =
  writing [ path ] (fun () -> Iced_obs.Export.write_file ~path contents);
  Printf.eprintf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)

let kernel_conv =
  let parse s =
    match Iced_kernels.Registry.by_name s with
    | Some k -> Ok k
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown kernel %s (try: %s)" s
             (String.concat " " (Iced_kernels.Registry.names ()))))
  in
  Arg.conv (parse, fun fmt (k : Iced_kernels.Kernel.t) -> Format.pp_print_string fmt k.name)

(* A float that must be finite and pass [ok]: anything else, NaN and
   infinity included, is a usage error rather than a silently odd run. *)
let checked_float ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some f when Float.is_finite f && ok f -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "bad value %S (expected %s)" s expected))
  in
  Arg.conv (parse, Format.pp_print_float)

let positive_float = checked_float ~expected:"a finite number > 0" (fun f -> f > 0.0)

(* Counts the library would reject with [Invalid_argument] are usage
   errors too, and so is any spelling but the canonical decimal one:
   [check] says what is wrong with a number, [expected] with anything
   else. *)
let int_conv ~expected check =
  let parse s =
    match Option.map (fun n -> (n, check n)) (Iced_util.Nat.of_string s) with
    | Some (n, None) -> Ok n
    | Some (_, Some why) -> Error (`Msg (Printf.sprintf "bad value %S (%s)" s why))
    | None -> Error (`Msg (Printf.sprintf "bad value %S (expected %s)" s expected))
  in
  Arg.conv (parse, Format.pp_print_int)

let checked_int ~expected ok =
  int_conv ~expected (fun n -> if ok n then None else Some ("expected " ^ expected))

let positive_int = checked_int ~expected:"an integer >= 1" (fun n -> n >= 1)

(* seeds and counts that may be zero: the spelling is the only rule *)
let natural = int_conv ~expected:"an integer >= 0" (fun _ -> None)

(* a fault campaign's counts are admitted by the campaign's own rule *)
let campaign_count count =
  int_conv ~expected:"a plain decimal integer" (Iced_campaign.Campaign.count_error count)

let probability =
  checked_float ~expected:"a finite number in [0, 1]" (fun f -> f >= 0.0 && f <= 1.0)

(* Converters over the library's string codecs.  [codec_conv] reports a
   value the codec rejects in this tool's own words; [codec_enum] is a
   cmdliner enum, so it also takes unambiguous prefixes and reports a
   miss in cmdliner's words. *)
let codec_conv ~of_string ~to_string ~error =
  let parse s = match of_string s with Some v -> Ok v | None -> Error (`Msg (error s)) in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (to_string v))

let codec_enum to_string values = Arg.enum (List.map (fun v -> (to_string v, v)) values)

let point_conv =
  let parse s =
    match
      List.find_opt (fun p -> Design.point_to_string p = s) Design.all_points
    with
    | Some p -> Ok p
    | None -> Error (`Msg "expected one of: baseline, baseline+pg, per-tile dvfs+pg, iced")
  in
  Arg.conv (parse, fun fmt p -> Format.pp_print_string fmt (Design.point_to_string p))

let kernel_arg =
  Arg.(required & pos 0 (some kernel_conv) None & info [] ~docv:"KERNEL")

let point_arg =
  Arg.(value & opt point_conv Design.Iced & info [ "point" ] ~docv:"POINT"
         ~doc:"Design point: baseline, baseline+pg, 'per-tile dvfs+pg', or iced.")

let unroll_arg =
  Arg.(value & opt (checked_int ~expected:"1 or 2" (fun n -> n = 1 || n = 2)) 1
       & info [ "unroll" ] ~docv:"N" ~doc:"Unroll factor (1 or 2).")

let backend_conv =
  let parse s =
    match Iced_mapper.Backend.of_string s with
    | Ok b -> Ok b
    | Error msg ->
      Error
        (`Msg
          (Printf.sprintf "%s (try: %s)" msg
             (String.concat " " Iced_mapper.Backend.names)))
  in
  Arg.conv (parse, fun fmt b ->
      Format.pp_print_string fmt (Iced_mapper.Backend.to_string b))

let backend_arg =
  Arg.(value & opt backend_conv Iced_mapper.Backend.default
       & info [ "backend" ] ~docv:"BACKEND"
           ~doc:"Placement/routing backend: default (greedy placer + incremental \
                 Dijkstra router), sa (simulated-annealing placer; accepts \
                 sa:SEED), or pathfinder (negotiated-congestion router).")

(* the fabric side is bounded where the daemon bounds it *)
let size_arg =
  let max = Iced_explore.Space.max_side in
  Arg.(value
       & opt
           (checked_int
              ~expected:(Printf.sprintf "an integer >= 2 and <= %d" max)
              (fun n -> n >= 2 && n <= max))
           6
       & info [ "size" ] ~docv:"N"
           ~doc:(Printf.sprintf "Fabric is NxN tiles (2 <= N <= %d)." max))

(* ------------------------------------------------------------------ *)
(* subcommands                                                         *)

let kernels_cmd =
  let run () =
    let t =
      Iced_util.Table.create ~title:"Table I workloads"
        ~columns:[ "kernel"; "domain"; "nodes"; "edges"; "RecMII" ]
    in
    List.iter
      (fun (k : Iced_kernels.Kernel.t) ->
        let n, e, r = Iced_kernels.Kernel.stats k.dfg in
        Iced_util.Table.add_row t
          [ k.name; Iced_kernels.Kernel.domain_to_string k.domain; string_of_int n;
            string_of_int e; string_of_int r ])
      Iced_kernels.Registry.all;
    Iced_util.Table.print t
  in
  Cmd.v (Cmd.info "kernels" ~doc:"List the benchmark kernels") Term.(const run $ const ())

(* Subcommand terms evaluate to thunks: the plain commands apply them
   immediately, the `trace` group wraps them in a capture session. *)

let dot_arg =
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE"
         ~doc:"Write the kernel's DFG to FILE in Graphviz format.")

let floorplan_arg =
  Arg.(value & flag & info [ "floorplan" ]
         ~doc:"Render the schedule as per-cycle fabric grids (the paper's Figure 1/3 view).")

let config_arg =
  Arg.(value & flag & info [ "config" ]
         ~doc:"Print the per-tile configuration-memory contents (control words).")

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"Print mapper telemetry: II ladder attempts, placements tried, routing \
               expansions, per-II wall time.")

let map_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"With --stats, emit the telemetry as one JSON line instead of a table.")

let print_mapper_stats ~json (kernel : Iced_kernels.Kernel.t) stats =
  if json then
    print_endline
      (J.to_string
         (J.Obj
            [ ("kernel", J.Str kernel.name);
              ("mapper_stats", Iced_mapper.Telemetry.to_json stats) ]))
  else begin
    let t =
      Iced_util.Table.create ~title:"mapper telemetry" ~columns:[ "counter"; "value" ]
    in
    let open Iced_mapper.Telemetry in
    Iced_util.Table.add_row t [ "attempts (II x margin)"; string_of_int stats.attempts ];
    Iced_util.Table.add_row t [ "II bumps"; string_of_int stats.ii_bumps ];
    Iced_util.Table.add_row t [ "margin ladder position"; string_of_int stats.margin_position ];
    Iced_util.Table.add_row t [ "placements tried"; string_of_int stats.placements_tried ];
    Iced_util.Table.add_row t [ "route calls"; string_of_int stats.route_calls ];
    Iced_util.Table.add_row t [ "route failures"; string_of_int stats.route_failures ];
    Iced_util.Table.add_row t [ "routing expansions"; string_of_int stats.expansions ];
    Iced_util.Table.add_row t [ "SA moves accepted"; string_of_int stats.sa_moves_accepted ];
    Iced_util.Table.add_row t [ "SA moves rejected"; string_of_int stats.sa_moves_rejected ];
    Iced_util.Table.add_row t [ "SA temperature steps"; string_of_int stats.sa_temp_steps ];
    Iced_util.Table.add_row t [ "Pathfinder rounds"; string_of_int stats.pf_rounds ];
    Iced_util.Table.add_row t [ "Pathfinder overflow"; string_of_int stats.pf_overflow ];
    Iced_util.Table.add_row t [ "SAT conflicts"; string_of_int stats.sat_conflicts ];
    Iced_util.Table.add_row t [ "SAT decisions"; string_of_int stats.sat_decisions ];
    Iced_util.Table.add_row t [ "SAT propagations"; string_of_int stats.sat_propagations ];
    Iced_util.Table.add_row t
      [ "per-II wall (s)";
        String.concat " "
          (List.map
             (fun (ii, s) -> Printf.sprintf "II%d:%.3f" ii s)
             (per_ii stats)) ];
    Iced_util.Table.add_row t [ "total wall (s)"; Printf.sprintf "%.3f" stats.wall_s ];
    Iced_util.Table.print t
  end

let map_term =
  let run kernel point unroll size backend dot floorplan config stats json () =
    let cgra = Cgra.make ~rows:size ~cols:size () in
    (match dot with
    | Some path ->
      writing [ path ] (fun () ->
          Iced_dfg.Dot.write_file ~path (Iced_kernels.Kernel.dfg_at kernel ~factor:unroll));
      Printf.printf "wrote %s\n" path
    | None -> ());
    let telemetry = Iced_mapper.Mapper.create_stats () in
    match Design.evaluate ~cgra ~unroll ~backend ~stats:telemetry point kernel with
    | Error msg ->
      Printf.eprintf "mapping failed: %s\n" msg;
      exit 1
    | Ok e ->
      if floorplan then Iced_mapper.Floorplan.print e.Design.mapping
      else Format.printf "%a" Iced_mapper.Mapping.pp e.Design.mapping;
      if config then begin
        List.iter
          (fun c ->
            Format.printf "%a" Iced_mapper.Bitstream.pp c;
            Printf.printf "  words:%s\n"
              (String.concat ""
                 (List.map (Printf.sprintf " %016Lx") (Iced_mapper.Bitstream.words c))))
          (Iced_mapper.Bitstream.generate e.Design.mapping);
        Printf.printf "total configuration: %d bits\n"
          (Iced_mapper.Bitstream.total_bits e.Design.mapping)
      end;
      Printf.printf "II = %d, speedup vs CPU = %.2fx\n" e.Design.ii e.Design.speedup_vs_cpu;
      Printf.printf "avg utilization = %.2f, avg DVFS level = %.2f, power = %.1f mW\n"
        e.Design.avg_utilization e.Design.avg_dvfs e.Design.power_mw;
      if stats then print_mapper_stats ~json kernel telemetry
  in
  Term.(
    const run $ kernel_arg $ point_arg $ unroll_arg $ size_arg $ backend_arg $ dot_arg
    $ floorplan_arg $ config_arg $ stats_arg $ map_json_arg)

let map_doc = "Map a kernel onto the CGRA and print the schedule"
let map_cmd = Cmd.v (Cmd.info "map" ~doc:map_doc) Term.(map_term $ const ())

(* ------------------------------------------------------------------ *)
(* certify: SAT-backed exact minimal-II oracle                         *)

let max_ii_arg =
  Arg.(value & opt positive_int 16 & info [ "max-ii" ] ~docv:"N"
         ~doc:"Stop iterating at this II; reaching it undecided yields an \
               unknown verdict.")

let budget_conflicts_arg =
  Arg.(value & opt natural 100_000 & info [ "budget-conflicts" ] ~docv:"N"
         ~doc:"CDCL conflict budget per candidate II and stage (narrow \
               windows first, then the wide CNF that refutes), shared \
               across that stage's CEGAR re-solves.")

let seed_arg =
  Arg.(value & opt natural 0 & info [ "seed" ] ~docv:"N"
         ~doc:"Solver decision seed.  The whole report is a deterministic \
               function of kernel, fabric, budget and seed.")

let certify_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the report as one JSON line (wall time excluded, so the \
               output is byte-identical across runs).")

let certify_term =
  let run kernel unroll size max_ii budget seed json () =
    let cgra = Cgra.make ~rows:size ~cols:size () in
    let dfg = Iced_kernels.Kernel.dfg_at kernel ~factor:unroll in
    let module Exact = Iced_mapper.Exact in
    let report = Exact.certify ~max_ii ~budget_conflicts:budget ~seed cgra dfg in
    let outcome_str = function
      | Exact.Ii_feasible -> "feasible"
      | Exact.Ii_refuted -> "refuted"
      | Exact.Ii_budget -> "budget"
    in
    if json then begin
      let verdict =
        match report.Exact.verdict with
        | Exact.Optimal ii -> [ ("kind", J.Str "optimal"); ("ii", J.int ii) ]
        | Exact.Infeasible -> [ ("kind", J.Str "infeasible") ]
        | Exact.Unknown { first_undecided; feasible_at } ->
          [ ("kind", J.Str "unknown"); ("first_undecided", J.int first_undecided);
            ("feasible_at", match feasible_at with Some f -> J.int f | None -> J.Null) ]
      in
      let per_ii (ii, o) = J.Obj [ ("ii", J.int ii); ("outcome", J.Str (outcome_str o)) ] in
      print_endline
        (J.to_string
           (J.Obj
              [ ("kernel", J.Str kernel.Iced_kernels.Kernel.name);
                ("fabric", J.Str (Printf.sprintf "%dx%d" size size)); ("unroll", J.int unroll);
                ("max_ii", J.int max_ii); ("budget_conflicts", J.int budget); ("seed", J.int seed);
                ("verdict", J.Obj verdict); ("start_ii", J.int report.Exact.start_ii);
                ("per_ii", J.Arr (List.map per_ii report.Exact.per_ii));
                ("conflicts", J.int report.Exact.conflicts);
                ("decisions", J.int report.Exact.decisions);
                ("propagations", J.int report.Exact.propagations);
                ("restarts", J.int report.Exact.restarts);
                ("route_blocks", J.int report.Exact.route_blocks); ("vars", J.int report.Exact.vars);
                ("clauses", J.int report.Exact.clauses);
                ( "witness_valid",
                  J.Bool
                    (match report.Exact.witness with
                    | Some m -> Iced_mapper.Validate.check m = Ok ()
                    | None -> false) ) ]))
    end
    else begin
      (match report.Exact.witness with
      | Some m -> Format.printf "%a" Iced_mapper.Mapping.pp m
      | None -> ());
      let start_ii = report.Exact.start_ii in
      (match report.Exact.verdict with
      | Exact.Optimal ii when ii = start_ii ->
        Printf.printf
          "verdict: optimal II = %d (the lower bound max(RecMII, ResMII) rules out every \
           lower II)\n"
          ii
      | Exact.Optimal ii ->
        Printf.printf
          "verdict: optimal II = %d (the wide CNF refuted %s, the lower bound every II \
           below %d)\n"
          ii
          (if ii - 1 = start_ii then Printf.sprintf "II %d" start_ii
           else Printf.sprintf "IIs %d..%d" start_ii (ii - 1))
          start_ii
      | Exact.Infeasible when report.Exact.per_ii = [] ->
        Printf.printf "verdict: infeasible up to II %d (no II tried: %s)\n"
          report.Exact.max_ii
          (if start_ii > report.Exact.max_ii then
             Printf.sprintf "the lower bound %d exceeds --max-ii" start_ii
           else "the graph is empty or invalid")
      | Exact.Infeasible ->
        Printf.printf "verdict: infeasible up to II %d\n" report.Exact.max_ii
      | Exact.Unknown { first_undecided; feasible_at } ->
        Printf.printf "verdict: unknown — budget ran out at II %d%s\n"
          first_undecided
          (match feasible_at with
          | Some f -> Printf.sprintf "; a mapping exists at II %d" f
          | None -> ""));
      Printf.printf "per II:%s\n"
        (String.concat ""
           (List.map
              (fun (ii, o) -> Printf.sprintf " %d:%s" ii (outcome_str o))
              report.Exact.per_ii));
      Printf.printf
        "solver: %d conflicts, %d decisions, %d propagations, %d restarts, \
         %d route blocks, %d vars, %d clauses\n"
        report.Exact.conflicts report.Exact.decisions report.Exact.propagations
        report.Exact.restarts report.Exact.route_blocks report.Exact.vars
        report.Exact.clauses
    end
  in
  Term.(
    const run $ kernel_arg $ unroll_arg $ size_arg $ max_ii_arg
    $ budget_conflicts_arg $ seed_arg $ certify_json_arg)

let certify_doc = "Certify a kernel's minimal II with the SAT-backed exact oracle"

let certify_cmd =
  Cmd.v (Cmd.info "certify" ~doc:certify_doc) Term.(certify_term $ const ())

let iterations_arg =
  Arg.(value & opt positive_int 25
       & info [ "iterations" ] ~docv:"N" ~doc:"Loop iterations to run.")

let vcd_arg =
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE"
         ~doc:"Dump a value-change-dump waveform of the traced execution to FILE.")

let simulate_term =
  let run (kernel : Iced_kernels.Kernel.t) point unroll iterations vcd () =
    match Design.evaluate ~unroll point kernel with
    | Error msg ->
      Printf.eprintf "mapping failed: %s\n" msg;
      exit 1
    | Ok e ->
      let result =
        Iced_sim.Sim.run ~binding:kernel.binding e.Design.mapping ~iterations
      in
      let golden =
        Iced_sim.Sim.interpret ~binding:kernel.binding
          e.Design.mapping.Iced_mapper.Mapping.dfg ~iterations
      in
      Printf.printf "%d iterations in %d cycles (%d op instances)\n" iterations
        result.Iced_sim.Sim.cycles result.Iced_sim.Sim.executed;
      Printf.printf "stores: %d, timing violations: %d, matches interpreter: %b\n"
        (List.length result.Iced_sim.Sim.stores)
        (List.length result.Iced_sim.Sim.violations)
        (result.Iced_sim.Sim.stores = golden);
      (match vcd with
      | Some path ->
        writing [ path ] (fun () ->
            Iced_sim.Trace.write_vcd ~path e.Design.mapping ~iterations:(min iterations 8));
        Printf.printf "wrote %s\n" path
      | None -> ());
      if result.Iced_sim.Sim.stores <> golden || result.Iced_sim.Sim.violations <> []
      then exit 1
  in
  Term.(const run $ kernel_arg $ point_arg $ unroll_arg $ iterations_arg $ vcd_arg)

let simulate_doc = "Execute a mapped kernel and check it functionally"
let simulate_cmd = Cmd.v (Cmd.info "simulate" ~doc:simulate_doc) Term.(simulate_term $ const ())

let app_arg =
  Arg.(required & pos 0 (some (codec_enum Iced_stream.App.to_string Iced_stream.App.all)) None
       & info [] ~docv:"APP" ~doc:"Streaming application: gcn or lu.")

let policy_arg =
  Arg.(value
       & opt
           (codec_enum Iced_stream.Runner.policy_to_string
              [ Iced_stream.Runner.Static; Iced_stream.Runner.Iced_dvfs;
                Iced_stream.Runner.Drips ])
           Iced_stream.Runner.Iced_dvfs
       & info [ "policy" ] ~docv:"POLICY" ~doc:"Runtime policy: static, iced, or drips.")

let stream_term =
  let run app policy () =
    let inputs = Iced_stream.App.inputs app in
    match Iced_stream.App.partition app inputs with
    | Error msg ->
      Printf.eprintf "partitioning failed: %s\n" msg;
      exit 1
    | Ok partition ->
      let reports = Iced_stream.Runner.run partition policy inputs in
      let t =
        Iced_util.Table.create
          ~title:
            (Printf.sprintf "%s under the %s policy"
               partition.Iced_stream.Partition.pipeline.Iced_stream.Pipeline.name
               (Iced_stream.Runner.policy_to_string policy))
          ~columns:[ "window"; "inputs/s"; "power mW"; "inputs/s/W" ]
      in
      List.iter
        (fun (w : Iced_stream.Runner.window_report) ->
          Iced_util.Table.add_row t
            [ string_of_int w.index;
              Printf.sprintf "%.0f" w.throughput_per_s;
              Printf.sprintf "%.1f" w.power_mw;
              Printf.sprintf "%.0f" w.efficiency ])
        reports;
      let totals = Iced_stream.Runner.aggregate reports in
      Iced_util.Table.add_row t
        [ "OVERALL";
          Printf.sprintf "%.0f" totals.Iced_stream.Runner.overall_throughput_per_s;
          Printf.sprintf "%.1f"
            (totals.Iced_stream.Runner.total_energy_uj
            /. totals.Iced_stream.Runner.total_time_us *. 1000.0);
          Printf.sprintf "%.0f" totals.Iced_stream.Runner.overall_efficiency ];
      Iced_util.Table.print t
  in
  Term.(const run $ app_arg $ policy_arg)

let stream_doc = "Run a streaming application over its input dataset"
let stream_cmd = Cmd.v (Cmd.info "stream" ~doc:stream_doc) Term.(stream_term $ const ())

(* ------------------------------------------------------------------ *)
(* explore: design-space sweep with persistent cache + Pareto report   *)

module Explore = Iced_explore

let dims_conv =
  codec_conv ~of_string:Explore.Space.dims_of_string ~to_string:Explore.Space.dims_to_string
    ~error:(Printf.sprintf "bad dimensions %S (expected RxC)")

let floor_conv =
  codec_conv ~of_string:Explore.Space.floor_of_string
    ~to_string:Explore.Space.floor_to_string
    ~error:(Printf.sprintf "bad floor %S (rest, relax, or normal)")

let explore_term =
  let fabrics_arg =
    Arg.(value & opt (list dims_conv) [ (6, 6) ]
         & info [ "fabrics" ] ~docv:"RxC,..." ~doc:"Fabric dimensions to sweep.")
  in
  let islands_arg =
    Arg.(value & opt (some (list dims_conv)) None
         & info [ "islands" ] ~docv:"RxC,..."
             ~doc:"Island shapes to sweep; default: every shape tiling each fabric.")
  in
  let banks_arg =
    Arg.(value & opt (list natural) [ 8 ]
         & info [ "banks" ] ~docv:"N,..." ~doc:"SPM bank counts to sweep.")
  in
  let floors_arg =
    Arg.(value & opt (list floor_conv) [ Dvfs.Rest; Dvfs.Relax; Dvfs.Normal ]
         & info [ "floors" ] ~docv:"L,..."
             ~doc:"DVFS label floors to sweep (the supported level subsets): rest, \
                   relax, normal.")
  in
  let unrolls_arg =
    Arg.(value & opt (list natural) [ 1 ]
         & info [ "unrolls" ] ~docv:"N,..." ~doc:"Unroll factors to sweep (1 and/or 2).")
  in
  let max_iis_arg =
    Arg.(value & opt (list natural) [ 64 ]
         & info [ "max-ii" ] ~docv:"N,..." ~doc:"Mapper II caps to sweep.")
  in
  let kernels_arg =
    Arg.(value & opt (some (list kernel_conv)) None
         & info [ "kernels" ] ~docv:"K,..."
             ~doc:"Kernels to evaluate; default: the ten standalone Table I kernels.")
  in
  let sample_arg =
    Arg.(value & opt (some positive_int) None
         & info [ "sample" ] ~docv:"N"
             ~doc:"Evaluate a deterministic N-point subsample of the space.")
  in
  let seed_arg =
    Arg.(value & opt natural 42 & info [ "seed" ] ~docv:"S" ~doc:"Sampling seed.")
  in
  let workers_arg =
    Arg.(value & opt positive_int 1
         & info [ "workers" ] ~docv:"N" ~doc:"Evaluation domains (1 = serial).")
  in
  let timeout_arg =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-(point, kernel) mapping budget; unmapped points are reported \
                   as timeouts.  Default: none.")
  in
  let cache_arg =
    Arg.(value & opt string ".explore-cache.jsonl"
         & info [ "cache" ] ~docv:"FILE" ~doc:"Persistent evaluation-cache file.")
  in
  let no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Do not read or write the cache file.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-(point, kernel) results as CSV.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "out-json" ] ~docv:"FILE"
             ~doc:"Write per-(point, kernel) results as JSON.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No progress line on stderr.")
  in
  let run fabrics islands banks floors unrolls max_iis kernels sample seed workers
      timeout backend cache_path no_cache csv json quiet () =
    let islands =
      match islands with Some shapes -> shapes | None -> Explore.Space.default_islands fabrics
    in
    let spec =
      {
        Explore.Space.fabrics;
        islands;
        spm_banks = banks;
        floors;
        unrolls;
        max_iis;
      }
    in
    Option.iter
      (fun msg ->
        Printf.eprintf "iced explore: %s\n" msg;
        exit Cmd.Exit.cli_error)
      (Explore.Space.grid_error spec);
    let points =
      match sample with
      | Some count -> Explore.Space.sample spec ~seed ~count
      | None -> Explore.Space.enumerate spec
    in
    if points = [] then begin
      Printf.eprintf "the specified space contains no valid design point\n";
      exit 1
    end;
    let kernels =
      match kernels with Some ks -> ks | None -> Iced_kernels.Registry.standalone
    in
    let cache =
      if no_cache then Explore.Cache.in_memory ()
      else Explore.Cache.open_file cache_path
    in
    let config =
      {
        Explore.Sweep.workers;
        timeout_s = Option.value timeout ~default:infinity;
        backend;
        (* a \r-progress line only makes sense on a terminal *)
        progress = (not quiet) && Unix.isatty Unix.stderr;
      }
    in
    let outcomes, stats = Explore.Sweep.run ~config ~cache points kernels in
    (* the report is a pure function of the outcomes and goes to stdout;
       run statistics (wall time, cache traffic) go to stderr so two
       sweeps of the same space stay byte-identical *)
    print_string (Explore.Report.render outcomes);
    Option.iter (fun path -> write_report path (Explore.Report.csv outcomes)) csv;
    Option.iter (fun path -> write_report path (Explore.Report.json outcomes ^ "\n")) json;
    Format.eprintf "[explore] %a@." Explore.Sweep.pp_stats stats;
    Explore.Cache.close cache
  in
  Term.(
    const run $ fabrics_arg $ islands_arg $ banks_arg $ floors_arg $ unrolls_arg
    $ max_iis_arg $ kernels_arg $ sample_arg $ seed_arg $ workers_arg $ timeout_arg
    $ backend_arg $ cache_arg $ no_cache_arg $ csv_arg $ json_arg $ quiet_arg)

let explore_doc = "Sweep a design space and report its Pareto frontier"
let explore_cmd = Cmd.v (Cmd.info "explore" ~doc:explore_doc) Term.(explore_term $ const ())

(* ------------------------------------------------------------------ *)
(* fault: seeded fault-injection campaign over the streaming pipeline  *)

module Campaign = Iced_campaign.Campaign
module Fault = Iced_fault.Fault

let fault_term =
  let app_conv =
    codec_conv ~of_string:Iced_stream.App.of_string ~to_string:Iced_stream.App.to_string
      ~error:(Printf.sprintf "bad app %S (gcn or lu)")
  in
  let recovery_conv =
    codec_conv ~of_string:Iced_stream.Runner.recovery_of_string
      ~to_string:Iced_stream.Runner.recovery_to_string
      ~error:(Printf.sprintf "bad recovery %S (remap, gate, raise, fail-stop)")
  in
  let kind_conv =
    codec_conv ~of_string:Fault.class_of_string ~to_string:Fault.class_to_string
      ~error:(Printf.sprintf "bad fault kind %S (tile, link, island, upset)")
  in
  let app_arg =
    Arg.(value & pos 0 app_conv Iced_stream.App.Lu
         & info [] ~docv:"APP" ~doc:"Streaming application: gcn or lu (default lu).")
  in
  let policy_arg =
    Arg.(value
         & opt
             (codec_enum Iced_stream.Runner.policy_to_string
                [ Iced_stream.Runner.Static; Iced_stream.Runner.Iced_dvfs ])
             Iced_stream.Runner.Iced_dvfs
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Runtime policy under fault: static or iced (drips has no fault model).")
  in
  let recoveries_arg =
    Arg.(value
         & opt (list recovery_conv)
             [ Iced_stream.Runner.Remap; Iced_stream.Runner.Gate_island;
               Iced_stream.Runner.Raise_level; Iced_stream.Runner.Fail_stop ]
         & info [ "policies"; "recoveries" ] ~docv:"R,..."
             ~doc:"Recovery policies to compare: remap, gate, raise, fail-stop.")
  in
  let kinds_arg =
    Arg.(value
         & opt (list kind_conv) [ Fault.Tile; Fault.Link; Fault.Island; Fault.Upset ]
         & info [ "kinds" ] ~docv:"K,..."
             ~doc:"Fault families the plans draw from: tile, link, island, upset.")
  in
  let seeds_arg =
    Arg.(value & opt (campaign_count Campaign.Seeds) 4
         & info [ "seeds" ] ~docv:"N"
             ~doc:
               (Printf.sprintf "Fault-plan seeds 0..N-1, one plan each (1 <= N <= %d)."
                  Campaign.max_seeds))
  in
  let faults_arg =
    Arg.(value & opt (campaign_count Campaign.Faults) 2
         & info [ "faults" ] ~docv:"N"
             ~doc:
               (Printf.sprintf "Fault events injected per run (0 <= N <= %d)."
                  Campaign.max_faults))
  in
  let rate_arg =
    Arg.(value & opt probability 1e-3
         & info [ "rate" ] ~docv:"P"
             ~doc:"Per-cycle upset probability at the Rest level.")
  in
  let inputs_arg =
    Arg.(value & opt (campaign_count Campaign.Inputs) 200
         & info [ "inputs" ] ~docv:"N"
             ~doc:(Printf.sprintf "Stream length per run (2 <= N <= %d)." Campaign.max_inputs))
  in
  let window_arg =
    Arg.(value & opt (campaign_count Campaign.Window) 10
         & info [ "window" ] ~docv:"N" ~doc:"Runner observation window.")
  in
  let workers_arg =
    Arg.(value & opt positive_int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Campaign domains (1 = serial); results are identical for any N.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Write per-cell results as CSV.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "out-json" ] ~docv:"FILE" ~doc:"Write the campaign as JSON.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No progress line on stderr.")
  in
  let run app policy recoveries kinds seeds faults rate inputs window workers csv json
      quiet () =
    let spec =
      {
        Campaign.app;
        policy;
        recoveries;
        kinds;
        seeds = List.init seeds Fun.id;
        faults_per_run = faults;
        upset_rate = rate;
        inputs;
        window;
        workers;
      }
    in
    let progress =
      if quiet || not (Unix.isatty Unix.stderr) then fun _ _ -> ()
      else fun finished total -> Printf.eprintf "\r[fault] %d/%d cells%!" finished total
    in
    match Campaign.run ~progress spec with
    | Error msg ->
      Printf.eprintf "campaign failed: %s\n" msg;
      exit 1
    | Ok campaign ->
      if (not quiet) && Unix.isatty Unix.stderr then Printf.eprintf "\r%!";
      (* the report is a pure function of the spec and goes to stdout *)
      print_string (Campaign.render campaign);
      Option.iter (fun path -> write_report path (Campaign.csv campaign)) csv;
      Option.iter (fun path -> write_report path (Campaign.json campaign ^ "\n")) json
  in
  Term.(
    const run $ app_arg $ policy_arg $ recoveries_arg $ kinds_arg $ seeds_arg
    $ faults_arg $ rate_arg $ inputs_arg $ window_arg $ workers_arg $ csv_arg
    $ json_arg $ quiet_arg)

let fault_doc = "Run a seeded fault-injection campaign and compare recovery policies"
let fault_cmd = Cmd.v (Cmd.info "fault" ~doc:fault_doc) Term.(fault_term $ const ())

let report_term =
  let run size () =
    let cgra = Cgra.make ~rows:size ~cols:size () in
    let t =
      Iced_util.Table.create
        ~title:(Printf.sprintf "design-point comparison on %dx%d (means over 10 kernels)" size size)
        ~columns:[ "design"; "avg util"; "avg dvfs"; "power mW" ]
    in
    List.iter
      (fun point ->
        let evals =
          List.filter_map
            (fun k ->
              match Design.evaluate ~cgra point k with Ok e -> Some e | Error _ -> None)
            Iced_kernels.Registry.standalone
        in
        let mean f = Iced_util.Stats.mean (List.map f evals) in
        Iced_util.Table.add_row t
          [ Design.point_to_string point;
            Printf.sprintf "%.2f" (mean (fun e -> e.Design.avg_utilization));
            Printf.sprintf "%.2f" (mean (fun e -> e.Design.avg_dvfs));
            Printf.sprintf "%.1f" (mean (fun e -> e.Design.power_mw)) ])
      Design.all_points;
    Iced_util.Table.print t
  in
  Term.(const run $ size_arg)

let report_doc = "Compare the four design points on the kernel suite"
let report_cmd = Cmd.v (Cmd.info "report" ~doc:report_doc) Term.(report_term $ const ())

(* ------------------------------------------------------------------ *)
(* serve: the mapping-as-a-service daemon                              *)

let serve_term =
  let workers_arg =
    Arg.(value & opt positive_int 2
         & info [ "workers" ] ~docv:"N" ~doc:"Evaluation domains in the worker pool.")
  in
  let depth_arg =
    Arg.(value & opt positive_int 64
         & info [ "queue-depth" ] ~docv:"N"
             ~doc:"Admission-control bound: requests past this queue depth are shed \
                   with a structured overloaded reply instead of waiting.")
  in
  let cache_arg =
    Arg.(value & opt string ".serve-cache.jsonl"
         & info [ "cache" ] ~docv:"FILE"
             ~doc:"Persistent evaluation-cache file — the daemon's second tier, \
                   shared with `iced explore`'s format.")
  in
  let no_cache_arg =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"In-memory cache tier only.")
  in
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Listen on a Unix-domain socket at PATH (clients served one at a \
                   time) instead of stdin/stdout.")
  in
  let once_arg =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"No worker pool: evaluate serially on the calling domain, replying \
                   in arrival order.  The one-shot oracle the byte-identity tests \
                   compare the daemon against.")
  in
  let restart_budget_arg =
    Arg.(value & opt natural 8
         & info [ "restart-budget" ] ~docv:"N"
             ~doc:"Worker-domain deaths the supervisor absorbs (restarting the \
                   worker) before retiring workers and failing queued requests.")
  in
  let default_deadline_arg =
    Arg.(value & opt (some natural) None
         & info [ "default-deadline-ms" ] ~docv:"MS"
             ~doc:"Deadline applied to requests that carry no deadline_ms of their \
                   own; expired requests answer status \"timeout\".")
  in
  let fsync_arg =
    Arg.(value & flag
         & info [ "cache-fsync" ]
             ~doc:"fsync the persistent cache after every append (survives power \
                   loss, costs a disk round-trip per record).  Without it appends \
                   are flushed to the OS, which survives process death only.")
  in
  let run workers depth cache_path no_cache socket once restart_budget
      default_deadline_ms fsync () =
    let cache =
      if no_cache then Explore.Cache.in_memory ()
      else Explore.Cache.open_file ~fsync cache_path
    in
    (* SIGTERM/SIGINT request a drain: stop accepting, finish accepted
       work, flush the cache, remove the socket, exit 0.  No SA_RESTART:
       the signal must interrupt a blocked read/accept so the transport
       notices the flag. *)
    let stop_flag = Atomic.make false in
    let request_stop = Sys.Signal_handle (fun _ -> Atomic.set stop_flag true) in
    (try Sys.set_signal Sys.sigterm request_stop with Invalid_argument _ -> ());
    (try Sys.set_signal Sys.sigint request_stop with Invalid_argument _ -> ());
    let stop () = Atomic.get stop_flag in
    let config =
      { Iced_serve.Server.workers; queue_depth = depth; cache; restart_budget;
        default_deadline_ms }
    in
    (match socket with
    | Some path -> ignore (Iced_serve.Server.serve_socket ~once ~stop config path)
    | None -> ignore (Iced_serve.Server.serve_channels ~once ~stop config stdin stdout));
    Explore.Cache.close cache
  in
  Term.(
    const run $ workers_arg $ depth_arg $ cache_arg $ no_cache_arg $ socket_arg
    $ once_arg $ restart_budget_arg $ default_deadline_arg $ fsync_arg)

let serve_doc = "Field map/explore/stream/fault requests as a long-lived daemon"
let serve_cmd = Cmd.v (Cmd.info "serve" ~doc:serve_doc) Term.(serve_term $ const ())

(* ------------------------------------------------------------------ *)
(* tenant: multi-tenant shared-fabric streaming under a power cap      *)

module Tenancy = Iced_tenancy

let tenancy_policy_conv =
  let parse s =
    match Tenancy.Allocator.policy_of_string s with
    | Some p -> Ok p
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown policy %S (expected fair-share, weighted-qos, or strict-priority)"
             s))
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Tenancy.Allocator.policy_to_string p))

let tenancy_tenants_arg =
  Arg.(value & opt positive_int 4
       & info [ "tenants" ] ~docv:"N"
           ~doc:"Fleet size: N synthetic tenants cycling Table I kernels and QoS \
                 classes (premium/standard/batch).")

let tenancy_inputs_arg =
  Arg.(value & opt positive_int 60
       & info [ "inputs" ] ~docv:"N" ~doc:"Inputs per tenant stream.")

let tenancy_seed_arg =
  Arg.(value & opt natural 1
       & info [ "seed" ] ~docv:"SEED"
           ~doc:"Workload seed; equal seeds give byte-identical fleets and reports.")

let tenancy_faults_arg =
  Arg.(value & opt natural 0
       & info [ "faults" ] ~docv:"N"
           ~doc:"Island-regulator failures to inject across the run (cross-tenant \
                 reallocation exercises).")

let tenancy_fault_seed_arg =
  Arg.(value & opt natural 7 & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault-event seed.")

let tenancy_json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE" ~doc:"Also write the machine-readable report to FILE.")

let tenancy_plan ~tenants ~inputs ~seed ~faults ~fault_seed =
  let fleet = Tenancy.Tenant.synthetic_mix ~inputs ~seed ~count:tenants () in
  let spec = { Tenancy.Scheduler.faults; fault_seed } in
  match Tenancy.Scheduler.plan ~spec fleet with
  | Ok plan -> plan
  | Error msg ->
    Printf.eprintf "planning failed: %s\n" msg;
    exit 1

let tenant_run_term =
  let policy_arg =
    Arg.(value & opt tenancy_policy_conv Tenancy.Allocator.Fair_share
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Arbitration policy: fair-share, weighted-qos, or strict-priority.")
  in
  let cap_arg =
    Arg.(value & opt (some positive_float) None
         & info [ "cap-mw" ] ~docv:"MW"
             ~doc:"Global power cap in milliwatts (no cap when omitted).")
  in
  let frac_arg =
    Arg.(value & opt (some positive_float) None
         & info [ "cap-fraction" ] ~docv:"F"
             ~doc:"Cap as a fraction of the fleet's all-normal envelope; takes \
                   precedence over $(b,--cap-mw).")
  in
  let run tenants inputs seed policy cap frac faults fault_seed json () =
    let plan = tenancy_plan ~tenants ~inputs ~seed ~faults ~fault_seed in
    let cap_mw =
      match frac with
      | Some f -> Some (f *. Tenancy.Scheduler.max_envelope_mw plan)
      | None -> cap
    in
    let report = Tenancy.Scheduler.run ?cap_mw ~policy plan in
    Tenancy.Scheduler.render Format.std_formatter report;
    (match Tenancy.Scheduler.starved report with
    | [] -> ()
    | ids -> Printf.eprintf "STARVED tenants: %s\n" (String.concat ", " ids));
    Option.iter
      (fun path -> write_report path (Tenancy.Scheduler.report_json report ^ "\n"))
      json
  in
  Term.(
    const run $ tenancy_tenants_arg $ tenancy_inputs_arg $ tenancy_seed_arg $ policy_arg
    $ cap_arg $ frac_arg $ tenancy_faults_arg $ tenancy_fault_seed_arg $ tenancy_json_arg)

let tenant_run_doc = "Stream a tenant fleet once under a power cap and report the fleet"

let tenant_sweep_term =
  let fractions_arg =
    Arg.(value & opt (list positive_float) Tenancy.Capsweep.default_fractions
         & info [ "fractions" ] ~docv:"F,..."
             ~doc:"Cap fractions of the all-normal envelope to sweep.")
  in
  let policies_arg =
    Arg.(value & opt (list tenancy_policy_conv) [ Tenancy.Allocator.Fair_share ]
         & info [ "policies" ] ~docv:"P,..."
             ~doc:"Arbitration policies to sweep (cells are policy x fraction).")
  in
  let workers_arg =
    Arg.(value & opt positive_int 1
         & info [ "workers" ] ~docv:"N"
             ~doc:"Sweep-cell worker domains; results are byte-identical at any count.")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the sweep rows as CSV to FILE.")
  in
  let run tenants inputs seed fractions policies workers faults fault_seed json csv () =
    let plan = tenancy_plan ~tenants ~inputs ~seed ~faults ~fault_seed in
    let sweep = Tenancy.Capsweep.run ~fractions ~policies ~workers plan in
    Tenancy.Capsweep.render Format.std_formatter sweep;
    Option.iter (fun path -> write_report path (Tenancy.Capsweep.sweep_json sweep ^ "\n")) json;
    Option.iter (fun path -> write_report path (Tenancy.Capsweep.sweep_csv sweep)) csv
  in
  Term.(
    const run $ tenancy_tenants_arg $ tenancy_inputs_arg $ tenancy_seed_arg
    $ fractions_arg $ policies_arg $ workers_arg $ tenancy_faults_arg
    $ tenancy_fault_seed_arg $ tenancy_json_arg $ csv_arg)

let tenant_sweep_doc = "Cap-sweep the fleet: throughput vs cap vs fairness, Pareto-annotated"

let tenant_cmd =
  Cmd.group
    (Cmd.info "tenant"
       ~doc:
         "Share one fabric across N tenant pipelines under a global power cap \
          (see docs/MULTITENANT.md)")
    [
      Cmd.v (Cmd.info "run" ~doc:tenant_run_doc) Term.(tenant_run_term $ const ());
      Cmd.v (Cmd.info "sweep" ~doc:tenant_sweep_doc) Term.(tenant_sweep_term $ const ());
    ]

(* ------------------------------------------------------------------ *)
(* trace: any subcommand above, run under the Iced_obs collector       *)

let trace_out_arg =
  Arg.(value & opt string "trace.json"
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the Chrome/Perfetto trace-event JSON to FILE (open it in \
                 ui.perfetto.dev or chrome://tracing).")

let flame_arg =
  Arg.(value & opt (some string) None
       & info [ "flame" ] ~docv:"FILE"
           ~doc:"Also write a plain-text flame summary (time per span path) to FILE.")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Also write the metrics registry (counters, gauges, histograms) as JSON \
                 to FILE.")

let traced_cmd name doc term =
  let wrap out flame_out metrics_out thunk =
    writing
      (out :: List.filter_map Fun.id [ flame_out; metrics_out ])
      (fun () -> Iced_obs.Export.capture ~out ?flame_out ?metrics_out thunk);
    let dropped = Iced_obs.Trace.dropped () in
    if dropped > 0 then
      Printf.eprintf "[trace] ring overflow: %d oldest events dropped\n" dropped;
    Printf.eprintf "[trace] wrote %s\n" out
  in
  Cmd.v
    (Cmd.info name ~doc:(doc ^ " (traced)"))
    Term.(const wrap $ trace_out_arg $ flame_arg $ metrics_out_arg $ term)

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:
         "Run a subcommand with the tracing collector on and export the span trace, \
          an optional flame summary, and optional metrics")
    [
      traced_cmd "map" map_doc map_term;
      traced_cmd "certify" certify_doc certify_term;
      traced_cmd "simulate" simulate_doc simulate_term;
      traced_cmd "stream" stream_doc stream_term;
      traced_cmd "report" report_doc report_term;
      traced_cmd "explore" explore_doc explore_term;
      traced_cmd "fault" fault_doc fault_term;
      traced_cmd "serve" serve_doc serve_term;
    ]

let () =
  let doc = "ICED: DVFS-aware CGRA mapping, simulation, and evaluation" in
  let info = Cmd.info "iced" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ kernels_cmd; map_cmd; certify_cmd; simulate_cmd; stream_cmd; report_cmd;
            explore_cmd; fault_cmd; serve_cmd; tenant_cmd; trace_cmd ]))
