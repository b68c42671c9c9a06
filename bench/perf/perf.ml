(* The repository benchmark: one workload per process, end-to-end
   metrics from an untraced run, per-layer metrics from a traced one.

     perf.exe run --workload W [--seed N] [--seconds S] [--trace 0|1]
                  [--json FILE] [--trace-file FILE] [--golden FILE] [--smoke]
     perf.exe compare RUN.json [BASELINE.json] [--benchmark FILE]
     perf.exe stability --workload W [--runs N] [--seed N] [--seconds S]
                  [--distinct-seeds] [--json FILE] [--benchmark FILE]
     perf.exe smoke [--benchmark FILE] [--golden FILE]

   `run` prints every metric as `name value unit`, then one JSON line
   {correct, attempted, failed, metrics} as the last line of standard
   output.  See bench/perf/README.md. *)

let usage =
  "perf.exe (run|compare|stability|smoke) [options]; see bench/perf/README.md"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit 2) fmt

let workload_or_die name =
  match Runner.find name with
  | Some w -> w
  | None ->
    die "unknown workload %S (one of: %s)" name
      (String.concat ", " (List.map Runner.name_of Runner.workloads))

let print_result (r : Runner.result) =
  Printf.printf "speed_factor %s (timings below are divided by it)\n" (Runner.number r.speed);
  List.iter
    (fun (name, v) -> Printf.printf "%s %s %s\n" name (Runner.number v) (Runner.unit_of name))
    r.metrics;
  List.iter (fun msg -> Printf.eprintf "failed: %s\n" msg) r.failures;
  print_endline (Runner.result_line r)

let cmd_run args =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  let json = ref "" and trace_file = ref "" and golden = ref "test/golden/certified_ii.txt" in
  let smoke = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics from a traced run");
      ("--json", Arg.Set_string json, "FILE write the run to a ledger file");
      ("--trace-file", Arg.Set_string trace_file, "FILE write the Chrome/Perfetto trace");
      ("--golden", Arg.Set_string golden, "FILE certified-II fixture (certify)");
      ("--smoke", Arg.Set smoke, " sub-second inputs, for the build's smoke test") ]
  in
  Arg.parse_argv ~current:(ref 0) args spec (fun a -> die "unexpected argument %S" a) usage;
  let w = workload_or_die !workload in
  let config = { Workload.seed = !seed; smoke = !smoke; golden = !golden } in
  let r =
    Runner.run
      ?trace_file:(if !trace_file = "" then None else Some !trace_file)
      w config ~seconds:!seconds ~traced:(!trace = 1)
  in
  if r.traced then Tracer.pp_summary stdout;
  print_result r;
  if !json <> "" then Ledger.write !json (Ledger.of_result r)

(* Each run in its own process, so set-up and peak memory are per run. *)
let run_child ~workload ~seed ~seconds =
  let out = Filename.temp_file "perf" ".json" in
  let args =
    [| Sys.executable_name; "run"; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; Runner.number seconds; "--json"; out |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin devnull Unix.stderr in
  Unix.close devnull;
  let _, status = Unix.waitpid [] pid in
  if status <> Unix.WEXITED 0 then die "run of %s (seed %d) failed" workload seed;
  let l = Ledger.read out in
  Sys.remove out;
  l

let cmd_stability args =
  let workload = ref "" and runs = ref 5 and seed = ref 1 and seconds = ref 15.0 in
  let distinct = ref false and json = ref "" and benchmark = ref "BENCHMARK.json" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--runs", Arg.Set_int runs, "N runs (default 5)");
      ("--seed", Arg.Set_int seed, "N seed of every run (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed phase per run (default 15)");
      ("--distinct-seeds", Arg.Set distinct, " run i uses seed N+i");
      ("--json", Arg.Set_string json, "FILE write all runs to a ledger file");
      ("--benchmark", Arg.Set_string benchmark, "FILE bounds (default BENCHMARK.json)") ]
  in
  Arg.parse_argv ~current:(ref 0) args spec (fun a -> die "unexpected argument %S" a) usage;
  ignore (workload_or_die !workload);
  let bounds = Ledger.bounds !benchmark in
  let ls =
    List.init !runs (fun i ->
        let seed = if !distinct then !seed + i else !seed in
        Printf.eprintf "stability: %s run %d/%d (seed %d)\n%!" !workload (i + 1) !runs seed;
        run_child ~workload:!workload ~seed ~seconds:!seconds)
  in
  let l = Ledger.merge ls in
  if !json <> "" then Ledger.write !json l;
  if Ledger.stability ~bounds l > 0 then exit 1

let cmd_compare args =
  let files = ref [] and benchmark = ref "BENCHMARK.json" in
  let spec = [ ("--benchmark", Arg.Set_string benchmark, "FILE bounds (default BENCHMARK.json)") ] in
  Arg.parse_argv ~current:(ref 0) args spec (fun a -> files := !files @ [ a ]) usage;
  let run, baseline =
    match !files with
    | [ run ] ->
      let r = Ledger.read run in
      (r, Ledger.read (Printf.sprintf "bench/perf/baseline/%s.json" r.workload))
    | [ run; base ] -> (Ledger.read run, Ledger.read base)
    | _ -> die "compare RUN.json [BASELINE.json]"
  in
  if run.workload <> baseline.workload then
    die "workloads differ: %s vs %s" run.workload baseline.workload;
  if Ledger.compare ~bounds:(Ledger.bounds !benchmark) ~baseline run > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Smoke: every workload at sub-second size, both trace modes, checked
   against BENCHMARK.json's schema; silent when everything holds. *)

let cmd_smoke args =
  let benchmark = ref "BENCHMARK.json" and golden = ref "test/golden/certified_ii.txt" in
  let spec =
    [ ("--benchmark", Arg.Set_string benchmark, "FILE (default BENCHMARK.json)");
      ("--golden", Arg.Set_string golden, "FILE certified-II fixture") ]
  in
  Arg.parse_argv ~current:(ref 0) args spec (fun a -> die "unexpected argument %S" a) usage;
  let module Json = Iced_util.Json in
  let bench = Ledger.parse_file !benchmark in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let names_units key =
    List.map
      (fun m ->
        ( Ledger.field !benchmark m "name" Json.get_string,
          Ledger.field !benchmark m "unit" Json.get_string ))
      (Ledger.field !benchmark bench key Json.get_list)
  in
  if names_units "end_to_end" <> Runner.end_to_end then
    err "BENCHMARK.json end_to_end differs from the metrics perf.exe reports";
  if names_units "per_layer" <> Runner.per_layer then
    err "BENCHMARK.json per_layer differs from the metrics perf.exe reports";
  let declared =
    List.map
      (fun w -> Ledger.field !benchmark w "name" Json.get_string)
      (Ledger.field !benchmark bench "workloads" Json.get_list)
  in
  if declared <> List.map Runner.name_of Runner.workloads then
    err "BENCHMARK.json workloads differ from perf.exe's";
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let config = { Workload.seed = 1; smoke = true; golden = !golden } in
          let r = Runner.run w config ~seconds:0.05 ~traced in
          let who = Printf.sprintf "%s (trace %d)" r.workload (Bool.to_int traced) in
          List.iter (fun msg -> err "%s: failed: %s" who msg) r.failures;
          match Json.parse (Runner.result_line r) with
          | Error e -> err "%s: result line: %s" who (Json.error_to_string e)
          | Ok v ->
            let keys = Option.map (List.map fst) (Json.get_obj v) in
            if keys <> Some [ "correct"; "attempted"; "failed"; "metrics" ] then
              err "%s: result keys differ" who;
            if Option.bind (Json.member "correct" v) Json.get_bool <> Some true then
              err "%s: not correct" who;
            if Option.bind (Json.member "failed" v) Json.get_int <> Some 0 then
              err "%s: failed ops" who;
            let expected = if traced then Runner.per_layer else Runner.end_to_end in
            let metrics = Option.value ~default:[] (Option.bind (Json.member "metrics" v) Json.get_obj) in
            if List.map fst metrics <> List.map fst expected then err "%s: metric names differ" who;
            List.iter
              (fun (name, m) ->
                match
                  ( Option.bind (Json.member "value" m) Json.get_number,
                    Option.bind (Json.member "unit" m) Json.get_string )
                with
                | Some x, Some u ->
                  if u <> List.assoc name expected then err "%s: %s has unit %s" who name u;
                  if not (Float.is_finite x) then err "%s: %s is not finite" who name;
                  if (not traced) && x = 0.0 then err "%s: %s is 0" who name
                | _ -> err "%s: %s is malformed" who name)
              metrics)
        [ false; true ])
    Runner.workloads;
  if !errors <> [] then begin
    List.iter prerr_endline (List.rev !errors);
    exit 1
  end

let () =
  let argv = Sys.argv in
  if Array.length argv < 2 then die "%s" usage;
  let rest = Array.append [| argv.(0) ^ " " ^ argv.(1) |] (Array.sub argv 2 (Array.length argv - 2)) in
  try
    match argv.(1) with
    | "run" -> cmd_run rest
    | "compare" -> cmd_compare rest
    | "stability" -> cmd_stability rest
    | "smoke" -> cmd_smoke rest
    | other -> die "unknown command %S\n%s" other usage
  with
  | Arg.Bad msg | Arg.Help msg -> die "%s" msg
  | Failure msg | Sys_error msg -> die "%s" msg
