(* Differential regression for the layered mapping engine.

   test/golden/mapper_golden.txt holds one fingerprint line per corpus
   case (see Iced_testgen.Diff_gen), captured BEFORE the mapper was
   split into Cost/Estimate/Search/Telemetry and the router gained its
   flat scratch arena.  Re-mapping the same corpus must reproduce every
   line byte for byte: the refactor is contractually behaviour
   preserving.  A mismatch here means the engine's placement or routing
   decisions drifted — regenerate the golden file (gen_golden.exe) only
   when such a change is intended and reviewed. *)

let golden_path = "golden/mapper_golden.txt"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let case_name line = match String.index_opt line '\t' with
  | Some i -> String.sub line 0 i
  | None -> line

let check_against_golden ~what path actual =
  let expected = read_lines path in
  Alcotest.(check int) (what ^ " golden size") (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      if not (String.equal e a) then
        Alcotest.failf "%s drifted for %s\n  golden: %s\n  now:    %s" what (case_name e)
          e a)
    expected actual

let test_corpus_unchanged () =
  check_against_golden ~what:"mapping" golden_path (Iced_testgen.Diff_gen.golden_lines ())

(* test/golden/backend_golden.txt pins the [default], [sa] and
   [pathfinder] backends the same way, plus each case's search counters
   (attempts, placements, route calls and failures, expansions, SA
   moves and temperature steps, Pathfinder rounds and overflow): an
   optimisation of the mapper's hot path must leave both the mappings
   and the search that found them unchanged.  The cases are listed in
   Iced_testgen.Diff_gen. *)
let backend_golden_path = "golden/backend_golden.txt"

let test_backends_unchanged () =
  check_against_golden ~what:"backend" backend_golden_path
    (Iced_testgen.Diff_gen.backend_lines ())

let test_corpus_has_no_failures () =
  (* The corpus is meant to exercise successful mappings; a FAIL line in
     the golden file would make the differential test vacuous for that
     case. *)
  List.iter
    (fun line ->
      match String.index_opt line '\t' with
      | Some i when String.length line > i + 5 && String.sub line (i + 1) 5 = "FAIL:" ->
        Alcotest.failf "golden corpus case %s did not map" (case_name line)
      | _ -> ())
    (read_lines golden_path)

let test_stats_populated () =
  (* The same engine entry point used by the corpus also feeds the
     telemetry sink: mapping any kernel must record at least one
     attempt, placement, and route. *)
  match Iced_kernels.Registry.by_name "fir" with
  | None -> Alcotest.fail "fir kernel missing from registry"
  | Some k ->
    let stats = Iced_mapper.Mapper.create_stats () in
    let req =
      Iced_mapper.Mapper.request ~strategy:Iced_mapper.Mapper.Dvfs_aware
        Iced_arch.Cgra.iced_6x6
    in
    (match Iced_mapper.Mapper.map ~stats req k.Iced_kernels.Kernel.dfg with
    | Error msg -> Alcotest.failf "fir failed to map: %s" msg
    | Ok _ ->
      Alcotest.(check bool) "attempts > 0" true (stats.attempts > 0);
      Alcotest.(check bool) "placements > 0" true (stats.placements_tried > 0);
      Alcotest.(check bool) "routes > 0" true (stats.route_calls > 0);
      Alcotest.(check bool) "expansions > 0" true (stats.expansions > 0);
      Alcotest.(check bool) "per-II timing recorded" true
        (Iced_mapper.Telemetry.per_ii stats <> []);
      Alcotest.(check bool) "wall time recorded" true (stats.wall_s >= 0.0))

let certified_path = "golden/certified_ii.txt"

let test_certified_ii_fixture () =
  (* test/golden/certified_ii.txt pins the SAT oracle's certified
     minimal II per standalone kernel next to the default backend's
     heuristic II.  Re-certifying must reproduce every Optimal verdict,
     and the heuristic must still land on its recorded II — a drift on
     either side is a real change to mapping quality or to the
     encoding's semantics, not noise. *)
  let module Exact = Iced_mapper.Exact in
  let rows =
    List.filter_map
      (fun line ->
        if line = "" || line.[0] = '#' then None
        else
          match String.split_on_char '\t' line with
          | [ name; opt; dflt ] ->
            Some (name, int_of_string opt, int_of_string dflt)
          | _ -> Alcotest.failf "malformed certified_ii line: %s" line)
      (read_lines certified_path)
  in
  Alcotest.(check bool) "fixture is not empty" true (rows <> []);
  List.iter
    (fun (name, opt, dflt) ->
      match Iced_kernels.Registry.by_name name with
      | None -> Alcotest.failf "fixture kernel %s missing from registry" name
      | Some k ->
        (match Exact.certify Iced_arch.Cgra.iced_6x6 k.Iced_kernels.Kernel.dfg with
        | { Exact.verdict = Exact.Optimal ii; _ } ->
          Alcotest.(check int) (name ^ ": certified optimal II") opt ii
        | _ -> Alcotest.failf "%s: oracle no longer certifies an optimum" name);
        let req =
          Iced_mapper.Mapper.request ~strategy:Iced_mapper.Mapper.Dvfs_aware
            Iced_arch.Cgra.iced_6x6
        in
        (match Iced_mapper.Mapper.map req k.Iced_kernels.Kernel.dfg with
        | Error msg -> Alcotest.failf "%s failed to map: %s" name msg
        | Ok m ->
          Alcotest.(check int) (name ^ ": default backend II") dflt
            m.Iced_mapper.Mapping.ii))
    rows

(* test/golden/stream_golden.txt pins every window report and fault
   statistic of solo, resilient and shared streaming runs plus the
   tenancy scheduler's JSON (see Iced_testgen.Stream_gen for the cases),
   captured before the solo and shared window loops were merged into one
   step and island recovery into one module.  The runtime must reproduce
   every line byte for byte. *)
let stream_golden_path = "golden/stream_golden.txt"

let test_stream_unchanged () =
  check_against_golden ~what:"streaming" stream_golden_path
    (Iced_testgen.Stream_gen.golden_lines ())

(* test/golden/sat_golden.txt pins the SAT solver's search on the exact
   oracle's encodings, pigeonhole and seeded random CNFs, and the
   certify reports built on it (see Iced_testgen.Sat_gen): a change to
   the solver's storage or the encoder's clause emission must reproduce
   every outcome, counter and model. *)
let sat_golden_path = "golden/sat_golden.txt"

let test_sat_unchanged () =
  check_against_golden ~what:"sat" sat_golden_path (Iced_testgen.Sat_gen.golden_lines ())

(* test/golden/post_golden.txt pins what the passes reading a finished
   mapping report on every table1 op: island levels, Validate.check,
   per-tile busy slots and utilization, the power model's inputs and
   result, and Sim.run and Sim.interpret; plus Validate, Sim, the
   metrics and Levels.assign on three seeded corruptions of each
   mapping (see Iced_testgen.Post_gen).  Making those passes cheaper
   must keep every line. *)
let post_golden_path = "golden/post_golden.txt"

let test_post_unchanged () =
  check_against_golden ~what:"post-pass" post_golden_path (Iced_testgen.Post_gen.golden_lines ())

let suite =
  [
    ("golden corpus has no FAIL cases", `Quick, test_corpus_has_no_failures);
    ("mappings unchanged vs pre-refactor golden", `Slow, test_corpus_unchanged);
    ("sa and pathfinder unchanged vs golden", `Slow, test_backends_unchanged);
    ("telemetry populated by Mapper.map", `Quick, test_stats_populated);
    ("certified minimal IIs match the fixture", `Slow, test_certified_ii_fixture);
    ("streaming runs unchanged vs golden", `Quick, test_stream_unchanged);
    ("sat solver unchanged vs golden", `Slow, test_sat_unchanged);
    ("post-passes unchanged vs golden", `Slow, test_post_unchanged);
  ]
