(* Tests for the observability subsystem (lib/obs): the trace-event
   JSON exporter is validated against a real JSON parser, a qcheck
   property drives random span trees through the collector, and two
   determinism pins guarantee that tracing observes without steering —
   the golden mapper corpus and a sweep run must be byte-identical with
   the collector on or off. *)

module Trace = Iced_obs.Trace
module Export = Iced_obs.Export
module Metrics = Iced_obs.Metrics

(* ---------------- the strict JSON parser ----------------

   Validation against the trace-event format has to start from the raw
   bytes the exporter produced.  The strict recursive-descent parser
   that used to live here is now [Iced_util.Json.parse] (the serving
   daemon decodes protocol frames with it); these tests consume it
   through the same public API. *)

type json = Iced_util.Json.value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  match Iced_util.Json.parse s with
  | Ok v -> v
  | Error e -> raise (Bad_json (Iced_util.Json.error_to_string e))

let member = Iced_util.Json.member

let num_member key ev =
  match member key ev with
  | Some (Num f) -> f
  | _ -> raise (Bad_json (Printf.sprintf "missing numeric member %S" key))

let str_member key ev =
  match member key ev with
  | Some (Str s) -> s
  | _ -> raise (Bad_json (Printf.sprintf "missing string member %S" key))

(* Validate a rendered document against the trace-event contract.
   Returns the parsed event objects for further assertions. *)
let validate_doc doc_str =
  let doc = parse_json doc_str in
  (match member "displayTimeUnit" doc with
  | Some (Str "ms") -> ()
  | _ -> failwith "displayTimeUnit missing or not \"ms\"");
  let events =
    match member "traceEvents" doc with
    | Some (Arr l) -> l
    | _ -> failwith "traceEvents missing or not an array"
  in
  (* Per (pid, tid) track: "B" pushes, "E" pops a non-empty stack, the
     stack drains by the end, and timestamps never step backwards. *)
  let tracks : (float * float, float * int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let ph = str_member "ph" ev in
      let pid = num_member "pid" ev in
      let tid = num_member "tid" ev in
      let ts = num_member "ts" ev in
      ignore (str_member "name" ev);
      if pid <> float_of_int Export.pid then failwith "unexpected pid";
      if not (List.mem ph [ "B"; "E"; "i"; "C" ]) then
        failwith ("unexpected phase " ^ ph);
      if ph = "i" && member "s" ev <> Some (Str "t") then
        failwith "instant without thread scope";
      let last_ts, depth =
        match Hashtbl.find_opt tracks (pid, tid) with
        | Some st -> st
        | None -> (neg_infinity, 0)
      in
      if ts < last_ts then
        failwith
          (Printf.sprintf "timestamp regression on tid %g: %.3f < %.3f" tid ts
             last_ts);
      let depth =
        match ph with
        | "B" -> depth + 1
        | "E" -> if depth = 0 then failwith "E without matching B" else depth - 1
        | _ -> depth
      in
      Hashtbl.replace tracks (pid, tid) (ts, depth))
    events;
  Hashtbl.iter
    (fun (_, tid) (_, depth) ->
      if depth <> 0 then
        failwith (Printf.sprintf "%d unclosed B events on tid %g" depth tid))
    tracks;
  events

(* ---------------- property: random span trees ---------------- *)

(* A random tree of spans with instants and counters at the leaves,
   executed for real through the collector.  Shapes the generator
   cannot produce (orphan ends, overflow) get their own tests below. *)
type tree =
  | Span of string * tree list
  | Leaf_instant
  | Leaf_counter

let tree_gen =
  QCheck.Gen.(
    sized
    @@ fix (fun self size ->
           let leaf = oneofl [ Leaf_instant; Leaf_counter ] in
           if size = 0 then leaf
           else
             frequency
               [
                 (1, leaf);
                 ( 3,
                   map2
                     (fun name kids -> Span (name, kids))
                     (oneofl [ "alpha"; "beta"; "gamma"; "delta" ])
                     (list_size (int_bound 3) (self (size / 2))) );
               ]))

let rec count_spans = function
  | Span (_, kids) -> 1 + List.fold_left (fun a k -> a + count_spans k) 0 kids
  | Leaf_instant | Leaf_counter -> 0

let rec exec = function
  | Span (name, kids) ->
    Trace.span
      ~args:(fun () -> [ ("depth", Trace.Int (List.length kids)) ])
      ~result:(fun () -> [ ("visited", Trace.Bool true) ])
      ~cat:"prop" ~name
      (fun () -> List.iter exec kids)
  | Leaf_instant -> Trace.instant ~cat:"prop" ~name:"tick" ()
  | Leaf_counter -> Trace.counter ~cat:"prop" ~name:"load" (fun () -> [ ("v", 1.0) ])

let prop_random_tree_exports_valid_json =
  QCheck.Test.make ~name:"random span tree exports valid trace JSON" ~count:60
    (QCheck.make ~print:(fun f -> string_of_int (count_spans f)) tree_gen)
    (fun forest ->
      Trace.start ();
      exec forest;
      Trace.stop ();
      let events = Trace.events () in
      let doc = Export.trace_json events in
      Trace.clear ();
      let parsed = validate_doc doc in
      let begins =
        List.length
          (List.filter (fun ev -> str_member "ph" ev = "B") parsed)
      in
      (* nothing overflowed, so every span must survive the round trip *)
      begins = count_spans forest)

(* ---------------- exporter edge cases ---------------- *)

let test_export_rebalances_overflow () =
  (* A tiny ring in a fresh domain (capacity applies to buffers created
     after the call) forces overwrites; the exporter must still emit a
     balanced, parseable document and [dropped] must own up to the
     loss. *)
  Trace.set_capacity 32;
  Trace.start ();
  let worker =
    Domain.spawn (fun () ->
        for i = 1 to 100 do
          Trace.span ~cat:"ring" ~name:"outer" (fun () ->
              Trace.span ~cat:"ring" ~name:"inner" (fun () ->
                  Trace.instant
                    ~args:(fun () -> [ ("i", Trace.Int i) ])
                    ~cat:"ring" ~name:"tick" ()))
        done)
  in
  Domain.join worker;
  Trace.stop ();
  let dropped = Trace.dropped () in
  let doc = Export.trace_json (Trace.events ()) in
  Trace.clear ();
  Trace.set_capacity (1 lsl 18);
  Alcotest.(check bool) "ring overflowed" true (dropped > 0);
  let parsed = validate_doc doc in
  Alcotest.(check bool) "survivors exported" true (parsed <> [])

let test_export_escapes_hostile_strings () =
  Trace.start ();
  Trace.span
    ~args:(fun () -> [ ("note", Trace.Str "quote\" slash\\ newline\n tab\t ctrl\001") ])
    ~cat:"weird\"cat" ~name:"name\\with\nescapes"
    (fun () -> ());
  Trace.stop ();
  let doc = Export.trace_json (Trace.events ()) in
  Trace.clear ();
  ignore (validate_doc doc)

let test_suppress_hides_events () =
  Trace.start ();
  Trace.suppress (fun () ->
      Trace.span ~cat:"quiet" ~name:"hidden" (fun () ->
          Trace.instant ~cat:"quiet" ~name:"hidden_tick" ()));
  Trace.span ~cat:"loud" ~name:"visible" (fun () -> ());
  Trace.stop ();
  let events = Trace.events () in
  Trace.clear ();
  Alcotest.(check bool) "suppressed events absent" true
    (List.for_all (fun e -> e.Trace.cat <> "quiet") events);
  Alcotest.(check int) "visible span recorded" 2
    (List.length (List.filter (fun e -> e.Trace.cat = "loud") events))

let test_capture_writes_on_exception () =
  let out = Filename.temp_file "iced_obs" ".json" in
  (try
     Export.capture ~out (fun () ->
         Trace.span ~cat:"cap" ~name:"doomed" (fun () -> raise Exit))
   with Exit -> ());
  let ic = open_in out in
  let len = in_channel_length ic in
  let doc = really_input_string ic len in
  close_in ic;
  Sys.remove out;
  let parsed = validate_doc doc in
  Alcotest.(check bool) "doomed span exported despite the raise" true
    (List.exists (fun ev -> str_member "name" ev = "doomed") parsed)

(* ---------------- the recording combinators ---------------- *)

let show_args args =
  String.concat ";"
    (List.map
       (fun (k, v) ->
         k ^ "="
         ^
         match v with
         | Trace.Int i -> string_of_int i
         | Trace.Float f -> Printf.sprintf "%g" f
         | Trace.Bool b -> string_of_bool b
         | Trace.Str s -> s)
       args)

(* Run [f] under a fresh collector; its value and the recorded events. *)
let recording f =
  Trace.start ();
  let v = Fun.protect ~finally:Trace.stop f in
  let events = Trace.events () in
  Trace.clear ();
  (v, events)

let phase_events phase name events =
  List.filter (fun e -> e.Trace.phase = phase && e.Trace.name = name) events

let test_closures_skipped_unless_recording () =
  (* Not recording means exactly [f ()]: no argument closure runs. *)
  let calls = ref 0 and runs = ref 0 in
  let count r = incr calls; r in
  let exercise () =
    let v =
      Trace.span
        ~args:(fun () -> count [ ("a", Trace.Int 1) ])
        ~result:(fun v -> count [ ("r", Trace.Int v) ])
        ~cat:"contract" ~name:"span"
        (fun () ->
          incr runs;
          42)
    in
    Trace.instant ~args:(fun () -> count []) ~cat:"contract" ~name:"instant" ();
    Trace.counter ~cat:"contract" ~name:"counter" (fun () -> count [ ("v", 1.0) ]);
    v
  in
  Alcotest.(check int) "collector off: f's value" 42 (exercise ());
  Alcotest.(check int) "collector off: f ran once" 1 !runs;
  Alcotest.(check int) "collector off: no closure ran" 0 !calls;
  runs := 0;
  let v, events = recording (fun () -> Trace.suppress exercise) in
  Alcotest.(check int) "suppressed: f's value" 42 v;
  Alcotest.(check int) "suppressed: f ran once" 1 !runs;
  Alcotest.(check int) "suppressed: no closure ran" 0 !calls;
  Alcotest.(check int) "suppressed: nothing recorded" 0 (List.length events)

let test_span_args_then_result () =
  let v, events =
    recording (fun () ->
        Trace.span
          ~args:(fun () -> [ ("a", Trace.Int 1); ("b", Trace.Str "x") ])
          ~result:(fun v ->
            [ ("r", Trace.Int v); ("half", Trace.Float (float_of_int v /. 2.0)) ])
          ~cat:"contract" ~name:"outer"
          (fun () ->
            Trace.span
              ~result:(fun () -> [ ("inner", Trace.Bool true) ])
              ~cat:"contract" ~name:"inner" (fun () -> ());
            7))
  in
  Alcotest.(check int) "f's value" 7 v;
  let begin_args name =
    match phase_events Trace.Begin name events with
    | [ e ] -> show_args e.Trace.args
    | l -> Alcotest.failf "%d Begin events for %s" (List.length l) name
  in
  Alcotest.(check string) "outer: args () then result v" "a=1;b=x;r=7;half=3.5"
    (begin_args "outer");
  Alcotest.(check string) "inner: result alone" "inner=true" (begin_args "inner");
  List.iter
    (fun name ->
      match phase_events Trace.End name events with
      | [ e ] -> Alcotest.(check string) (name ^ " End has no args") "" (show_args e.Trace.args)
      | l -> Alcotest.failf "%d End events for %s" (List.length l) name)
    [ "outer"; "inner" ];
  ignore (validate_doc (Export.trace_json events))

let test_span_closes_on_raise () =
  let result_ran = ref false in
  let raised, events =
    recording (fun () ->
        match
          Trace.span
            ~args:(fun () -> [ ("a", Trace.Int 1) ])
            ~result:(fun () ->
              result_ran := true;
              [ ("r", Trace.Int 0) ])
            ~cat:"contract" ~name:"doomed"
            (fun () -> raise Exit)
        with
        | () -> false
        | exception Exit -> true)
  in
  Alcotest.(check bool) "the exception propagates" true raised;
  Alcotest.(check bool) "result never runs" false !result_ran;
  (match phase_events Trace.Begin "doomed" events with
  | [ e ] -> Alcotest.(check string) "Begin keeps args () alone" "a=1" (show_args e.Trace.args)
  | l -> Alcotest.failf "%d Begin events" (List.length l));
  Alcotest.(check int) "the span still closes" 1
    (List.length (phase_events Trace.End "doomed" events));
  ignore (validate_doc (Export.trace_json events))

(* ---------------- metrics ---------------- *)

let test_metrics_instruments () =
  Metrics.reset ();
  Metrics.incr "req";
  Metrics.incr ~by:4 "req";
  Metrics.gauge "temp" 2.5;
  Metrics.gauge "temp" 3.5;
  Metrics.observe "lat" 0.001;
  Metrics.observe "lat" 3.0;
  Alcotest.(check (option int)) "counter accumulates" (Some 5)
    (Metrics.counter_value "req");
  Alcotest.(check (option (float 1e-9))) "gauge last-write-wins" (Some 3.5)
    (Metrics.gauge_value "temp");
  (match Metrics.histogram_stats "lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some (count, sum, mn, mx) ->
    Alcotest.(check int) "sample count" 2 count;
    Alcotest.(check (float 1e-9)) "sum" 3.001 sum;
    Alcotest.(check (float 1e-9)) "min" 0.001 mn;
    Alcotest.(check (float 1e-9)) "max" 3.0 mx);
  Alcotest.(check (option int)) "unknown counter" None
    (Metrics.counter_value "nope");
  let doc = parse_json (Metrics.to_json ()) in
  (match member "counters" doc with
  | Some (Obj [ ("req", Num 5.0) ]) -> ()
  | _ -> Alcotest.fail "counters member malformed");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "csv mentions every instrument" true
    (let csv = Metrics.to_csv () in
     List.for_all (contains csv) [ "req"; "temp"; "lat" ]);
  Metrics.reset ();
  Alcotest.(check (option int)) "reset forgets" None
    (Metrics.counter_value "req")

(* ---------------- determinism pins ---------------- *)

open Iced_explore

let sweep_spec =
  {
    Space.fabrics = [ (4, 4) ];
    islands = [ (2, 2); (4, 4) ];
    spm_banks = [ 8 ];
    floors = [ Iced_arch.Dvfs.Rest ];
    unrolls = [ 1 ];
    max_iis = [ 32 ];
  }

let sweep_kernels = List.filter_map Iced_kernels.Registry.by_name [ "fir"; "relu" ]

let test_sweep_tracing_deterministic () =
  (* The acceptance bar from the tracing design: Sweep.run with the
     collector live must return byte-identical reports to a run with it
     off, serial and parallel alike. *)
  let run ~collector ~trace ~workers =
    if collector then Trace.start ();
    let config = { Sweep.default_config with Sweep.workers } in
    let outcomes, _ =
      Sweep.run ~config ~trace ~cache:(Cache.in_memory ())
        (Space.enumerate sweep_spec) sweep_kernels
    in
    if collector then begin
      Trace.stop ();
      Trace.clear ()
    end;
    Report.render outcomes ^ "\n---\n" ^ Report.csv outcomes
  in
  let baseline = run ~collector:false ~trace:false ~workers:1 in
  Alcotest.(check string) "traced serial = untraced serial" baseline
    (run ~collector:true ~trace:true ~workers:1);
  Alcotest.(check string) "traced 4 domains = untraced serial" baseline
    (run ~collector:true ~trace:true ~workers:4);
  Alcotest.(check string) "trace:false under live collector" baseline
    (run ~collector:true ~trace:false ~workers:4)

let test_sweep_traced_spans_recorded () =
  Trace.start ();
  let config = { Sweep.default_config with Sweep.workers = 2 } in
  let _ =
    Sweep.run ~config ~cache:(Cache.in_memory ())
      (Space.enumerate sweep_spec) sweep_kernels
  in
  Trace.stop ();
  let events = Trace.events () in
  let doc = Export.trace_json events in
  Trace.clear ();
  ignore (validate_doc doc);
  let spans name =
    List.filter
      (fun e ->
        e.Trace.phase = Trace.Begin && e.Trace.cat = "sweep"
        && e.Trace.name = name)
      events
  in
  Alcotest.(check int) "one sweep run span" 1 (List.length (spans "run"));
  Alcotest.(check int) "one point span per fresh (point, kernel)" 4
    (List.length (spans "point"));
  Alcotest.(check bool) "worker spans carry worker tids" true
    (List.exists (fun e -> e.Trace.tid <> (Domain.self () :> int)) (spans "point"))

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

let test_golden_corpus_with_tracing_on () =
  (* The strongest available pin that tracing never steers the mapper:
     re-map the entire differential corpus with the collector recording
     and require every fingerprint line byte-identical to the golden
     file (the same file test_differential checks with tracing off). *)
  Trace.start ();
  let actual = Iced_testgen.Diff_gen.golden_lines () in
  Trace.stop ();
  let recorded = Trace.events () <> [] in
  Trace.clear ();
  Alcotest.(check bool) "collector actually recorded mapper spans" true recorded;
  let expected = read_lines golden_path in
  Alcotest.(check int) "corpus size" (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      if not (String.equal e a) then
        Alcotest.failf "tracing perturbed a mapping\n  golden: %s\n  traced: %s" e a)
    expected actual

(* test/golden/trace_golden.txt pins what every instrumented layer
   records: per scenario, the exported event count and a hash of the
   events with timestamps and domain ids stripped (trace_gen.ml).  A
   refactor of the instrumentation must leave every line unchanged. *)
let test_trace_golden () =
  let expected = read_lines "golden/trace_golden.txt" in
  let actual = Iced_testgen.Trace_gen.golden_lines () in
  Alcotest.(check int) "scenario count" (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      if not (String.equal e a) then
        Alcotest.failf "trace drifted\n  golden: %s\n  now:    %s" e a)
    expected actual

(* ---------------- span taxonomy: solo vs shared streaming ---------------- *)

(* Begin events (spans) and instants recorded while [f] runs, by cat:name *)
let recorded f =
  let result, events = recording f in
  let names =
    List.filter_map
      (fun (e : Trace.event) ->
        match e.Trace.phase with
        | Trace.Begin | Trace.Instant -> Some (e.Trace.cat ^ ":" ^ e.Trace.name)
        | Trace.End | Trace.Counter -> None)
      events
  in
  (result, (fun name -> List.length (List.filter (String.equal name) names)), names)

let test_stream_span_taxonomy () =
  let module P = Iced_stream.Pipeline in
  let module R = Iced_stream.Runner in
  let module F = Iced_fault.Fault in
  let inputs =
    List.filteri (fun i _ -> i < 30)
      (List.map P.of_lu_matrix (Iced_stream.Workload.ufl_matrices ~seed:7 ()))
  in
  let p =
    match Iced_stream.Partition.prepare Iced_arch.Cgra.iced_6x6 (P.lu ()) ~profile:inputs with
    | Ok p -> p
    | Error e -> Alcotest.failf "lu partition: %s" e
  in
  let faults = F.make [ { F.at_input = 13; fault = F.Tile_dead 0 } ] in
  let _, count, names =
    recorded (fun () -> R.run_resilient ~faults ~recovery:R.Remap p R.Iced_dvfs inputs)
  in
  Alcotest.(check int) "one stream:run" 1 (count "stream:run");
  Alcotest.(check int) "three stream:window" 3 (count "stream:window");
  Alcotest.(check int) "one fault:activate" 1 (count "fault:activate");
  Alcotest.(check int) "one fault:recover" 1 (count "fault:recover");
  Alcotest.(check bool) "no tenancy spans in a solo run" false
    (List.exists (String.starts_with ~prefix:"tenancy:") names);
  let module Tenancy = Iced_tenancy in
  let plan =
    match
      Tenancy.Scheduler.plan (Tenancy.Tenant.synthetic_mix ~inputs:15 ~seed:3 ~count:2 ())
    with
    | Ok plan -> plan
    | Error e -> Alcotest.failf "fleet plan: %s" e
  in
  let report, count, _ =
    recorded (fun () -> Tenancy.Scheduler.run ~policy:Tenancy.Allocator.Fair_share plan)
  in
  Alcotest.(check int) "one tenancy:run_shared" 1 (count "tenancy:run_shared");
  Alcotest.(check int) "one tenancy:round per round"
    (List.length report.Tenancy.Scheduler.rounds)
    (count "tenancy:round");
  Alcotest.(check int) "no stream:window in a shared run" 0 (count "stream:window");
  Alcotest.(check int) "no stream:run in a shared run" 0 (count "stream:run")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_random_tree_exports_valid_json;
    ("export re-balances ring overflow", `Quick, test_export_rebalances_overflow);
    ("export escapes hostile strings", `Quick, test_export_escapes_hostile_strings);
    ("suppress hides events", `Quick, test_suppress_hides_events);
    ("capture writes outputs on exception", `Quick, test_capture_writes_on_exception);
    ("closures run only while recording", `Quick, test_closures_skipped_unless_recording);
    ("span args () then result v", `Quick, test_span_args_then_result);
    ("span closes with args () on raise", `Quick, test_span_closes_on_raise);
    ("metrics instruments and export", `Quick, test_metrics_instruments);
    ("sweep byte-identical with tracing on/off, 1 vs 4 domains", `Slow,
     test_sweep_tracing_deterministic);
    ("sweep records run/point spans on worker domains", `Quick,
     test_sweep_traced_spans_recorded);
    ("golden corpus byte-identical with tracing on", `Slow,
     test_golden_corpus_with_tracing_on);
    ("stream spans: solo vs shared taxonomy", `Quick, test_stream_span_taxonomy);
    ("traces unchanged vs golden", `Quick, test_trace_golden);
  ]
