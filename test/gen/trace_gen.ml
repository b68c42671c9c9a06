(* Fingerprints of the trace every instrumented layer records: one line
   per scenario with its exported event count and an FNV-1a hash of
   the events.  Before hashing, each exported event loses its [ts] and
   [tid] members (wall clock and domain id), events are grouped per
   tid in first-seen order, and args keep their recorded order, so the
   hash pins span nesting, names, categories and every argument.
   test/golden/trace_golden.txt holds the lines; test_obs re-derives
   and compares them.  Regenerate only when a change to what the
   toolchain traces is intended and reviewed (see
   gen_trace_golden.ml for the command).

   Every scenario runs on one domain: multi-worker explore and fault
   campaigns split their work differently from run to run.

   Scenarios:
   - design/fir: Design.evaluate on fir (default 6x6 ICED flow);
   - map/gemm/sa and map/fir/pathfinder: Mapper.map with a non-default
     backend on the 6x6 fabric;
   - certify/fir: Exact.certify on the 6x6 fabric, where the default
     backend's mapping at the lower bound decides it: its mapper spans
     nest inside exact:certify and no CNF is built;
   - resilient/lu/remap: Runner.run_resilient on 30 lu inputs with a
     dead tile at input 13 and remap recovery;
   - tenancy/3/capped: a 3-tenant fair-share Scheduler.run at 0.55 x
     the all-Normal envelope, so the arbiter throttles (tenancy:grant)
     and imposes levels (controller:impose);
   - campaign/lu: a 1-seed, 1-worker fault campaign over 50 inputs;
   - sweep/4x4: a 1-worker Sweep.run over two island shapes and two
     kernels on a fresh in-memory cache;
   - serve/map+ping: Server.handle on a map frame and a ping frame. *)

module Trace = Iced_obs.Trace
module Export = Iced_obs.Export
module Json = Iced_util.Json
module Fnv = Iced_util.Fnv

let kernel name = Option.get (Iced_kernels.Registry.by_name name)
let cgra = Iced_arch.Cgra.iced_6x6

let recorded f =
  Trace.start ();
  Fun.protect ~finally:Trace.stop f;
  let events = Trace.events () in
  Trace.clear ();
  events

(* The exported events, [ts] and [tid] stripped, grouped per tid. *)
let canonical events =
  let parsed =
    match Json.parse (Export.trace_json events) with
    | Ok doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr evs) -> evs
      | _ -> failwith "trace_json: no traceEvents array")
    | Error e -> failwith ("trace_json: " ^ Json.error_to_string e)
  in
  let groups : (float * string list ref) list ref = ref [] in
  List.iter
    (fun ev ->
      let tid =
        match Json.member "tid" ev with Some (Json.Num t) -> t | _ -> failwith "no tid"
      in
      let line =
        match ev with
        | Json.Obj members ->
          Json.to_string
            (Json.Obj (List.filter (fun (k, _) -> k <> "ts" && k <> "tid") members))
        | _ -> failwith "event is not an object"
      in
      match List.assoc_opt tid !groups with
      | Some lines -> lines := line :: !lines
      | None -> groups := !groups @ [ (tid, ref [ line ]) ])
    parsed;
  List.concat_map (fun (_, lines) -> List.rev !lines) !groups

let fingerprint name events =
  let lines = canonical events in
  let hash =
    List.fold_left (fun h l -> Fnv.string (Fnv.byte h '\n') l) Fnv.offset_basis lines
  in
  Printf.sprintf "%s\tevents=%d\tfnv=%s" name (List.length lines) (Fnv.to_hex hash)

let design () = Iced.Design.evaluate Iced.Design.Iced (kernel "fir")

let map name backend () =
  let req = Iced_mapper.Mapper.request ~backend cgra in
  Iced_mapper.Mapper.map req (kernel name).Iced_kernels.Kernel.dfg

let certify () = Iced_mapper.Exact.certify cgra (kernel "fir").Iced_kernels.Kernel.dfg

let resilient () =
  let module P = Iced_stream.Pipeline in
  let module R = Iced_stream.Runner in
  let module F = Iced_fault.Fault in
  let inputs =
    List.filteri (fun i _ -> i < 30)
      (List.map P.of_lu_matrix (Iced_stream.Workload.ufl_matrices ~seed:7 ()))
  in
  let p =
    match Iced_stream.Partition.prepare cgra (P.lu ()) ~profile:inputs with
    | Ok p -> p
    | Error e -> failwith ("lu partition: " ^ e)
  in
  fun () ->
    let faults = F.make [ { F.at_input = 13; fault = F.Tile_dead 0 } ] in
    R.run_resilient ~faults ~recovery:R.Remap p R.Iced_dvfs inputs

let tenancy () =
  let module T = Iced_tenancy in
  let plan =
    match T.Scheduler.plan (T.Tenant.synthetic_mix ~inputs:30 ~seed:1 ~count:3 ()) with
    | Ok plan -> plan
    | Error e -> failwith ("fleet plan: " ^ e)
  in
  fun () ->
    T.Scheduler.run
      ~cap_mw:(0.55 *. T.Scheduler.max_envelope_mw plan)
      ~policy:T.Allocator.Fair_share plan

let campaign () =
  let module C = Iced_campaign.Campaign in
  C.run { C.default_spec with C.seeds = [ 0 ]; inputs = 50; workers = 1 }

let sweep () =
  let module E = Iced_explore in
  let spec =
    {
      E.Space.fabrics = [ (4, 4) ];
      islands = [ (2, 2); (4, 4) ];
      spm_banks = [ 8 ];
      floors = [ Iced_arch.Dvfs.Rest ];
      unrolls = [ 1 ];
      max_iis = [ 32 ];
    }
  in
  E.Sweep.run ~cache:(E.Cache.in_memory ()) (E.Space.enumerate spec)
    [ kernel "fir"; kernel "relu" ]

let serve () =
  let module S = Iced_serve in
  let cache = Iced_explore.Cache.in_memory () in
  let stats ~id = S.Protocol.response_error ~id "stats: not traced" in
  let frame id request =
    { S.Protocol.id; request; deadline_ms = None; tenant = None; qos = None }
  in
  List.map
    (S.Server.handle ~cache ~stats)
    [
      frame "m"
        (S.Protocol.Map
           { point = S.Protocol.default_point; kernel = "fir";
             backend = Iced_mapper.Backend.default });
      frame "p" S.Protocol.Ping;
    ]

let scenarios () =
  let resilient = resilient () and tenancy = tenancy () in
  [
    ("design/fir", fun () -> ignore (design ()));
    ("map/gemm/sa", fun () -> ignore (map "gemm" Iced_mapper.Backend.sa ()));
    ("map/fir/pathfinder", fun () -> ignore (map "fir" Iced_mapper.Backend.pathfinder ()));
    ("certify/fir", fun () -> ignore (certify ()));
    ("resilient/lu/remap", fun () -> ignore (resilient ()));
    ("tenancy/3/capped", fun () -> ignore (tenancy ()));
    ("campaign/lu", fun () -> ignore (campaign ()));
    ("sweep/4x4", fun () -> ignore (sweep ()));
    ("serve/map+ping", fun () -> ignore (serve ()));
  ]

let golden_lines () =
  List.map (fun (name, f) -> fingerprint name (recorded f)) (scenarios ())
