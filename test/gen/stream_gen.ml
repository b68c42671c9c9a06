(* Fingerprints of the streaming runtime: every window report and fault
   statistic of solo, resilient and shared runs, plus the tenancy
   scheduler's and cap sweep's JSON, one case per line prefix.  Floats
   render at %.17g, so a text diff is a numeric diff.
   test/golden/stream_golden.txt holds the lines; the differential
   suite re-derives them and compares.  Regenerate only when a change
   to streaming results is intended and reviewed (see
   gen_stream_golden.ml for the command).

   Cases (lu and gcn on the 6x6 ICED fabric, 57 inputs: five full
   windows of 10 and a trailing partial window of 7):
   - solo/<app>/<policy>: Runner.run under static, iced and drips.
   - resilient/<plan>/<policy>/<recovery>: lu under Runner.run_resilient,
     static and iced, every recovery, for these plans ("wide" is the
     first kernel holding two or more islands, "narrow" the first
     holding one):
       random<s>  Fault.random_plan seeds 0-2, four faults of all kinds;
       tile       a dead tile on wide's first island at input 13: remap
                  remaps in place; gate shrinks wide; fail-stop aborts
                  mid-window; raise aborts (voltage cannot fix a tile);
       escalate   every tile of narrow's island dead at input 23: remap
                  runs out of tiles and escalates to gate, and narrow,
                  at its one-island floor, borrows from the richest kernel;
       shrink     wide's last island down at input 34: gate (and remap,
                  which gates a dead island) shrinks wide;
       borrow     narrow's island down at input 13: narrow borrows;
       exhaust    every island down at input 23: recovery runs out of
                  donors and the stream aborts mid-window;
       upsets     a heavy upset process on a Rest-floor kernel's island
                  at input 5: raise pins the kernel at Normal; remap and
                  gate endure it, replaying struck inputs and dropping
                  doubly struck ones (iced only: Normal never upsets).
   - shared/<n>/<policy>/<cap>: Scheduler.report_json for 2- and
     4-tenant fleets, every arbitration policy, caps none, 0.6 x the
     all-Normal envelope and 0.8 x the all-Rest floor (exhaustion).
   - shared/faults/<policy>: the 4-tenant fleet with three island
     faults (seed 11), which both reallocates and evicts.
   - runner_shared/2: Runner.run_shared on the 2-tenant fleet with a
     throttling arbiter, every round and slice.
   - capsweep/2: Capsweep.sweep_json over every policy. *)

open Iced_arch
module P = Iced_stream.Pipeline
module Part = Iced_stream.Partition
module R = Iced_stream.Runner
module W = Iced_stream.Workload
module F = Iced_fault.Fault
module Tenant = Iced_tenancy.Tenant
module Scheduler = Iced_tenancy.Scheduler
module Allocator = Iced_tenancy.Allocator
module Capsweep = Iced_tenancy.Capsweep

let num = Printf.sprintf "%.17g"
let cgra = Cgra.iced_6x6
let inputs_per_app = 57

let levels l =
  String.concat "," (List.map (fun (k, lvl) -> k ^ ":" ^ Dvfs.to_string lvl) l)

let alloc l = String.concat "," (List.map (fun (k, c) -> Printf.sprintf "%s:%d" k c) l)

let report_line (r : R.window_report) =
  Printf.sprintf
    "w%d inputs=%d period=%s thr=%s power=%s eff=%s levels=%s alloc=%s dropped=%d replayed=%d recovery=%s"
    r.index r.inputs (num r.mean_period_us) (num r.throughput_per_s) (num r.power_mw)
    (num r.efficiency) (levels r.levels) (alloc r.allocation) r.dropped r.replayed
    (num r.recovery_us)

let stats_line (s : R.fault_stats) =
  Printf.sprintf
    "stats injected=%d recoveries=%d remaps=%d gated=%d raised=%d dropped=%d replayed=%d recovery=%s mttr=%s offered=%d completed=%d"
    s.injected s.recoveries s.remaps s.islands_gated s.levels_raised s.inputs_dropped
    s.inputs_replayed (num s.recovery_time_us) (num s.mttr_us) s.offered s.completed

let tagged tag lines = List.map (fun l -> tag ^ "\t" ^ l) lines

let app name =
  let pipeline, inputs =
    match name with
    | "gcn" -> (P.gcn (), List.map P.of_gcn_graph (W.enzyme_graphs ~seed:42 ()))
    | _ -> (P.lu (), List.map P.of_lu_matrix (W.ufl_matrices ~seed:7 ()))
  in
  let inputs = List.filteri (fun i _ -> i < inputs_per_app) inputs in
  let profile = List.filteri (fun i _ -> i mod 3 = 0) inputs in
  match Part.prepare cgra pipeline ~profile with
  | Ok p -> (p, inputs)
  | Error e -> failwith (name ^ ": " ^ e)

let policies = [ R.Static; R.Iced_dvfs; R.Drips ]
let recoveries = [ R.Remap; R.Gate_island; R.Raise_level; R.Fail_stop ]

let solo name (p, inputs) =
  List.concat_map
    (fun policy ->
      tagged
        (Printf.sprintf "solo/%s/%s" name (R.policy_to_string policy))
        (List.map report_line (R.run ~trace:false p policy inputs)))
    policies

let hand_plans (p : Part.t) =
  let islands label = List.assoc label p.Part.island_ids in
  let first_with pred =
    fst (List.find (fun (_, ids) -> pred (List.length ids)) p.Part.island_ids)
  in
  let wide = islands (first_with (fun n -> n >= 2)) in
  let narrow = List.hd (islands (first_with (fun n -> n = 1))) in
  let rest_island =
    let label, _ = List.find (fun (_, f) -> f = Dvfs.Rest) p.Part.level_floors in
    List.hd (islands label)
  in
  let at input faults = List.map (fun fault -> { F.at_input = input; fault }) faults in
  [
    ("tile", at 13 [ F.Tile_dead (List.hd (Cgra.island_tiles cgra (List.hd wide))) ]);
    ("escalate", at 23 (List.map (fun t -> F.Tile_dead t) (Cgra.island_tiles cgra narrow)));
    ("shrink", at 34 [ F.Island_down (List.nth wide (List.length wide - 1)) ]);
    ("borrow", at 13 [ F.Island_down narrow ]);
    ("exhaust", at 23 (List.init (Cgra.island_count cgra) (fun i -> F.Island_down i)));
    ("upsets", at 5 [ F.Upsets { island = rest_island; rate = 0.05 } ]);
  ]
  |> List.map (fun (name, events) -> (name, F.make ~seed:3 events))

let resilient (p, inputs) =
  let random =
    List.map
      (fun seed ->
        ( Printf.sprintf "random%d" seed,
          F.random_plan ~seed ~cgra ~inputs:inputs_per_app
            ~kinds:[ F.Tile; F.Link; F.Island; F.Upset ] ~count:4 () ))
      [ 0; 1; 2 ]
  in
  List.concat_map
    (fun (plan_name, faults) ->
      List.concat_map
        (fun policy ->
          List.concat_map
            (fun recovery ->
              let reports, stats =
                R.run_resilient ~trace:false ~faults ~recovery p policy inputs
              in
              tagged
                (Printf.sprintf "resilient/%s/%s/%s" plan_name
                   (R.policy_to_string policy) (R.recovery_to_string recovery))
                (List.map report_line reports @ [ stats_line stats ]))
            recoveries)
        [ R.Static; R.Iced_dvfs ])
    (random @ hand_plans p)

let fleet ?spec ~inputs ~seed count =
  match Scheduler.plan ?spec (Tenant.synthetic_mix ~inputs ~seed ~count ()) with
  | Ok plan -> plan
  | Error e -> failwith e

let shared count =
  let plan = fleet ~inputs:15 ~seed:3 count in
  let caps =
    [
      ("none", None);
      ("0.6max", Some (0.6 *. Scheduler.max_envelope_mw plan));
      ("0.8floor", Some (0.8 *. Scheduler.floor_envelope_mw plan));
    ]
  in
  List.concat_map
    (fun policy ->
      List.map
        (fun (cap_name, cap_mw) ->
          Printf.sprintf "shared/%d/%s/%s\t%s" count
            (Allocator.policy_to_string policy)
            cap_name
            (Scheduler.report_json (Scheduler.run ?cap_mw ~policy plan)))
        caps)
    Allocator.all_policies

let shared_faults () =
  let spec = { Scheduler.faults = 3; fault_seed = 11 } in
  let plan = fleet ~spec ~inputs:40 ~seed:1 4 in
  List.map
    (fun policy ->
      Printf.sprintf "shared/faults/%s\t%s"
        (Allocator.policy_to_string policy)
        (Scheduler.report_json (Scheduler.run ~policy plan)))
    Allocator.all_policies

(* Direct run_shared: the second tenant is throttled to Rest on odd
   rounds, so imposed grants reach the window reports. *)
let runner_shared () =
  let plan = fleet ~inputs:15 ~seed:3 2 in
  let tenants =
    List.map
      (fun (pl : Scheduler.placement) ->
        {
          R.tenant = pl.tenant.Tenant.id;
          partition = List.assoc pl.islands pl.partitions;
          stream = pl.tenant.Tenant.inputs;
        })
      plan.Scheduler.placements
  in
  let throttled = (List.nth tenants 1).R.tenant in
  let arbitrate ~round desired =
    List.map
      (fun (id, lv) ->
        if id = throttled && round mod 2 = 1 then (id, List.map (fun (k, _) -> (k, Dvfs.Rest)) lv)
        else (id, lv))
      desired
  in
  let r =
    R.run_shared ~trace:false ~arbitrate ~fabric:Scheduler.fabric tenants
  in
  let rounds =
    List.concat_map
      (fun (w : R.shared_window) ->
        Printf.sprintf "round %d span=%s power=%s" w.round (num w.span_us)
          (num w.fabric_power_mw)
        :: List.map
             (fun (s : R.tenant_window) ->
               Printf.sprintf "slice %s granted=%s throttled=%b busy=%s %s" s.owner
                 (levels s.granted) s.throttled (num s.busy_us) (report_line s.report))
             w.slices)
      r.rounds
  in
  let tenant_reports =
    List.concat_map
      (fun (id, reports) -> List.map (fun rp -> "tenant " ^ id ^ " " ^ report_line rp) reports)
      r.tenant_reports
  in
  tagged "runner_shared/2"
    (rounds @ tenant_reports
    @ [ Printf.sprintf "peak=%s evicted=%d" (num r.peak_power_mw) (List.length r.evicted) ])

let capsweep () =
  let plan = fleet ~inputs:15 ~seed:3 2 in
  [
    "capsweep/2\t"
    ^ Capsweep.sweep_json
        (Capsweep.run ~fractions:[ 1.0; 0.6 ] ~policies:Allocator.all_policies ~workers:1 plan);
  ]

let golden_lines () =
  let lu = app "lu" and gcn = app "gcn" in
  solo "lu" lu @ solo "gcn" gcn @ resilient lu @ shared 2 @ shared 4 @ shared_faults ()
  @ runner_shared () @ capsweep ()
