(* stream: what `iced stream` and `iced tenant` cost a user.

   For the GCN and LU applications on Figure 13's datasets:
   Partition.prepare (which maps every instance at every island count),
   Runner.run under the ICED and DRIPS policies, and run_resilient under
   all four recovery policies with one tile fault; then, for 4 tenants,
   Scheduler.plan, an uncapped fair-share Scheduler.run and a Capsweep
   over 3 policies x 5 caps.  Each library call is one op, 17 per pass:
   an odd count, so the median is one op's time rather than the
   midpoint of the wide gap between the 8th and 9th.  Prepare is most
   of a pass and the runner, controller and allocator most of the rest,
   so this guards the runner/scheduler rewrite, whose simulated
   efficiency must not move: each application's ICED-over-DRIPS
   efficiency is pinned below. *)

module Pipeline = Iced_stream.Pipeline
module Partition = Iced_stream.Partition
module Runner = Iced_stream.Runner
module Tenancy = Iced_tenancy

type app = {
  name : string;
  pipeline : Pipeline.t;
  inputs : Pipeline.input list;
  profile : Pipeline.input list;
  expected_gain : float;
      (* ICED over DRIPS overall efficiency on this dataset, as measured
         when the benchmark was defined *)
}

type state = { apps : app list; faults : Iced_fault.Fault.plan; tenants : Tenancy.Tenant.t list }

let app name =
  let pipeline, inputs, expected_gain =
    match name with
    | "gcn" ->
      ( Pipeline.gcn (),
        List.map Pipeline.of_gcn_graph (Iced_stream.Workload.enzyme_graphs ~seed:42 ()),
        1.1034945992641785 )
    | _ ->
      ( Pipeline.lu (),
        List.map Pipeline.of_lu_matrix (Iced_stream.Workload.ufl_matrices ~seed:7 ()),
        1.1412772966295794 )
  in
  (* Figure 13's profile: a stratified 50-input sample *)
  let step = max 1 (List.length inputs / 50) in
  let profile = List.filteri (fun i _ -> i mod step = 0) inputs in
  { name; pipeline; inputs; profile; expected_gain }

(* The seed times the tile fault; which tile dies, and the tenant mix,
   stay fixed, because they set how much work recovery and the cap
   sweep do, and a pass must cost the same for every seed. *)
let setup (c : Workload.config) =
  let at_input = Iced_util.Rng.int_in (Iced_util.Rng.create c.seed) 10 60 in
  {
    apps = List.map app (if c.smoke then [ "lu" ] else [ "gcn"; "lu" ]);
    faults =
      Iced_fault.Fault.make ~seed:c.seed [ { Iced_fault.Fault.at_input; fault = Tile_dead 7 } ];
    tenants = Tenancy.Tenant.synthetic_mix ~inputs:(if c.smoke then 10 else 60) ~seed:1 ~count:4 ();
  }

let recoveries = [ Runner.Remap; Runner.Gate_island; Runner.Raise_level; Runner.Fail_stop ]

(* One application: prepare, run both policies, run every recovery,
   each call one op.  Returns (allocated IIs, ICED window powers,
   ICED/DRIPS gain). *)
let run_app st fails op a =
  let call layer what f = op.Workload.time (fun () -> Tracer.span ~name:(a.name ^ " " ^ what) layer f) in
  match
    call "stream.prepare" "prepare" (fun () ->
        Partition.prepare Iced_arch.Cgra.iced_6x6 a.pipeline ~profile:a.profile)
  with
  | Error msg ->
    Workload.fail fails (a.name ^ ": prepare: " ^ msg);
    None
  | Ok p ->
    let run policy =
      call "stream.run" (Runner.policy_to_string policy) (fun () ->
          Runner.run ~trace:false p policy a.inputs)
    in
    let iced = run Runner.Iced_dvfs and drips = run Runner.Drips in
    List.iter
      (fun recovery ->
        let what = Runner.recovery_to_string recovery in
        let _, fs =
          call "stream.resilient" what (fun () ->
              Runner.run_resilient ~trace:false ~faults:st.faults ~recovery p Runner.Iced_dvfs
                a.inputs)
        in
        Workload.check fails
          (fs.Runner.completed + fs.Runner.inputs_dropped >= fs.Runner.offered
          && fs.Runner.completed <= fs.Runner.offered)
          (lazy
            (Printf.sprintf "%s %s: %d completed + %d dropped of %d offered" a.name what
               fs.Runner.completed fs.Runner.inputs_dropped fs.Runner.offered)))
      recoveries;
    let gain =
      (Runner.aggregate iced).overall_efficiency /. (Runner.aggregate drips).overall_efficiency
    in
    Workload.check fails (gain = a.expected_gain)
      (lazy
        (Printf.sprintf "%s: ICED/DRIPS efficiency %.17g, pinned %.17g" a.name gain
           a.expected_gain));
    let iis =
      List.map
        (fun (pi : Partition.prepared_instance) ->
          (Partition.allocated p pi.instance.label).mapping.ii)
        p.prepared
    in
    Some (iis, List.map (fun (w : Runner.window_report) -> w.power_mw) iced, gain)

let tenancy st fails op =
  match op.Workload.time (fun () -> Tracer.span "tenancy.plan" (fun () -> Tenancy.Scheduler.plan st.tenants)) with
  | Error msg -> Workload.fail fails ("tenancy plan: " ^ msg)
  | Ok plan ->
    let report =
      op.Workload.time (fun () ->
          Tracer.span "tenancy.run" (fun () ->
              Tenancy.Scheduler.run ~policy:Tenancy.Allocator.Fair_share plan))
    in
    Workload.check fails
      (report.cap_ok && Tenancy.Scheduler.starved report = [])
      (lazy "tenancy run: cap violated or a tenant starved");
    let sweep =
      op.Workload.time (fun () ->
          Tracer.span "tenancy.sweep" (fun () ->
              Tenancy.Capsweep.run ~workers:1 ~policies:Tenancy.Allocator.all_policies plan))
    in
    List.iter
      (fun (r : Tenancy.Capsweep.row) ->
        Workload.check fails
          (r.cap_ok && r.starved = [])
          (lazy
            (Printf.sprintf "capsweep %s at %.2f: cap_ok %b, starved [%s]"
               (Tenancy.Allocator.policy_to_string r.policy)
               r.fraction r.cap_ok (String.concat "," r.starved))))
      sweep.rows

let measure st ~seconds =
  let fails = Workload.failures () in
  let alloc = ref 0.0 and counters = ref [] and first = ref [] in
  let pass i op =
    let apps =
      Tracer.span "bench" (fun () ->
          Workload.counting_alloc alloc (fun () ->
              let apps = List.filter_map (run_app st fails op) st.apps in
              tenancy st fails op;
              apps))
    in
    if i = 0 then begin
      first := apps;
      counters := [ ("alloc_mb", !alloc /. 1048576.0) ]
    end
  in
  let ops, wall_s = Workload.passes ~seconds pass in
  let iis = List.concat_map (fun (iis, _, _) -> iis) !first in
  {
    Workload.ops;
    wall_s;
    failed = fails.n;
    failures = List.rev fails.msgs;
    ii_sum = List.fold_left ( + ) 0 iis;
    power_mw_mean = Workload.mean (List.concat_map (fun (_, p, _) -> p) !first);
    layer =
      [ ("stream.efficiency_gain",
          Iced_util.Stats.geomean (List.map (fun (_, _, g) -> g) !first)) ];
    counters = !counters;
  }

let workload = Workload.W { name = "stream"; tail_pct = 97.0; domains = 1; setup; measure }
