(* table1: the paper's whole evaluation flow on small graphs.

   Every Table I kernel at unroll 1 and 2 on the four design points of
   the 6x6 prototype: Design.evaluate (Algorithm 1 labeling, Algorithm
   2 mapping, level assignment, validation, power model) plus the
   functional check against the golden interpreter.  The graphs are
   small, so the post-passes are a visible share of each op; solver1
   at unroll 2 on the conventional points is the slow tail.  The seed
   orders the ops. *)

open Iced_arch
open Iced_mapper
module Design = Iced.Design
module Kernel = Iced_kernels.Kernel
module Metrics = Iced_sim.Metrics
module Model = Iced_power.Model

type op = { kernel : Kernel.t; unroll : int; point : Design.point }

let op_name o =
  Printf.sprintf "%s uf%d %s" o.kernel.name o.unroll (Design.point_to_string o.point)

let ops ~smoke =
  let kernels =
    if smoke then List.filter_map Iced_kernels.Registry.by_name [ "fir"; "relu" ]
    else Iced_kernels.Registry.all
  in
  List.concat_map
    (fun kernel ->
      List.concat_map
        (fun unroll -> List.map (fun point -> { kernel; unroll; point }) Design.all_points)
        (if smoke then [ 1 ] else [ 1; 2 ]))
    kernels

type state = { ops : op list; reference : (string, int * float) Hashtbl.t }

let setup (c : Workload.config) =
  let ops = Workload.seeded_order ~seed:c.seed (ops ~smoke:c.smoke) in
  (* unroll every graph once so a broken unroller fails here, not mid-run *)
  List.iter (fun o -> ignore (Kernel.dfg_at o.kernel ~factor:o.unroll)) ops;
  { ops; reference = Hashtbl.create 256 }

(* Design.evaluate's pipeline, one public call per layer, so each layer
   gets its own span.  The point-to-configuration table mirrors
   Design's own; [evaluate_layers] is checked against Design.evaluate
   op by op, so a drift between the two shows as a failed op. *)
let strategy_of = function
  | Design.Iced -> Mapper.Dvfs_aware
  | Design.Baseline | Design.Baseline_gated | Design.Per_tile -> Mapper.Conventional

let fabric_of = function
  | Design.Per_tile -> Cgra.per_tile Cgra.iced_6x6
  | Design.Baseline | Design.Baseline_gated | Design.Iced -> Cgra.iced_6x6

let model_of = function
  | Design.Baseline -> Model.Baseline
  | Design.Baseline_gated -> Model.Baseline_gated
  | Design.Per_tile -> Model.Per_tile_dvfs
  | Design.Iced -> Model.Iced

let levels_of point m =
  match point with
  | Design.Baseline -> Levels.all_normal m
  | Design.Baseline_gated -> Levels.normal_with_gating m
  | Design.Per_tile | Design.Iced -> Levels.assign m

type probe = { mutable label_x_attempts_s : float; mutable map_s : float }

let evaluate_layers ~probe ~stats ~alloc o =
  let fabric = fabric_of o.point in
  let dfg = Tracer.span "dfg" (fun () -> Kernel.dfg_at o.kernel ~factor:o.unroll) in
  let req = Mapper.request ~strategy:(strategy_of o.point) fabric in
  let run = Mapper.create_stats () in
  let t0 = Tracer.now () in
  let mapped =
    Workload.counting_alloc alloc (fun () ->
        Tracer.span "mapper" (fun () -> Mapper.map ~stats:run req dfg))
  in
  probe.map_s <- probe.map_s +. (Tracer.now () -. t0);
  Mapper.merge_stats ~into:stats run;
  Result.bind mapped (fun m ->
      (* Algorithm 1 runs inside the mapper once per attempt; one extra
         call at the final II estimates its share *)
      let t0 = Tracer.now () in
      ignore
        (Tracer.span "labeling" (fun () ->
             Labeling.label dfg ~cgra:fabric ~tiles:m.Mapping.tiles ~ii:m.Mapping.ii));
      probe.label_x_attempts_s <-
        probe.label_x_attempts_s +. ((Tracer.now () -. t0) *. float_of_int run.attempts);
      let m = Tracer.span "levels" (fun () -> levels_of o.point m) in
      match Tracer.span "validate" (fun () -> Validate.check m) with
      | Error msgs -> Error (String.concat "; " msgs)
      | Ok () ->
        let power =
          Tracer.span "power" (fun () ->
              ignore (Metrics.average_utilization m, Metrics.average_dvfs_fraction m);
              ignore (Metrics.speedup_vs_cpu m);
              Model.total_power_mw Iced_power.Params.default (model_of o.point) fabric
                ~tiles:(Metrics.tile_states m) ~sram_activity:(Metrics.sram_activity m))
        in
        Tracer.span "sim" (fun () -> Design.functional_check o.kernel m)
        |> Result.map (fun () -> (m.Mapping.ii, power)))

let evaluate ~stats ~alloc o =
  Workload.counting_alloc alloc (fun () ->
      Result.bind (Design.evaluate ~trace:false ~stats ~unroll:o.unroll o.point o.kernel)
        (fun e ->
          Design.functional_check o.kernel e.Design.mapping
          |> Result.map (fun () -> (e.Design.ii, e.Design.power_mw))))

(* Untraced, the alloc_mb counter is the whole op's allocation; traced,
   mapper.alloc_mb is the mapper's alone. *)
let measure st ~seconds =
  let traced = Tracer.enabled () in
  let probe = { label_x_attempts_s = 0.0; map_s = 0.0 } in
  let eval = if traced then evaluate_layers ~probe else evaluate in
  let m =
    Workload.mapping_passes ~seconds ~reference:st.reference ~name:op_name ~eval st.ops
  in
  if traced && probe.map_s > 0.0 then
    { m with layer = ("labeling.est_pct", 100.0 *. probe.label_x_attempts_s /. probe.map_s) :: m.layer }
  else m

let workload = Workload.W { name = "table1"; tail_pct = 90.0; domains = 1; setup; measure }
