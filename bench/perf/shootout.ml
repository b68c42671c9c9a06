(* synth-shootout: the mapper alone on larger seeded graphs.

   rand40x1 and rand60x2 on a 10x10 fabric, mapped once by each of the
   default, sa and pathfinder backends.  The mapper does over 99% of
   the work here, so flat-array, incremental-SA and Pathfinder-arena
   changes show, and post-pass changes must not.  The graphs are fixed
   so that ii_sum gates exactly; the seed orders the six maps.  No
   functional sim runs here: it would move this workload with post-pass
   changes, and Synth.dfg can draw the same input twice for a binary op
   (Graph.add_edge then drops the duplicate edge), which the simulator
   rejects on other synthetic graphs such as rand80x3. *)

open Iced_arch
open Iced_mapper
module Kernel = Iced_kernels.Kernel

type op = { kernel : Kernel.t; backend : Backend.t; fabric : Cgra.t }

let op_name o = o.kernel.name ^ " " ^ Backend.to_string o.backend

type state = { ops : op list; reference : (string, int * float) Hashtbl.t }

let setup (c : Workload.config) =
  let kernels, fabric =
    if c.smoke then ([ "rand12x1"; "rand16x2" ], Cgra.iced_6x6)
    else ([ "rand40x1"; "rand60x2" ], Cgra.make ~rows:10 ~cols:10 ())
  in
  let ops =
    List.concat_map
      (fun name ->
        let kernel = Option.get (Iced_kernels.Registry.by_name name) in
        List.map (fun backend -> { kernel; backend; fabric })
          [ Backend.default; Backend.sa; Backend.pathfinder ])
      kernels
  in
  { ops = Workload.seeded_order ~seed:c.seed ops; reference = Hashtbl.create 8 }

(* Validate.check on the mapper's output and again after level
   assignment (which includes Levels.legal); the modelled ICED power
   of the assigned mapping. *)
let check o m =
  match Validate.check m with
  | Error msgs -> Error (String.concat "; " msgs)
  | Ok () -> (
    let m = Levels.assign m in
    match Validate.check m with
    | Error msgs -> Error ("after level assignment: " ^ String.concat "; " msgs)
    | Ok () ->
      let module Metrics = Iced_sim.Metrics in
      Ok
        ( m.Mapping.ii,
          Iced_power.Model.total_power_mw Iced_power.Params.default Iced_power.Model.Iced
            o.fabric ~tiles:(Metrics.tile_states m) ~sram_activity:(Metrics.sram_activity m) ))

let eval ~stats ~alloc o =
  let mapped =
    Workload.counting_alloc alloc (fun () ->
        Tracer.span ~name:(op_name o) "mapper" (fun () ->
            Mapper.map ~stats (Mapper.request ~backend:o.backend o.fabric) o.kernel.dfg))
  in
  Result.bind mapped (fun m -> Tracer.span "validate" (fun () -> check o m))

let measure st ~seconds =
  Workload.mapping_passes ~seconds ~reference:st.reference ~name:op_name ~eval st.ops

let workload = Workload.W { name = "synth-shootout"; tail_pct = 100.0; domains = 1; setup; measure }
