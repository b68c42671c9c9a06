(* Fingerprints of the passes that read a finished mapping: level
   assignment, validation, the per-tile metrics and power model, and
   the functional simulator.  test/golden/post_golden.txt holds the
   lines; the differential suite re-derives and compares them.
   Regenerate (gen_post_golden.ml) only when a change to what these
   passes report is intended and reviewed.

   Cases: every table1 op, i.e. each Table I kernel at unroll 1 and 2
   on the four design points of the 6x6 prototype, mapped by
   Design.evaluate.
   - <kernel>:uf<u>:<point>: the mapping's fingerprint hash, II and
     island levels; Validate.check; every tile's busy slots and
     utilization; average utilization, average DVFS, power, SRAM
     activity and speedup (floats at %h); Sim.run over 25 iterations
     (cycles, executed instances, the violation count and an FNV-1a
     hash of the violations and of the stores) and a hash of
     Sim.interpret's stores.
   - .../early, .../unrouted, .../offfabric: three seeded corruptions
     of that mapping: one node moved 1 to 2*II cycles earlier (times
     may go negative), one route dropped, one node moved to a tile past
     the fabric's last.  Each line hashes Validate.check's messages,
     Sim.run's violations and stores, the per-tile busy slots and
     utilization, and the island levels Levels.assign gives.

   A pass that raises is pinned by its exception. *)

module Design = Iced.Design
module Kernel = Iced_kernels.Kernel
module Mapping = Iced_mapper.Mapping
module Validate = Iced_mapper.Validate
module Levels = Iced_mapper.Levels
module Metrics = Iced_sim.Metrics
module Sim = Iced_sim.Sim
module Fnv = Iced_util.Fnv
module Rng = Iced_util.Rng

let iterations = 25

let hash_lines lines =
  Fnv.to_hex (List.fold_left (fun h l -> Fnv.string (Fnv.byte h '\n') l) Fnv.offset_basis lines)

let guard f = match f () with s -> s | exception e -> "raise:" ^ Printexc.to_string e

let counted lines = Printf.sprintf "%d:%s" (List.length lines) (hash_lines lines)

let store_line (s : Sim.store_event) =
  Printf.sprintf "%s@%d:%s" s.label s.iter (String.concat "," (List.map string_of_int s.operands))

let validate m =
  guard (fun () -> match Validate.check m with Ok () -> "ok" | Error msgs -> counted msgs)

let tiles m =
  guard (fun () ->
      String.concat ","
        (List.map
           (fun (t : Metrics.tile_metrics) -> Printf.sprintf "%d:%h" t.busy_slots t.utilization)
           (Metrics.per_tile m)))

let sim binding m =
  guard (fun () ->
      let r = Sim.run ~binding m ~iterations in
      Printf.sprintf "cycles=%d executed=%d violations=%s stores=%s" r.cycles r.executed
        (counted r.violations)
        (counted (List.map store_line r.stores)))

let levels m =
  Fnv.to_hex (Fnv.hash_string (guard (fun () -> Diff_gen.island_levels (Levels.assign m))))

let op_line tag (k : Kernel.t) (e : Design.evaluation) =
  let m = e.mapping in
  Printf.sprintf
    "%s\tmapping=%s ii=%d %s\tvalidate=%s\ttiles=%s\tavg_util=%h avg_dvfs=%h power_mw=%h \
     sram=%h speedup=%h\tsim %s\tinterpret=%s"
    tag
    (Fnv.to_hex (Fnv.hash_string (Diff_gen.fingerprint m)))
    m.Mapping.ii (Diff_gen.island_levels m) (validate m) (tiles m) e.avg_utilization
    e.avg_dvfs e.power_mw (Metrics.sram_activity m) e.speedup_vs_cpu (sim k.binding m)
    (guard (fun () ->
         counted
           (List.map store_line
              (Sim.interpret ~binding:k.binding m.Mapping.dfg ~iterations))))

let replace_nth l n f = List.mapi (fun i x -> if i = n then f x else x) l

let corruptions rng (m : Mapping.t) =
  let pick l = Rng.int rng (List.length l) in
  let early =
    let n = pick m.placements in
    let by = 1 + Rng.int rng (2 * m.ii) in
    {
      m with
      placements = replace_nth m.placements n (fun (id, (tile, time)) -> (id, (tile, time - by)));
    }
  in
  let unrouted =
    match m.routes with
    | [] -> m
    | routes ->
      let n = pick routes in
      { m with routes = List.filteri (fun i _ -> i <> n) routes }
  in
  let offfabric =
    let n = pick m.placements in
    let tile = Iced_arch.Cgra.tile_count m.cgra + Rng.int rng 3 in
    { m with placements = replace_nth m.placements n (fun (id, (_, time)) -> (id, (tile, time))) }
  in
  [ ("early", early); ("unrouted", unrouted); ("offfabric", offfabric) ]

let corrupt_line tag (k : Kernel.t) (name, m) =
  Printf.sprintf "%s/%s\tvalidate=%s\tsim=%s\ttiles=%s\tlevels=%s" tag name (validate m)
    (Fnv.to_hex (Fnv.hash_string (sim k.binding m)))
    (Fnv.to_hex (Fnv.hash_string (tiles m)))
    (levels m)

let golden_lines () =
  let ops =
    List.concat_map
      (fun k ->
        List.concat_map (fun unroll -> List.map (fun p -> (k, unroll, p)) Design.all_points) [ 1; 2 ])
      Iced_kernels.Registry.all
  in
  List.concat
    (List.mapi
       (fun i ((k : Kernel.t), unroll, point) ->
         let tag = Printf.sprintf "%s:uf%d:%s" k.name unroll (Design.point_to_string point) in
         match Design.evaluate ~trace:false ~unroll point k with
         | Error msg -> [ tag ^ "\tFAIL:" ^ msg ]
         | Ok e ->
           let rng = Rng.create (0x905e0000 + i) in
           op_line tag k e :: List.map (corrupt_line tag k) (corruptions rng e.mapping))
       ops)
