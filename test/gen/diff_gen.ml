(* Shared corpus for the mapper differential tests: a deterministic set
   of (request, DFG) cases — every registry kernel plus seeded random
   DFGs on 4x4 and 6x6 fabrics — and a textual fingerprint of a mapping
   (II, placements, routes).

   The golden file under test/golden/ was generated from this module
   BEFORE the mapping engine was refactored into layers; the
   differential suite re-maps the same corpus with the current engine
   and asserts every fingerprint is unchanged.  Keep this module in
   sync with the golden file: regenerating it (gen_golden.exe) is only
   legitimate when a behaviour change is intended and reviewed. *)

open Iced_arch
open Iced_dfg
module Mapper = Iced_mapper.Mapper
module Mapping = Iced_mapper.Mapping
module Builders = Iced_kernels.Builders

(* ------------------------------------------------------------------ *)
(* random DFGs *)

(* Layered random kernels: an induction variable (giving every graph a
   recurrence), a body of binary ops / loads / accumulators drawing
   operands from already-created nodes (so the distance-0 subgraph is
   acyclic by construction), and a store sink.  Everything is driven by
   the seeded splittable RNG, so a seed pins the graph exactly. *)
let random_dfg ~seed =
  let rng = Iced_util.Rng.create (0x5eed0000 + seed) in
  let g, ind = Builders.induction ~bound:(64 + Iced_util.Rng.int rng 64) Graph.empty in
  let pool = ref [ ind.Builders.phi; ind.Builders.next; ind.Builders.sel ] in
  let pick () = Iced_util.Rng.choose rng !pool in
  let g = ref g in
  let ops = [ Op.Add; Op.Sub; Op.Mul; Op.And; Op.Or; Op.Xor; Op.Shl; Op.Shr ] in
  let n_ops = 4 + Iced_util.Rng.int rng 9 in
  for _ = 1 to n_ops do
    let roll = Iced_util.Rng.int rng 10 in
    if roll < 6 then begin
      let a = pick () in
      let b = pick () in
      let kind = Iced_util.Rng.choose rng ops in
      let g', id = Builders.op kind ~inputs:[ a; b ] !g in
      g := g';
      pool := id :: !pool
    end
    else if roll < 8 then begin
      let addr = pick () in
      let g', id = Builders.load ~addr:[ addr ] !g in
      g := g';
      pool := id :: !pool
    end
    else begin
      let input = pick () in
      let g', acc = Builders.accumulator ~input !g in
      g := g';
      pool := acc.Builders.add :: !pool
    end
  done;
  let g', _ = Builders.store ~inputs:[ pick (); ind.Builders.next ] !g in
  (match Graph.validate g' with
  | Ok () -> ()
  | Error msg -> failwith (Printf.sprintf "random_dfg seed %d invalid: %s" seed msg));
  g'

(* ------------------------------------------------------------------ *)
(* fingerprints *)

let fingerprint (m : Mapping.t) =
  let b = Buffer.create 256 in
  Printf.bprintf b "ii=%d" m.Mapping.ii;
  List.iter
    (fun (n, (tile, time)) -> Printf.bprintf b " n%d:%d,%d" n tile time)
    m.Mapping.placements;
  let routes =
    List.sort compare
      (List.map
         (fun (r : Mapping.route) ->
           (r.edge.Graph.src, r.edge.Graph.dst, r.edge.Graph.distance, r.hops))
         m.Mapping.routes)
  in
  List.iter
    (fun (src, dst, dist, hops) ->
      Printf.bprintf b " e%d-%d.%d:" src dst dist;
      List.iter
        (fun (h : Mapping.hop) ->
          Printf.bprintf b "%d%s%d;" h.Mapping.tile
            (Dir.to_string h.Mapping.dir)
            h.Mapping.time)
        hops)
    routes;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* the corpus *)

let strategy_to_string = function
  | Mapper.Conventional -> "conv"
  | Mapper.Dvfs_aware -> "dvfs"

let cases () =
  let kernel_cases =
    List.concat_map
      (fun (k : Iced_kernels.Kernel.t) ->
        List.map
          (fun strategy ->
            ( Printf.sprintf "kernel:%s:6x6:%s" k.name (strategy_to_string strategy),
              Mapper.request ~strategy Cgra.iced_6x6,
              k.dfg ))
          [ Mapper.Dvfs_aware; Mapper.Conventional ])
      Iced_kernels.Registry.all
  in
  let committed_cases =
    List.filter_map
      (fun name ->
        match Iced_kernels.Registry.by_name name with
        | None -> None
        | Some k ->
          Some
            ( Printf.sprintf "kernel:%s:8x8:committed" k.Iced_kernels.Kernel.name,
              Mapper.request ~strategy:Mapper.Dvfs_aware ~commit_islands:true
                (Cgra.make ~rows:8 ~cols:8 ()),
              k.Iced_kernels.Kernel.dfg ))
      [ "fir"; "fft" ]
  in
  let random_cases =
    let on ~rows ~cols ~strategy seeds =
      List.map
        (fun seed ->
          ( Printf.sprintf "random:%d:%dx%d:%s" seed rows cols
              (strategy_to_string strategy),
            Mapper.request ~strategy (Cgra.make ~rows ~cols ()),
            random_dfg ~seed ))
        seeds
    in
    on ~rows:4 ~cols:4 ~strategy:Mapper.Dvfs_aware (List.init 10 Fun.id)
    @ on ~rows:4 ~cols:4 ~strategy:Mapper.Conventional (List.init 5 Fun.id)
    @ on ~rows:6 ~cols:6 ~strategy:Mapper.Dvfs_aware
        (List.init 8 (fun i -> 10 + i))
  in
  kernel_cases @ committed_cases @ random_cases

let golden_lines () =
  List.map
    (fun (name, req, dfg) ->
      match Mapper.map req dfg with
      | Ok m -> Printf.sprintf "%s\t%s" name (fingerprint m)
      | Error msg -> Printf.sprintf "%s\tFAIL:%s" name msg)
    (cases ())

(* ------------------------------------------------------------------ *)
(* the non-default backends *)

(* The [sa] and [pathfinder] backends are deterministic too: each line
   pins a mapping's fingerprint plus the search counters, so a change
   that keeps the result but walks a different search still shows.
   Pathfinder under the conventional cost model on 6x6 and committed
   fft under Pathfinder are left out: they take seconds per case. *)
let counters (s : Mapper.stats) =
  Printf.sprintf
    "attempts=%d placements_tried=%d route_calls=%d expansions=%d sa_moves_accepted=%d \
     sa_moves_rejected=%d sa_temp_steps=%d pf_rounds=%d pf_overflow=%d"
    s.attempts s.placements_tried s.route_calls s.expansions s.sa_moves_accepted
    s.sa_moves_rejected s.sa_temp_steps s.pf_rounds s.pf_overflow

let backend_cases () =
  let module Backend = Iced_mapper.Backend in
  let kernel name = Option.get (Iced_kernels.Registry.by_name name) in
  let case ~fabric ~tag req (k : Iced_kernels.Kernel.t) backends =
    List.map
      (fun backend ->
        ( Printf.sprintf "%s:%s:%s:%s" (Backend.to_string backend) k.name fabric tag,
          { req with Mapper.backend },
          k.dfg ))
      backends
  in
  let both = [ Backend.sa; Backend.pathfinder ] in
  let table1 strategy backends =
    List.concat_map
      (fun k ->
        case ~fabric:"6x6" ~tag:(strategy_to_string strategy)
          (Mapper.request ~strategy Cgra.iced_6x6)
          k backends)
      Iced_kernels.Registry.all
  in
  let committed name backends =
    case ~fabric:"8x8" ~tag:"committed"
      (Mapper.request ~strategy:Mapper.Dvfs_aware ~commit_islands:true
         (Cgra.make ~rows:8 ~cols:8 ()))
      (kernel name) backends
  in
  table1 Mapper.Dvfs_aware both
  @ table1 Mapper.Conventional [ Backend.sa ]
  @ case ~fabric:"10x10" ~tag:"dvfs"
      (Mapper.request ~strategy:Mapper.Dvfs_aware (Cgra.make ~rows:10 ~cols:10 ()))
      (kernel "rand40x1") both
  @ committed "fir" both
  @ committed "fft" [ Backend.sa ]

let backend_lines () =
  List.map
    (fun (name, req, dfg) ->
      let stats = Mapper.create_stats () in
      let result =
        match Mapper.map ~stats req dfg with
        | Ok m -> fingerprint m
        | Error msg -> "FAIL:" ^ msg
      in
      Printf.sprintf "%s\t%s\t%s" name result (counters stats))
    (backend_cases ())
