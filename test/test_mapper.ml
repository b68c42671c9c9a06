(* Tests for the mapper stack: labeling (Algorithm 1), routing,
   placement (Algorithm 2), post-mapping level assignment, and the
   validator. *)

open Iced_arch
open Iced_dfg
open Iced_mapper

let cgra = Cgra.iced_6x6
let fir = Option.get (Iced_kernels.Registry.by_name "fir")
let all_tiles = List.init (Cgra.tile_count cgra) (fun i -> i)

let map_kernel ?(strategy = Mapper.Dvfs_aware) (k : Iced_kernels.Kernel.t) =
  Mapper.map_exn (Mapper.request ~strategy cgra) k.dfg

(* ---------------- Labeling (Algorithm 1) ---------------- *)

let test_labeling_critical_normal () =
  let labels = Labeling.label fir.dfg ~cgra ~tiles:all_tiles ~ii:4 in
  let critical = Analysis.critical_nodes fir.dfg in
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "critical n%d at normal" id)
        true
        (List.assoc id labels = Dvfs.Normal))
    critical

let test_labeling_secondary_relax () =
  (* fir's accumulator cycle (length 2 <= 4/2) gets relax *)
  let labels = Labeling.label fir.dfg ~cgra ~tiles:all_tiles ~ii:4 in
  let secondary = Analysis.secondary_cycle_nodes fir.dfg in
  Alcotest.(check bool) "fir has a secondary cycle" true (secondary <> []);
  List.iter
    (fun id ->
      Alcotest.(check bool) "secondary at relax" true (List.assoc id labels = Dvfs.Relax))
    secondary

let test_labeling_grey_rest () =
  (* plenty of island capacity on 6x6 at II 4: grey nodes go to rest *)
  let labels = Labeling.label fir.dfg ~cgra ~tiles:all_tiles ~ii:4 in
  let rest_count =
    List.length (List.filter (fun (_, l) -> l = Dvfs.Rest) labels)
  in
  Alcotest.(check bool) "some rest labels" true (rest_count > 0)

let test_labeling_floor () =
  let labels = Labeling.label ~floor:Dvfs.Relax fir.dfg ~cgra ~tiles:all_tiles ~ii:4 in
  List.iter
    (fun (_, l) ->
      Alcotest.(check bool) "no label below relax" true (Dvfs.at_most Dvfs.Relax l))
    labels

let test_labeling_every_node () =
  let labels = Labeling.label fir.dfg ~cgra ~tiles:all_tiles ~ii:4 in
  Alcotest.(check int) "all nodes labeled" (Graph.node_count fir.dfg) (List.length labels)

let test_labeling_invalid () =
  Alcotest.check_raises "empty tiles" (Invalid_argument "Labeling.label: empty tile set")
    (fun () -> ignore (Labeling.label fir.dfg ~cgra ~tiles:[] ~ii:4))

(* ---------------- Router ---------------- *)

let test_router_same_tile () =
  let mrrg = Iced_mrrg.Mrrg.create cgra ~ii:4 in
  let edge = { Graph.src = 0; dst = 1; distance = 0 } in
  match Router.route mrrg ~edge ~src_tile:3 ~src_time:0 ~dst_tile:3 ~deadline:2 with
  | Ok (hops, _) -> Alcotest.(check int) "no hops" 0 (List.length hops)
  | Error e -> Alcotest.failf "route: %s" e

let test_router_neighbor () =
  let mrrg = Iced_mrrg.Mrrg.create cgra ~ii:4 in
  let edge = { Graph.src = 0; dst = 1; distance = 0 } in
  match Router.route mrrg ~edge ~src_tile:0 ~src_time:0 ~dst_tile:1 ~deadline:3 with
  | Ok (hops, _) ->
    Alcotest.(check int) "one hop" 1 (List.length hops);
    let h = List.hd hops in
    Alcotest.(check int) "from src" 0 h.Mapping.tile;
    Alcotest.(check bool) "after producer" true (h.Mapping.time >= 1);
    (* the port is now reserved *)
    Alcotest.(check bool) "port reserved" false
      (Iced_mrrg.Mrrg.is_free mrrg ~tile:0 ~time:h.Mapping.time (Iced_mrrg.Mrrg.Port h.Mapping.dir))
  | Error e -> Alcotest.failf "route: %s" e

let test_router_deadline_too_tight () =
  let mrrg = Iced_mrrg.Mrrg.create cgra ~ii:4 in
  let edge = { Graph.src = 0; dst = 1; distance = 0 } in
  (* corner to corner needs 10 hops; deadline 3 is impossible *)
  match Router.route mrrg ~edge ~src_tile:0 ~src_time:0 ~dst_tile:35 ~deadline:3 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "impossible route accepted"

let test_router_failure_reserves_nothing () =
  let mrrg = Iced_mrrg.Mrrg.create cgra ~ii:4 in
  let edge = { Graph.src = 0; dst = 1; distance = 0 } in
  ignore (Router.route mrrg ~edge ~src_tile:0 ~src_time:0 ~dst_tile:35 ~deadline:3);
  List.iter
    (fun tile ->
      Alcotest.(check bool) "clean" true (Iced_mrrg.Mrrg.tile_is_idle mrrg tile))
    all_tiles

(* ---------------- Mapper (Algorithm 2) ---------------- *)

let test_map_fir_ii () =
  let m = map_kernel fir in
  Alcotest.(check int) "fir at RecMII" 4 m.Mapping.ii

let test_map_all_kernels_all_strategies () =
  List.iter
    (fun (k : Iced_kernels.Kernel.t) ->
      List.iter
        (fun strategy ->
          let m = map_kernel ~strategy k in
          match Validate.check (Levels.assign m) with
          | Ok () -> ()
          | Error msgs ->
            Alcotest.failf "%s: invalid mapping: %s" k.name (List.hd msgs))
        [ Mapper.Conventional; Mapper.Dvfs_aware ])
    Iced_kernels.Registry.standalone

let test_map_iced_matches_baseline_ii () =
  (* paper claim: 2x2 islands lose no performance *)
  List.iter
    (fun (k : Iced_kernels.Kernel.t) ->
      let conv = map_kernel ~strategy:Mapper.Conventional k in
      let iced = map_kernel ~strategy:Mapper.Dvfs_aware k in
      Alcotest.(check bool)
        (Printf.sprintf "%s: iced II %d <= conv II %d" k.name iced.Mapping.ii
           conv.Mapping.ii)
        true
        (iced.Mapping.ii <= conv.Mapping.ii))
    Iced_kernels.Registry.standalone

let test_map_memory_constraint () =
  let m = map_kernel fir in
  List.iter
    (fun (n : Graph.node) ->
      if Op.needs_memory n.op then begin
        let tile = Mapping.tile_of_node m n.id in
        Alcotest.(check bool) "memory op on SPM column" true (Cgra.has_memory_port cgra tile)
      end)
    (Graph.nodes m.Mapping.dfg)

let test_map_empty_dfg () =
  match Mapper.map (Mapper.request cgra) Graph.empty with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty DFG must be rejected"

(* Placements stay inside the sub-fabric and memory ops on its westmost
   column: islands 1 and 2 leave out column 0, so column 2 serves. *)
let test_map_sub_fabric () =
  List.iter
    (fun (islands, memory_tiles) ->
      let tiles = Cgra.restrict cgra ~islands in
      let m = Mapper.map_exn (Mapper.request ~tiles cgra) fir.dfg in
      Alcotest.(check (list int)) "westmost column" memory_tiles m.Mapping.memory_tiles;
      List.iter
        (fun (id, _) ->
          let tile = Mapping.tile_of_node m id in
          Alcotest.(check bool) "inside partition" true (List.mem tile tiles);
          if Op.needs_memory (Graph.node m.Mapping.dfg id).op then
            Alcotest.(check bool) "memory op on the westmost column" true
              (List.mem tile memory_tiles))
        m.Mapping.placements;
      match Validate.check m with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "sub-fabric mapping invalid: %s" (List.hd msgs))
    [ ([ 0; 1 ], [ 0; 6 ]); ([ 1; 2 ], [ 2; 8 ]) ]

let test_map_commit_islands () =
  let req = Mapper.request ~commit_islands:true cgra in
  match Mapper.map req fir.dfg with
  | Ok m -> Alcotest.(check bool) "maps under commitment" true (m.Mapping.ii >= 4)
  | Error e -> Alcotest.failf "commit mode failed on fir: %s" e

(* ---------------- Levels ---------------- *)

let test_levels_all_normal_legal () =
  let m = map_kernel fir in
  let m = Levels.all_normal m in
  Alcotest.(check bool) "legal" true (Levels.legal m m.Mapping.island_levels)

let test_levels_gating_only_idle () =
  let m = Levels.normal_with_gating (map_kernel fir) in
  List.iter
    (fun (island, level) ->
      let busy =
        List.exists
          (fun tile -> Mapping.events_of_tile m tile <> [])
          (Cgra.island_tiles cgra island)
      in
      match level with
      | Dvfs.Power_gated ->
        Alcotest.(check bool) "gated islands idle" false busy
      | _ -> Alcotest.(check bool) "active islands busy" true busy)
    m.Mapping.island_levels

let test_levels_assign_sound () =
  List.iter
    (fun (k : Iced_kernels.Kernel.t) ->
      let m = Levels.assign (map_kernel k) in
      Alcotest.(check bool)
        (k.name ^ " assignment sound")
        true
        (Levels.legal m m.Mapping.island_levels))
    Iced_kernels.Registry.standalone

let test_levels_assign_floor () =
  let m = Levels.assign ~floor:Dvfs.Relax ~allow_gating:false (map_kernel fir) in
  List.iter
    (fun (_, level) ->
      Alcotest.(check bool) "at least relax" true (Dvfs.at_most Dvfs.Relax level))
    m.Mapping.island_levels

let test_levels_illegal_detected () =
  (* slowing an island that hosts the whole critical cycle at II=RecMII
     must be illegal *)
  let m = map_kernel fir in
  let critical = Analysis.critical_nodes m.Mapping.dfg in
  let islands =
    List.sort_uniq compare
      (List.map (fun id -> Cgra.island_of cgra (Mapping.tile_of_node m id)) critical)
  in
  let levels =
    List.map
      (fun island ->
        (island, if List.mem island islands then Dvfs.Relax else Dvfs.Normal))
      (Cgra.islands cgra)
  in
  Alcotest.(check bool) "slowed critical island rejected" false (Levels.legal m levels)

(* ---------------- Validator on corrupted mappings ---------------- *)

let test_validate_detects_conflict () =
  let m = map_kernel fir in
  (* force two nodes onto the same tile and time *)
  match m.Mapping.placements with
  | (n1, (t1, c1)) :: (n2, _) :: rest ->
    let corrupted =
      { m with Mapping.placements = (n1, (t1, c1)) :: (n2, (t1, c1)) :: rest }
    in
    (match Validate.check corrupted with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "double booking must be rejected")
  | _ -> Alcotest.fail "expected placements"

let test_validate_detects_missing_placement () =
  let m = map_kernel fir in
  let corrupted = { m with Mapping.placements = List.tl m.Mapping.placements } in
  match Validate.check corrupted with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing placement must be rejected"

let test_validate_detects_broken_route () =
  let m = map_kernel fir in
  match
    List.find_opt (fun (r : Mapping.route) -> r.hops <> []) m.Mapping.routes
  with
  | None -> () (* everything same-tile: nothing to corrupt *)
  | Some r ->
    let broken_hops =
      List.map (fun (h : Mapping.hop) -> { h with Mapping.time = h.time + 1000 }) r.hops
    in
    let routes =
      { r with Mapping.hops = broken_hops }
      :: List.filter (fun (x : Mapping.route) -> x != r) m.Mapping.routes
    in
    (match Validate.check { m with Mapping.routes } with
    | Error _ -> ()
    | Ok () -> Alcotest.fail "late route must be rejected")

(* ---------------- Floorplan ---------------- *)

let test_floorplan_renders () =
  let m = Levels.assign (map_kernel fir) in
  let text = Floorplan.render m in
  Alcotest.(check bool) "mentions every cycle" true
    (List.for_all
       (fun c ->
         let needle = Printf.sprintf "cycle %d:" c in
         let rec scan i =
           i + String.length needle <= String.length text
           && (String.sub text i (String.length needle) = needle || scan (i + 1))
         in
         scan 0)
       (List.init m.Mapping.ii (fun i -> i)));
  Alcotest.check_raises "bad cycle" (Invalid_argument "Floorplan.cycle_grid: bad cycle")
    (fun () -> ignore (Floorplan.cycle_grid m ~cycle:m.Mapping.ii))

let test_floorplan_level_map () =
  let m = Levels.assign (map_kernel fir) in
  let grid = Floorplan.level_grid m in
  (* a tiny kernel leaves gated islands: the map must contain '-' *)
  Alcotest.(check bool) "has gated cells" true (String.contains grid '-')

(* ---------------- Exact mapper as optimality reference ------------- *)

let small_loop cycle_len extra =
  (* one recurrence cycle of [cycle_len] plus [extra] side nodes *)
  let g = Graph.empty in
  let g, phi = Graph.add_node g Op.Phi in
  let g, last =
    List.fold_left
      (fun (g, prev) _ ->
        let g, id = Graph.add_node g Op.Add in
        (Graph.add_edge g prev id, id))
      (g, phi)
      (List.init (cycle_len - 1) (fun i -> i))
  in
  let g = Graph.add_edge ~distance:1 g last phi in
  List.fold_left
    (fun (g, _) i ->
      let g, ld = Graph.add_node ~label:(Printf.sprintf "x%d" i) g Op.Load in
      let g, mul = Graph.add_node g Op.Mul in
      let g = Graph.add_edge g ld mul in
      let g = Graph.add_edge g phi mul in
      (g, mul))
    (g, phi)
    (List.init extra (fun i -> i))
  |> fst

(* An optimum certify reached without building a CNF rests on the
   lower bound alone, so it must be that bound: a backend is then
   compared against the bound or a refutation, never against the
   default backend's own II. *)
let check_optimum ctx (r : Exact.report) ii =
  if r.Exact.vars = 0 then
    Alcotest.(check int) (ctx ^ ": an optimum with no CNF is the lower bound") r.Exact.start_ii ii

(* The certified optimum, or a failure naming what certify said *)
let certified_ii cgra g =
  let r = Exact.certify cgra g in
  match r.Exact.verdict with
  | Exact.Optimal ii ->
    check_optimum "certify" r ii;
    ii
  | Exact.Infeasible -> Alcotest.fail "certify: infeasible"
  | Exact.Unknown _ -> Alcotest.fail "certify: budget too small"

let test_heuristic_matches_exact () =
  (* on small loops the heuristic must reach the exact optimum *)
  List.iter
    (fun (cycle_len, extra) ->
      let g = small_loop cycle_len extra in
      let cgra = Cgra.make ~rows:4 ~cols:4 () in
      let optimal = certified_ii cgra g in
      let m = Mapper.map_exn (Mapper.request cgra) g in
      Alcotest.(check int)
        (Printf.sprintf "heuristic optimal for cycle %d + %d" cycle_len extra)
        optimal m.Mapping.ii)
    [ (2, 1); (3, 1); (4, 2); (5, 1) ]

(* 6 independent loads into a store on a 2x2 fabric: the 7 memory ops
   share the 2 tiles of the SPM column, so II >= ceil(7 / 2) = 4,
   above the fabric-wide bound of 2 *)
let loads_into_store () =
  let g = Graph.empty in
  let g, st = Graph.add_node g Op.Store in
  List.fold_left
    (fun g i ->
      let g, ld = Graph.add_node ~label:(Printf.sprintf "x%d" i) g Op.Load in
      Graph.add_edge g ld st)
    g
    (List.init 6 (fun i -> i))

let test_exact_resource_bound () =
  let cgra = Cgra.make ~rows:2 ~cols:2 () in
  Alcotest.(check int) "memory column binds" 4 (certified_ii cgra (loads_into_store ()))

(* An empty graph, and one that fails Graph.validate (a cycle with no
   loop-carried edge), are vacuous Infeasibles although their start II
   is within max_ii: nothing is tried, neither the solver nor the
   default backend.  Mapper.map would reject both before its first
   attempt, so the mapper.runs counter, not only [stats], shows that
   it never ran. *)
let test_exact_empty () =
  let cgra = Cgra.make ~rows:2 ~cols:2 () in
  let g, a = Graph.add_node Graph.empty Op.Add in
  let g, b = Graph.add_node g Op.Add in
  let invalid = Graph.add_edge (Graph.add_edge g a b) b a in
  let runs () = Option.value ~default:0 (Iced_obs.Metrics.counter_value "mapper.runs") in
  List.iter
    (fun (name, g) ->
      let stats = Mapper.create_stats () and before = runs () in
      let r = Exact.certify ~stats cgra g in
      Alcotest.(check bool) (name ^ " infeasible") true (r.Exact.verdict = Exact.Infeasible);
      Alcotest.(check bool) (name ^ ": start II within max II") true
        (r.Exact.start_ii <= r.Exact.max_ii);
      Alcotest.(check int) (name ^ ": no II tried") 0 (List.length r.Exact.per_ii);
      Alcotest.(check int) (name ^ ": no CNF built") 0 r.Exact.vars;
      Alcotest.(check int) (name ^ ": no mapper attempts") 0 stats.Telemetry.attempts;
      Alcotest.(check int) (name ^ ": no mapper run") before (runs ()))
    [ ("empty", Graph.empty); ("invalid", invalid) ]

(* ---------------- Bitstream ---------------- *)

let test_bitstream_covers_schedule () =
  let m = Levels.assign (map_kernel fir) in
  let configs = Bitstream.generate m in
  (* every placed node appears as exactly one FU slot *)
  let fu_slots =
    List.fold_left
      (fun acc (c : Bitstream.tile_config) ->
        acc
        + Array.fold_left
            (fun acc (s : Bitstream.slot) -> if s.fu <> None then acc + 1 else acc)
            0 c.slots)
      0 configs
  in
  Alcotest.(check int) "one FU slot per node" (Graph.node_count m.Mapping.dfg) fu_slots;
  (* config tiles = used tiles *)
  Alcotest.(check int) "one config per active tile"
    (List.length (Mapping.used_tiles m))
    (List.length configs)

let test_bitstream_roundtrip () =
  let m = Levels.assign (map_kernel fir) in
  List.iter
    (fun (c : Bitstream.tile_config) ->
      Array.iter
        (fun (slot : Bitstream.slot) ->
          let word = Bitstream.encode_slot slot in
          match Bitstream.decode_slot word with
          | None ->
            if slot.fu <> None || slot.outputs <> [] then
              Alcotest.fail "non-idle slot decoded as idle"
          | Some decoded ->
            (match (slot.fu, decoded.Bitstream.fu) with
            | None, None -> ()
            | Some (op, sources), Some (op', sources') ->
              (match (op, op') with
              | Op.Const _, Op.Const _ -> ()
              | a, b ->
                Alcotest.(check string) "opcode" (Op.to_string a) (Op.to_string b));
              Alcotest.(check int) "operand sources survive"
                (min 4 (List.length sources))
                (List.length sources')
            | _ -> Alcotest.fail "fu presence changed");
            let canon outs = List.sort compare outs in
            Alcotest.(check bool) "outputs survive" true
              (canon slot.outputs = canon decoded.Bitstream.outputs))
        c.slots)
    (Bitstream.generate m)

let test_bitstream_size () =
  let m = Levels.assign (map_kernel fir) in
  let bits = Bitstream.total_bits m in
  Alcotest.(check bool) "non-trivial config" true (bits > 0);
  Alcotest.(check int) "64 bits per slot per active tile"
    (64 * m.Mapping.ii * List.length (Bitstream.generate m))
    bits

(* ---------------- Property: random loops map and validate ---------- *)

let prop_random_loops_map =
  QCheck.Test.make ~name:"random loops map and validate on 6x6" ~count:40
    QCheck.(pair (3 -- 10) small_nat)
    (fun (n, seed) ->
      let rng = Iced_util.Rng.create seed in
      let g = Graph.empty in
      let g, phi = Graph.add_node g Op.Phi in
      let g, nodes =
        List.fold_left
          (fun (g, acc) _ ->
            (* fold-style ops accept any arity, matching the random
               single-input wiring *)
            let op = Iced_util.Rng.choose rng [ Op.Add; Op.Mul; Op.Xor ] in
            let g, id = Graph.add_node g op in
            let src = Iced_util.Rng.choose rng (phi :: acc) in
            let g = Graph.add_edge g src id in
            (g, id :: acc))
          (g, []) (List.init n (fun i -> i))
      in
      let g = Graph.add_edge ~distance:1 g (List.hd nodes) phi in
      match Mapper.map (Mapper.request cgra) g with
      | Error _ -> false
      | Ok m -> (
        let m = Levels.assign m in
        match Validate.check m with
        | Ok () ->
          let sim = Iced_sim.Sim.run m ~iterations:6 in
          sim.Iced_sim.Sim.violations = []
        | Error _ -> false))

(* ---------------- Exact oracle: the certified reference ---------- *)

(* the seeded accumulator-loop generator the reference tests share *)
let random_loop seed =
  let rng = Iced_util.Rng.create seed in
  let n = Iced_util.Rng.int_in rng 2 7 in
  let g = Graph.empty in
  let g, phi = Graph.add_node g Op.Phi in
  let g, nodes =
    List.fold_left
      (fun (g, acc) _ ->
        let op = Iced_util.Rng.choose rng [ Op.Add; Op.Mul; Op.Xor ] in
        let g, id = Graph.add_node g op in
        let src = Iced_util.Rng.choose rng (phi :: acc) in
        let g = Graph.add_edge g src id in
        (g, id :: acc))
      (g, []) (List.init n (fun i -> i))
  in
  Graph.add_edge ~distance:1 g (List.hd nodes) phi

(* The soundness of the CNF [Exact.certify] refutes IIs with: every
   valid mapping must satisfy the wide CNF at its own II, so assuming
   its tiles, slots and cycles ({!Encode.assume}) must leave that CNF
   satisfiable.  A cycle outside its node's wide window counts as
   excluded too, so no mapping passes unchecked.  [soundness ()]
   returns [admit ctx m], which checks one mapping, and
   [check ~mappings], which requires that none was excluded and that
   exactly [mappings] were checked. *)
let soundness () =
  let checked = ref 0 and excluded = ref [] in
  let admit ctx (m : Mapping.t) =
    incr checked;
    let exclude why =
      excluded := Printf.sprintf "%s at II %d: %s" ctx m.Mapping.ii why :: !excluded
    in
    match Encode.build m.Mapping.cgra m.Mapping.dfg ~ii:m.Mapping.ii ~rule:Encode.Wide with
    | Error msg -> exclude msg
    | Ok enc -> (
      let outside (n, (_, time)) =
        let lo, hi = Encode.window enc n in
        time < lo || time >= hi
      in
      match List.find_opt outside m.Mapping.placements with
      | Some (n, (_, time)) ->
        exclude (Printf.sprintf "node %d at cycle %d, outside its wide window" n time)
      | None -> (
        Encode.assume enc m.Mapping.placements;
        match Iced_sat.Solver.solve (Encode.solver enc) with
        | Iced_sat.Solver.Sat -> ()
        | Iced_sat.Solver.Unsat -> exclude "unsatisfiable"
        | Iced_sat.Solver.Unknown -> exclude "undecided"))
  in
  let check ~mappings =
    Alcotest.(check (list string)) "mappings the wide CNF excludes" [] (List.rev !excluded);
    Alcotest.(check int) "mappings checked against the wide CNF" mappings !checked
  in
  (admit, check)

let backends = [ Backend.default; Backend.sa; Backend.pathfinder ]

(* Whether certify's witness is a SAT model: the ladder stops at the
   default backend's II, so a witness below that II, or one found where
   the default backend mapped nothing, came from the solver. *)
let witness_from_sat (r : Exact.report) default =
  match (r.Exact.witness, default) with
  | None, _ -> false
  | Some _, Error _ -> true
  | Some (w : Mapping.t), Ok (m : Mapping.t) -> w.Mapping.ii < m.Mapping.ii

let test_heuristic_optimal_on_random_loops () =
  (* 20 seeded random accumulator loops of at most 8 nodes, each on a
     2x2 and a 3x3 fabric.  Exact.certify decides all 40: the default
     backend must reach the certified optimum, no backend may map below
     it, and every backend mapping and witness must pass the soundness
     property.  The default backend maps all 40 at the lower bound, so
     certify builds no CNF here and every witness is that backend's own
     mapping (both counts pinned below): the SAT witness path is
     checked by [test_certify_sat_below_heuristic] and
     [test_certify_witness_roundtrip]. *)
  let compared = ref 0 and cnfs = ref 0 and sat_witnesses = ref 0 in
  let admit, check_soundness = soundness () in
  List.iter
    (fun seed ->
      let g = random_loop seed in
      List.iter
        (fun size ->
          let cgra = Cgra.make ~rows:size ~cols:size () in
          let ctx =
            Printf.sprintf "seed %d (%d nodes) on %dx%d" seed (Graph.node_count g) size size
          in
          let r = Exact.certify cgra g in
          if r.Exact.vars > 0 then incr cnfs;
          match (r.Exact.verdict, r.Exact.witness) with
          | Exact.Optimal optimal, Some witness ->
            check_optimum ctx r optimal;
            incr compared;
            admit (ctx ^ ", witness") witness;
            List.iter
              (fun backend ->
                let ctx = ctx ^ ", " ^ Backend.to_string backend in
                match Mapper.map (Mapper.request ~backend cgra) g with
                | Error msg -> Alcotest.failf "%s: heuristic failed: %s" ctx msg
                | Ok m ->
                  admit ctx m;
                  if Backend.is_default backend then begin
                    if witness_from_sat r (Ok m) then incr sat_witnesses;
                    Alcotest.(check int) (ctx ^ " optimal") optimal m.Mapping.ii
                  end
                  else if m.Mapping.ii < optimal then
                    Alcotest.failf "%s: II %d below certified optimum %d" ctx m.Mapping.ii
                      optimal)
              backends
          | _ -> Alcotest.failf "%s: not certified optimal" ctx)
        [ 2; 3 ])
    (List.init 20 (fun i -> i));
  Alcotest.(check int) "inputs compared with the certified optimum" 40 !compared;
  Alcotest.(check (pair int int)) "inputs that built a CNF, witnesses from SAT" (0, 0)
    (!cnfs, !sat_witnesses);
  check_soundness ~mappings:160

(* ---------------- SAT-backed certification ---------------- *)

let test_certify_finds_recmii () =
  let g = small_loop 3 1 in
  let cgra = Cgra.make ~rows:4 ~cols:4 () in
  let r = Exact.certify cgra g in
  match r.Exact.verdict with
  | Exact.Optimal ii ->
    Alcotest.(check int) "optimal = RecMII" (Analysis.rec_mii g) ii;
    (match r.Exact.witness with
    | None -> Alcotest.fail "optimal verdict without witness"
    | Some m -> (
      Alcotest.(check int) "witness at the certified II" ii m.Mapping.ii;
      match Validate.check m with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "witness invalid: %s" (String.concat "; " msgs)))
  | Exact.Infeasible -> Alcotest.fail "expected feasible"
  | Exact.Unknown _ -> Alcotest.fail "budget too small"

(* A witness must survive the whole SAT path: decode, route_model and
   Validate.check.  The draws are seeded rand14 and rand15 graphs on
   3x3, kept only where the default backend maps above the lower bound
   (about one in seven), so certify must build a CNF below that
   backend's II; on seeds 1-1000, 310 of 312 such draws give a SAT
   witness at the bound. *)
let test_certify_witness_roundtrip =
  QCheck.Test.make ~name:"certify witnesses pass Validate.check" ~count:15
    QCheck.(pair (14 -- 15) (1 -- 1000))
    (fun (nodes, seed) ->
      let g = Iced_kernels.Synth.dfg ~nodes ~seed in
      let cgra = Cgra.make ~rows:3 ~cols:3 () in
      QCheck.assume
        (match Mapper.map (Mapper.request cgra) g with
        | Ok m -> m.Mapping.ii > Analysis.min_ii g ~tiles:(Cgra.tile_count cgra)
        | Error _ -> false);
      let r = Exact.certify cgra g in
      r.Exact.vars > 0
      &&
      match (r.Exact.verdict, r.Exact.witness) with
      | Exact.Optimal ii, Some m ->
        m.Mapping.ii = ii && Validate.check m = Ok ()
      | Exact.Optimal _, None -> false
      | (Exact.Infeasible | Exact.Unknown _), Some _ -> false
      | (Exact.Infeasible | Exact.Unknown _), None -> true)

let test_certify_deterministic () =
  let g = small_loop 4 2 in
  let cgra = Cgra.make ~rows:4 ~cols:4 () in
  let run () =
    let r = Exact.certify ~seed:3 cgra g in
    ( r.Exact.verdict,
      r.Exact.per_ii,
      r.Exact.conflicts,
      r.Exact.decisions,
      r.Exact.propagations,
      r.Exact.route_blocks,
      Option.map (fun (m : Mapping.t) -> m.Mapping.placements) r.Exact.witness )
  in
  Alcotest.(check bool) "identical reports" true (run () = run ())

(* With no conflicts to spend, every II the solver is asked about stays
   undecided.  On the 6-loads-into-a-store graph on 2x2 the default
   backend maps at 4, above the bound 2, so IIs 2 and 3 go to the
   solver and the verdict brackets the optimum in 2..4.  With max_ii 3
   the default backend maps nothing, and the verdict is the solver's
   alone: every II undecided, none feasible. *)
let test_certify_budget_reports_first_undecided () =
  let g = loads_into_store () in
  let cgra = Cgra.make ~rows:2 ~cols:2 () in
  let r = Exact.certify ~budget_conflicts:0 cgra g in
  Alcotest.(check int) "start II" 2 r.Exact.start_ii;
  Alcotest.(check bool) "unknown 2..4" true
    (r.Exact.verdict = Exact.Unknown { first_undecided = 2; feasible_at = Some 4 });
  Alcotest.(check bool) "IIs 2 and 3 undecided, 4 feasible" true
    (r.Exact.per_ii = [ (2, Exact.Ii_budget); (3, Exact.Ii_budget); (4, Exact.Ii_feasible) ]);
  Alcotest.(check bool) "no witness" true (r.Exact.witness = None);
  Alcotest.(check int) "no conflicts" 0 r.Exact.conflicts;
  let r = Exact.certify ~max_ii:3 ~budget_conflicts:0 cgra g in
  Alcotest.(check bool) "max II 3: unknown from 2, nothing feasible" true
    (r.Exact.verdict = Exact.Unknown { first_undecided = 2; feasible_at = None });
  Alcotest.(check bool) "max II 3: IIs 2 and 3 undecided" true
    (r.Exact.per_ii = [ (2, Exact.Ii_budget); (3, Exact.Ii_budget) ])

(* fir maps at its lower bound 4 on 6x6, so certify builds no CNF: the
   default backend's mapping is the witness, [stats] counts its
   attempts, and its wall time is counted once, inside certify's. *)
let test_certify_heuristic_at_bound () =
  let stats = Mapper.create_stats () in
  let t0 = Iced_obs.Clock.now () in
  let r = Exact.certify ~stats cgra fir.dfg in
  let elapsed = Iced_obs.Clock.now () -. t0 in
  Alcotest.(check bool) "optimal 4" true (r.Exact.verdict = Exact.Optimal 4);
  Alcotest.(check bool) "II 4 feasible, nothing else tried" true
    (r.Exact.per_ii = [ (4, Exact.Ii_feasible) ]);
  Alcotest.(check (list int)) "no vars, clauses or conflicts" [ 0; 0; 0 ]
    [ r.Exact.vars; r.Exact.clauses; r.Exact.conflicts ];
  (match r.Exact.witness with
  | Some m ->
    Alcotest.(check int) "witness at II 4" 4 m.Mapping.ii;
    Alcotest.(check bool) "witness validates" true (Validate.check m = Ok ())
  | None -> Alcotest.fail "optimal verdict without witness");
  Alcotest.(check bool) "mapper attempts counted" true (stats.Telemetry.attempts > 0);
  Alcotest.(check int) "no solver conflicts counted" 0 stats.Telemetry.sat_conflicts;
  Alcotest.(check bool) "wall time counted once" true
    (stats.Telemetry.wall_s > 0.0 && stats.Telemetry.wall_s <= elapsed)

(* Where the default backend misses the lower bound, certify's
   optimum and witness come from SAT.  init unrolled twice on 6x6 is
   pinned exactly: the default backend maps at 9, the narrow CNF finds
   a mapping at the bound 7 after 133 conflicts.  decompose unrolled
   twice on 6x6 (bound 7, default backend 8) and the rand14 and rand16
   graphs of seeds 1-12 on 3x3 and 4x4 that the default backend maps
   above the bound (16 of 48) must give a SAT witness too.  Every SAT
   witness, and the default backend's mapping beside it, must pass
   the soundness property. *)
let test_certify_sat_below_heuristic () =
  let admit, check_soundness = soundness () in
  let sat_witnesses = ref 0 in
  let certify_below ctx cgra g default =
    let r = Exact.certify cgra g in
    Alcotest.(check bool) (ctx ^ ": a CNF was built") true (r.Exact.vars > 0);
    (match (r.Exact.verdict, r.Exact.witness) with
    | Exact.Optimal ii, Some w when witness_from_sat r default ->
      incr sat_witnesses;
      Alcotest.(check int) (ctx ^ ": witness at the optimum") ii w.Mapping.ii;
      Alcotest.(check bool) (ctx ^ ": witness validates") true (Validate.check w = Ok ());
      admit (ctx ^ ", witness") w;
      Result.iter (admit (ctx ^ ", default backend")) default
    | _ -> Alcotest.failf "%s: no SAT witness below the default backend" ctx);
    r
  in
  let unrolled name =
    Iced_kernels.Kernel.dfg_at (Option.get (Iced_kernels.Registry.by_name name)) ~factor:2
  in
  let g = unrolled "init" in
  let heuristic = Mapper.map (Mapper.request cgra) g in
  Alcotest.(check (result int string)) "init: default backend II" (Ok 9)
    (Result.map (fun (m : Mapping.t) -> m.Mapping.ii) heuristic);
  let r = certify_below "init" cgra g heuristic in
  Alcotest.(check bool) "init: optimal 7" true (r.Exact.verdict = Exact.Optimal 7);
  Alcotest.(check bool) "init: decided at II 7" true
    (r.Exact.per_ii = [ (7, Exact.Ii_feasible) ]);
  Alcotest.(check int) "init: conflicts" 133 r.Exact.conflicts;
  let g = unrolled "decompose" in
  ignore (certify_below "decompose" cgra g (Mapper.map (Mapper.request cgra) g));
  List.iter
    (fun size ->
      let cgra = Cgra.make ~rows:size ~cols:size () in
      List.iter
        (fun (nodes, seed) ->
          let g = Iced_kernels.Synth.dfg ~nodes ~seed in
          let default = Mapper.map (Mapper.request cgra) g in
          let at_bound (m : Mapping.t) =
            m.Mapping.ii = Analysis.min_ii g ~tiles:(Cgra.tile_count cgra)
          in
          if not (Result.fold ~ok:at_bound ~error:(fun _ -> false) default) then
            let on = Printf.sprintf "%s on %dx%d" (Iced_kernels.Synth.name ~nodes ~seed) size size in
            ignore (certify_below on cgra g default))
        (List.concat_map (fun nodes -> List.init 12 (fun i -> (nodes, i + 1))) [ 14; 16 ]))
    [ 3; 4 ];
  Alcotest.(check int) "SAT witnesses" 18 !sat_witnesses;
  check_soundness ~mappings:36

(* The chain a -> b -> c -> d with a carried edge c -> b, plus an
   isolated e, on 4x4 (diameter 6) at II 2: distance-0 edges weigh
   1 + 6 = 7 and the carried one 1 + 6 - 2 = 5, so H = 1 + 3 * 7 + 5
   = 27 and the floor is II + diameter + 1 = 9.  The carried edge puts
   c among b's ancestors: b and c sum a -> b, b -> c and c -> b. *)
let test_encode_windows () =
  let g = Graph.empty in
  let g, a = Graph.add_node g Op.Add in
  let g, b = Graph.add_node g Op.Add in
  let g, c = Graph.add_node g Op.Add in
  let g, d = Graph.add_node g Op.Add in
  let g, e = Graph.add_node g Op.Add in
  let g = Graph.add_edge g a b in
  let g = Graph.add_edge g b c in
  let g = Graph.add_edge g c d in
  let g = Graph.add_edge ~distance:1 g c b in
  let cgra = Cgra.make ~rows:4 ~cols:4 () in
  let build rule =
    match Encode.build cgra g ~ii:2 ~rule with
    | Ok enc -> enc
    | Error msg -> Alcotest.fail msg
  in
  let narrow = build Encode.Narrow and wide = build Encode.Wide in
  let horizon = 27 and floor = 9 in
  List.iter
    (fun (name, n, lo, hi) ->
      Alcotest.(check (pair int int)) (name ^ " narrow") (lo, hi) (Encode.window narrow n);
      Alcotest.(check (pair int int)) (name ^ " wide") (lo, horizon) (Encode.window wide n);
      Alcotest.(check bool) (name ^ " narrow within H") true (hi <= horizon))
    [
      ("a", a, 0, floor);
      ("b", b, 1, 1 + 7 + 7 + 5);
      ("c", c, 2, 1 + 7 + 7 + 5);
      ("d", d, 3, horizon);
      ("e", e, 0, floor);
    ];
  Alcotest.(check bool) "narrow CNF is smaller" true
    (Iced_sat.Solver.var_count (Encode.solver narrow)
    < Iced_sat.Solver.var_count (Encode.solver wide))

(* The soundness property is only as strong as [Encode.assume]: the
   witness must stay admitted, and a placement the CNF forbids must
   make it unsatisfiable once assumed. *)
let test_encode_assume () =
  let g = loads_into_store () in
  let cgra = Cgra.make ~rows:2 ~cols:2 () in
  let w = Option.get (Exact.certify cgra g).Exact.witness in
  let admits placements =
    match Encode.build cgra g ~ii:w.Mapping.ii ~rule:Encode.Wide with
    | Error msg -> Alcotest.fail msg
    | Ok enc ->
      Encode.assume enc placements;
      Iced_sat.Solver.solve (Encode.solver enc) = Iced_sat.Solver.Sat
  in
  let moved n pt = List.map (fun (m, p) -> if m = n then (m, pt) else (m, p)) w.Mapping.placements in
  let non_memory = List.find (fun t -> not (List.mem t (Cgra.memory_tiles cgra))) [ 0; 1; 2; 3 ] in
  Alcotest.(check bool) "the witness" true (admits w.Mapping.placements);
  Alcotest.(check bool) "a load off the SPM column" false
    (admits (moved 1 (non_memory, snd (List.assoc 1 w.Mapping.placements))));
  Alcotest.(check bool) "two loads in one tile and cycle" false
    (admits (moved 1 (List.assoc 2 w.Mapping.placements)))

(* The ROADMAP invariant on seeded synthetic graphs: wherever the
   oracle certifies an optimum no backend maps below it, and an
   infeasible verdict means no backend maps at any II the oracle
   tried.  Every backend mapping and witness must also pass the
   soundness property.  Seeds 1-4 of rand12/16/20 on 4x4 and 6x6;
   seeds 5 and 6 add rand20x5 on 4x4, an unknown that spends ~4 s on
   its route-block cap and checks nothing.  The default backend maps
   22 of the 24 at the lower bound; only rand16x3, on both fabrics,
   builds a CNF, and its witness is a SAT model (both counts pinned). *)
let test_certify_sound_on_synthetic () =
  let max_ii = 16 and admit, check_soundness = soundness () in
  let cnfs = ref 0 and sat_witnesses = ref 0 in
  List.iter
    (fun size ->
      let cgra = Cgra.make ~rows:size ~cols:size () in
      List.iter
        (fun nodes ->
          List.iter
            (fun seed ->
              let g = Iced_kernels.Synth.dfg ~nodes ~seed in
              let on =
                Printf.sprintf "%s on %dx%d" (Iced_kernels.Synth.name ~nodes ~seed) size size
              in
              let r = Exact.certify ~max_ii ~budget_conflicts:20_000 cgra g in
              if r.Exact.vars > 0 then incr cnfs;
              (match r.Exact.verdict with
              | Exact.Optimal opt -> check_optimum on r opt
              | Exact.Infeasible | Exact.Unknown _ -> ());
              Option.iter (admit (on ^ ", witness")) r.Exact.witness;
              List.iter
                (fun backend ->
                  let ctx = on ^ ", " ^ Backend.to_string backend in
                  let mapped = Mapper.map (Mapper.request ~backend ~max_ii cgra) g in
                  if Backend.is_default backend && witness_from_sat r mapped then
                    incr sat_witnesses;
                  match mapped with
                  | Error _ -> ()
                  | Ok m -> (
                    admit ctx m;
                    match r.Exact.verdict with
                    | Exact.Optimal opt when m.Mapping.ii < opt ->
                      Alcotest.failf "%s: II %d below certified optimum %d" ctx m.Mapping.ii opt
                    | Exact.Infeasible ->
                      Alcotest.failf "%s: maps at II %d, oracle says infeasible" ctx m.Mapping.ii
                    | _ -> ()))
                backends)
            [ 1; 2; 3; 4 ])
        [ 12; 16; 20 ])
    [ 4; 6 ];
  Alcotest.(check (pair int int)) "inputs that built a CNF, witnesses from SAT" (2, 2)
    (!cnfs, !sat_witnesses);
  check_soundness ~mappings:96

let test_certify_unknown_brackets_optimum () =
  (* A small conflict budget leaves some II below the optimum undecided
     while a higher one still maps: the verdict must bracket the
     optimum between the first undecided II and the feasible one.
     Doubling from 1 finds such a budget. *)
  let g = loads_into_store () in
  let cgra = Cgra.make ~rows:2 ~cols:2 () in
  let start = Analysis.min_ii g ~tiles:(Cgra.tile_count cgra) in
  let opt = certified_ii cgra g in
  Alcotest.(check bool) "lower IIs exist to starve" true (opt > start);
  let rec find_budget b =
    if b > 100_000 then Alcotest.fail "no budget separates the IIs"
    else
      match (Exact.certify ~budget_conflicts:b cgra g).Exact.verdict with
      | Exact.Unknown { first_undecided; feasible_at = Some f } ->
        Alcotest.(check bool) "undecided below the optimum" true
          (start <= first_undecided && first_undecided < opt);
        Alcotest.(check bool) "feasible at or above the optimum" true (opt <= f)
      | _ -> find_budget (b * 2)
  in
  find_budget 1

let test_certify_start_above_max_ii () =
  (* RecMII 3: with max_ii 2 no II is tried, so the verdict is a
     vacuous Infeasible with nothing in per_ii and no solver work *)
  let g = small_loop 3 1 in
  let cgra = Cgra.make ~rows:4 ~cols:4 () in
  let r = Exact.certify ~max_ii:2 cgra g in
  Alcotest.(check int) "start II" 3 r.Exact.start_ii;
  Alcotest.(check bool) "infeasible" true (r.Exact.verdict = Exact.Infeasible);
  Alcotest.(check int) "no II tried" 0 (List.length r.Exact.per_ii);
  Alcotest.(check int) "no conflicts" 0 r.Exact.conflicts

(* Algorithm 1 gives the same labels, at any II, whether the domain's
   analysis entry already holds the graph (warm) or another graph was
   analysed last (cold). *)
let labels_agree g =
  let other, _, _, _ = Test_dfg.acc_loop () in
  List.for_all
    (fun ii ->
      let label () = Labeling.label g ~cgra ~tiles:all_tiles ~ii in
      ignore (Analysis.recurrences g);
      let warm = label () in
      ignore (Analysis.recurrences other);
      warm = label ())
    [ 1; 2; 4; 8 ]

let test_labeling_recurrences_table1 () =
  List.iter
    (fun (name, g) -> Alcotest.(check bool) (name ^ " labels") true (labels_agree g))
    (Test_dfg.table1_graphs ())

let prop_labeling_recurrences_random_loops =
  QCheck.Test.make ~name:"labeling: given recurrences, random loops" ~count:100
    (QCheck.make Test_dfg.random_loop_gen) (fun input ->
      labels_agree (fst (Test_dfg.build_random_loop input)))

(* ---------------- Greedy placer candidates ---------------- *)

(* Draining the greedy placer's candidates yields each FU-free slot of
   each tile's window exactly once.  Reserving every popped slot (its
   FU plus one routed hop) and rolling it back before the next pop, as
   a failed candidate is, leaves the drain unchanged.  Checked for the
   next node after every prefix of the placement order that places. *)
let test_candidate_drain () =
  let module Mrrg = Iced_mrrg.Mrrg in
  let check_next state what node =
    let dfg = state.Engine.dfg and mrrg = state.Engine.mrrg and ii = state.Engine.ii in
    let tiles =
      if Op.needs_memory (Graph.node dfg node).op then state.Engine.memory_tiles
      else state.Engine.tiles
    in
    let expected =
      List.concat_map
        (fun tile ->
          let { Engine.est; lst } = Engine.time_window state node tile in
          List.filter_map
            (fun time -> if Mrrg.is_free mrrg ~tile ~time Mrrg.Fu then Some (tile, time) else None)
            (List.init (max 0 (min (est + ii - 1) lst - est + 1)) (fun i -> est + i)))
        tiles
    in
    let drain between =
      Engine.collect_candidates state node tiles;
      let rec go acc =
        match Engine.pop_candidate state with
        | None -> List.rev acc
        | Some slot ->
          between slot;
          go (slot :: acc)
      in
      go []
    in
    let plain = drain ignore in
    let what = Printf.sprintf "%s n%d" what node in
    Alcotest.(check (list (pair int int)))
      (what ^ ": every free slot once") (List.sort compare expected) (List.sort compare plain);
    let edge = List.hd (Graph.predecessors dfg node @ Graph.successors dfg node) in
    (* what a failed candidate does: claim the FU and a hop out of the
       tile, route the incident edges (pricing hops against that
       occupancy), then release it all *)
    let reserve_and_undo (tile, time) =
      match Engine.reserve_fu state node tile time with
      | Error _ -> ()
      | Ok () ->
        let hop =
          List.find_map
            (fun dir ->
              if
                Cgra.neighbor state.Engine.req.Engine.cgra tile dir <> None
                && Mrrg.is_free mrrg ~tile ~time:(time + 1) (Mrrg.Port dir)
              then Some { Mapping.tile; dir; time = time + 1 }
              else None)
            Dir.all
        in
        Option.iter
          (fun (h : Mapping.hop) ->
            match
              Mrrg.reserve mrrg ~tile ~time:h.time (Mrrg.Port h.dir)
                (Mrrg.Route { src = edge.Graph.src; dst = edge.Graph.dst })
            with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg)
          hop;
        (match Engine.route_incident state node tile time with
        | Ok routes ->
          List.iter (fun (r : Mapping.route) -> Router.release mrrg r.hops r.edge) routes
        | Error _ -> ());
        Option.iter (fun h -> Router.release mrrg [ h ] edge) hop;
        Engine.release_fu state tile time
    in
    Alcotest.(check (list (pair int int)))
      (what ^ ": rollback leaves the drain unchanged") plain (drain reserve_and_undo);
    plain <> []
  in
  List.iter
    (fun (name, req, margin) ->
      let k = Option.get (Iced_kernels.Registry.by_name name) in
      let ii =
        match Mapper.map req k.dfg with Ok m -> m.Mapping.ii | Error msg -> Alcotest.fail msg
      in
      let state, order = Mapper.attempt req k.dfg ~ii ~margin in
      let rec walk checked = function
        | [] -> checked
        | node :: rest ->
          let nonempty = check_next state name node in
          (match Greedy.place_node ~route:true state node with
          | Ok () -> walk (checked + if nonempty then 1 else 0) rest
          | Error _ -> checked)
      in
      Alcotest.(check bool) (name ^ ": some drain is not empty") true (walk 0 order > 0))
    [
      ("fir", Mapper.request ~strategy:Mapper.Dvfs_aware cgra, List.hd Cost.asap_margins);
      ("fft", Mapper.request ~strategy:Mapper.Dvfs_aware cgra, List.hd Cost.asap_margins);
      ("latnrm", Mapper.request ~strategy:Mapper.Dvfs_aware cgra, List.hd Cost.asap_margins);
      ( "fir",
        Mapper.request ~strategy:Mapper.Dvfs_aware ~commit_islands:true
          (Cgra.make ~rows:8 ~cols:8 ()),
        List.hd Cost.committed_margins );
    ]

(* Mapper.map tries one congestion margin per II when the estimate
   ignores it, so uses_margin must say exactly whether two margins of
   the ladders can give different start times.  fft is the Table I
   kernel without a dependent recurrence cycle. *)
let test_estimate_uses_margin () =
  let module Estimate = Iced_mapper.Estimate in
  let module Cost = Iced_mapper.Cost in
  List.iter
    (fun (k : Iced_kernels.Kernel.t) ->
      List.iter
        (fun factor ->
          let g = Iced_kernels.Kernel.dfg_at k ~factor in
          let plan =
            Estimate.plan g ~cycles:(Analysis.recurrence_cycles g)
              ~topo:(Option.get (Graph.intra_topological g))
          in
          let starts margin =
            let est = Estimate.build plan ~ii:4 ~margin in
            List.map (Estimate.start est) (Graph.node_ids g)
          in
          let margins = Cost.asap_margins @ Cost.committed_margins in
          let moved = List.exists (fun m -> starts m <> starts (List.hd margins)) margins in
          Alcotest.(check bool)
            (Printf.sprintf "%s uf%d" k.name factor)
            moved (Estimate.uses_margin plan);
          if k.name = "fft" then
            Alcotest.(check bool) (Printf.sprintf "fft uf%d ignores the margin" factor) false moved)
        [ 1; 2 ])
    Iced_kernels.Registry.all

(* ---------------- Labeling plan and pass ---------------- *)

(* Algorithm 1 as it was written before the plan/pass split: a label
   table folded four times per grey node and a slack looked up with
   [List.assoc] inside the sort comparator.  Kept as the reference the
   linear pass must reproduce. *)
let rec raise_floor level = function
  | 0 -> level
  | n -> raise_floor (Dvfs.step_up level) (n - 1)

(* [floor] is the floor after the guard band, [raise_floor floor guard] *)
let quadratic_label ~floor ~recurrences g ~cgra ~tiles ~ii =
  let slots_of_level = Dvfs.multiplier in
  let clamp level = if Dvfs.at_most level floor then floor else level in
  let { Analysis.critical; secondary; _ } = recurrences in
  let labels = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace labels id Dvfs.Normal) critical;
  List.iter
    (fun id -> if not (Hashtbl.mem labels id) then Hashtbl.replace labels id (clamp Dvfs.Relax))
    secondary;
  let total_slots = List.length tiles * ii in
  let tiles_per_island = cgra.Cgra.island_rows * cgra.Cgra.island_cols in
  let islands_total =
    List.sort_uniq compare (List.map (Cgra.island_of cgra) tiles) |> List.length
  in
  let slots_used () = Hashtbl.fold (fun _ level acc -> acc + slots_of_level level) labels 0 in
  let slots_at level =
    Hashtbl.fold (fun _ l acc -> if l = level then acc + slots_of_level l else acc) labels 0
  in
  let islands_for level =
    let slots = slots_at level in
    let island_slots = tiles_per_island * ii in
    (slots + island_slots - 1) / island_slots
  in
  let slack =
    let asap = Analysis.asap g and alap = Analysis.alap g in
    fun id -> List.assoc id alap - List.assoc id asap
  in
  let grey =
    Graph.node_ids g
    |> List.filter (fun id -> not (Hashtbl.mem labels id))
    |> List.sort (fun a b -> compare (slack b, a) (slack a, b))
  in
  List.iter
    (fun id ->
      let rest_islands_available =
        islands_total - islands_for Dvfs.Normal - islands_for Dvfs.Relax
        - islands_for Dvfs.Rest
      in
      let used = slots_used () in
      let level =
        if
          Dvfs.at_most floor Dvfs.Rest && rest_islands_available > 0
          && used + slots_of_level Dvfs.Rest <= total_slots
        then Dvfs.Rest
        else if used + slots_of_level Dvfs.Relax <= total_slots then clamp Dvfs.Relax
        else Dvfs.Normal
      in
      Hashtbl.replace labels id level)
    grey;
  List.map (fun id -> (id, Hashtbl.find labels id)) (Graph.node_ids g)

(* Every Table I kernel and two synthetic ones at unroll 1 and 2, under
   every floor and guard 0-2, on the first 1-9 islands of the 6x6
   prototype and of its per-tile-island variant, at II 1-12: {!Labeling.label}
   (a plan and one pass) gives the quadratic reference's labels.  The
   reference sees the floor and guard only through the raised floor, so
   it runs once per raised floor. *)
let test_labeling_plan_matches_quadratic () =
  let kernels =
    Iced_kernels.Registry.all
    @ List.map (fun n -> Option.get (Iced_kernels.Registry.by_name n)) [ "rand40x1"; "rand60x2" ]
  in
  let fabrics = [ ("6x6", cgra); ("per-tile", Cgra.per_tile cgra) ] in
  let cases = ref 0 in
  List.iter
    (fun (k : Iced_kernels.Kernel.t) ->
      List.iter
        (fun factor ->
          let g = Iced_kernels.Kernel.dfg_at k ~factor in
          let recurrences = Analysis.recurrences g in
          List.iter
            (fun (fabric_name, fabric) ->
              for islands = 1 to 9 do
                let tiles =
                  List.concat_map (Cgra.island_tiles fabric) (List.init islands Fun.id)
                in
                for ii = 1 to 12 do
                  let reference =
                    List.map
                      (fun floor ->
                        (floor, quadratic_label ~floor ~recurrences g ~cgra:fabric ~tiles ~ii))
                      [ Dvfs.Rest; Dvfs.Relax; Dvfs.Normal ]
                  in
                  List.iter
                    (fun floor ->
                      for guard = 0 to 2 do
                        incr cases;
                        if
                          Labeling.label ~floor ~guard g ~cgra:fabric ~tiles ~ii
                          <> List.assoc (raise_floor floor guard) reference
                        then
                          Alcotest.failf "%s uf%d on %d %s islands, floor %s, guard %d, II %d"
                            k.name factor islands fabric_name (Dvfs.to_string floor) guard ii
                      done)
                    [ Dvfs.Rest; Dvfs.Relax; Dvfs.Normal ]
                done
              done)
            fabrics)
        [ 1; 2 ])
    kernels;
  Alcotest.(check int) "cases" (List.length kernels * 2 * 2 * 9 * 3 * 3 * 12) !cases

(* ---------------- Validate on unslotted and off-fabric nodes ---------------- *)

(* A node at a negative time has no modulo slot and a node past the
   last tile no island: Validate.check reports both as errors instead
   of raising from the MRRG or the level check.  The off-fabric node is
   on fir's critical cycle, where the level check looks its island up.
   Hops and a non-positive II are reported the same way. *)
let test_validate_unslotted_and_off_fabric () =
  let m = Levels.assign (map_kernel fir) in
  let critical = List.hd (Analysis.critical_nodes fir.dfg) in
  let other =
    List.find (fun id -> id <> critical) (List.map fst m.Mapping.placements)
  in
  let past = Cgra.tile_count cgra in
  let move moves =
    {
      m with
      Mapping.placements =
        List.map
          (fun (id, p) -> (id, match List.assoc_opt id moves with Some f -> f p | None -> p))
          m.Mapping.placements;
    }
  in
  let early (tile, _) = (tile, -1) and off (_, time) = (past, time) in
  let negative id = Printf.sprintf "node n%d scheduled at negative time -1" id in
  let disallowed id = Printf.sprintf "node n%d on disallowed tile %d" id past in
  let expect what m wanted =
    match Validate.check m with
    | Ok () -> Alcotest.failf "%s must be rejected" what
    | Error msgs ->
      List.iter
        (fun msg -> Alcotest.(check bool) (what ^ ": " ^ msg) true (List.mem msg msgs))
        wanted
    | exception e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
  in
  expect "t = -1" (move [ (other, early) ]) [ negative other ];
  expect "past the last tile" (move [ (critical, off) ]) [ disallowed critical ];
  expect "both" (move [ (other, early); (critical, off) ]) [ negative other; disallowed critical ];
  expect "II 0" { m with Mapping.ii = 0 } [ "non-positive II 0" ];
  (* the same two faults on a route's first hop *)
  let r = List.find (fun (r : Mapping.route) -> r.hops <> []) m.Mapping.routes in
  let first_hop f =
    {
      m with
      Mapping.routes =
        List.map
          (fun (r' : Mapping.route) ->
            if r' == r then { r with hops = f (List.hd r.hops) :: List.tl r.hops } else r')
          m.Mapping.routes;
    }
  in
  let hop what = Printf.sprintf "edge n%d->n%d: %s" r.edge.src r.edge.dst what in
  expect "hop at t = -1" (first_hop (fun h -> { h with time = -1 })) [ hop "hop at negative time -1" ];
  expect "hop past the last tile"
    (first_hop (fun h -> { h with tile = past }))
    [ hop (Printf.sprintf "hop on tile %d off the fabric" past) ]

(* A node past the last tile belongs to no island.  On fir's critical
   cycle, level assignment counts its events at the base clock instead
   of raising, and validation reports the node. *)
let test_levels_off_fabric () =
  let m = map_kernel fir in
  let critical = List.hd (Analysis.critical_nodes fir.dfg) in
  let past = Cgra.tile_count cgra in
  let m =
    {
      m with
      Mapping.placements =
        List.map
          (fun (id, (tile, time)) -> (id, ((if id = critical then past else tile), time)))
          m.Mapping.placements;
    }
  in
  let assigned =
    match Levels.assign m with
    | assigned -> assigned
    | exception e -> Alcotest.failf "Levels.assign raised %s" (Printexc.to_string e)
  in
  Alcotest.(check int) "every island assigned" (Cgra.island_count cgra)
    (List.length assigned.Mapping.island_levels);
  match Validate.check assigned with
  | Ok () -> Alcotest.fail "the off-fabric node must be reported"
  | Error msgs ->
    let disallowed = Printf.sprintf "node n%d on disallowed tile %d" critical past in
    Alcotest.(check bool) disallowed true (List.mem disallowed msgs)

let suite =
  [
    ("labeling: critical nodes normal", `Quick, test_labeling_critical_normal);
    ("labeling: secondary cycles relax", `Quick, test_labeling_secondary_relax);
    ("labeling: grey nodes rest", `Quick, test_labeling_grey_rest);
    ("labeling: floor respected", `Quick, test_labeling_floor);
    ("labeling: covers every node", `Quick, test_labeling_every_node);
    ("labeling: invalid input", `Quick, test_labeling_invalid);
    ("router: same tile", `Quick, test_router_same_tile);
    ("router: neighbor hop", `Quick, test_router_neighbor);
    ("router: impossible deadline", `Quick, test_router_deadline_too_tight);
    ("router: failure reserves nothing", `Quick, test_router_failure_reserves_nothing);
    ("map: fir at II=4", `Quick, test_map_fir_ii);
    ("map: all kernels, all strategies", `Slow, test_map_all_kernels_all_strategies);
    ("map: iced II <= conventional II", `Slow, test_map_iced_matches_baseline_ii);
    ("map: memory ops on SPM column", `Quick, test_map_memory_constraint);
    ("map: empty DFG rejected", `Quick, test_map_empty_dfg);
    ("map: sub-fabric", `Quick, test_map_sub_fabric);
    ("map: committed islands", `Quick, test_map_commit_islands);
    ("levels: all normal legal", `Quick, test_levels_all_normal_legal);
    ("levels: gating only idle islands", `Quick, test_levels_gating_only_idle);
    ("levels: assignment sound for all kernels", `Slow, test_levels_assign_sound);
    ("levels: floor respected", `Quick, test_levels_assign_floor);
    ("levels: illegal lowering detected", `Quick, test_levels_illegal_detected);
    ("validate: double booking", `Quick, test_validate_detects_conflict);
    ("validate: missing placement", `Quick, test_validate_detects_missing_placement);
    ("validate: broken route", `Quick, test_validate_detects_broken_route);
    ("floorplan: renders every cycle", `Quick, test_floorplan_renders);
    ("floorplan: level map", `Quick, test_floorplan_level_map);
    ("exact: heuristic matches optimum", `Slow, test_heuristic_matches_exact);
    ("exact: heuristic optimal on random loops", `Slow, test_heuristic_optimal_on_random_loops);
    ("exact: resource-bound II", `Quick, test_exact_resource_bound);
    ("exact: empty graph", `Quick, test_exact_empty);
    ("certify: unknown brackets optimum", `Quick, test_certify_unknown_brackets_optimum);
    ("certify: finds RecMII with valid witness", `Quick, test_certify_finds_recmii);
    ("certify: deterministic report", `Quick, test_certify_deterministic);
    ("certify: zero budget is all-unknown", `Quick,
     test_certify_budget_reports_first_undecided);
    ("certify: max-ii below the lower bound tries no II", `Quick,
     test_certify_start_above_max_ii);
    ("certify: a heuristic mapping at the lower bound builds no CNF", `Quick,
     test_certify_heuristic_at_bound);
    ("certify: SAT finds what the heuristic misses", `Quick,
     test_certify_sat_below_heuristic);
    QCheck_alcotest.to_alcotest test_certify_witness_roundtrip;
    ("bitstream: covers the schedule", `Quick, test_bitstream_covers_schedule);
    ("bitstream: encode/decode roundtrip", `Quick, test_bitstream_roundtrip);
    ("bitstream: size accounting", `Quick, test_bitstream_size);
    ("labeling: given recurrences, Table I uf1 and uf2", `Quick,
     test_labeling_recurrences_table1);
    QCheck_alcotest.to_alcotest prop_labeling_recurrences_random_loops;
    ("greedy: candidate drain and rollback", `Quick, test_candidate_drain);
    ("estimate: uses_margin iff a margin moves a start", `Quick, test_estimate_uses_margin);
    ("labeling: plan and pass match the quadratic reference", `Slow,
     test_labeling_plan_matches_quadratic);
    ("validate: unslotted and off-fabric nodes are errors", `Quick,
     test_validate_unslotted_and_off_fabric);
    ("levels: an off-fabric critical node is assigned, not raised", `Quick,
     test_levels_off_fabric);
    ("encode: narrow windows follow the ancestry rule", `Quick, test_encode_windows);
    ("certify: no backend beats a verdict on seeded graphs", `Slow,
     test_certify_sound_on_synthetic);
    ("encode: assume pins a placement", `Quick, test_encode_assume);
  ]
