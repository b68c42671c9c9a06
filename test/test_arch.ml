(* Tests for Iced_arch: DVFS levels and CGRA geometry. *)

open Iced_arch

(* ---------------- Dvfs ---------------- *)

let test_dvfs_multipliers () =
  Alcotest.(check int) "normal" 1 (Dvfs.multiplier Dvfs.Normal);
  Alcotest.(check int) "relax" 2 (Dvfs.multiplier Dvfs.Relax);
  Alcotest.(check int) "rest" 4 (Dvfs.multiplier Dvfs.Rest);
  Alcotest.check_raises "gated"
    (Invalid_argument "Dvfs.multiplier: power-gated island has no clock") (fun () ->
      ignore (Dvfs.multiplier Dvfs.Power_gated))

let test_dvfs_frequency_relationship () =
  (* Eq. 1: f_normal = 2 f_relax = 4 f_rest *)
  Alcotest.(check (float 1e-9)) "2x relax" (Dvfs.frequency_mhz Dvfs.Normal)
    (2.0 *. Dvfs.frequency_mhz Dvfs.Relax);
  Alcotest.(check (float 1e-9)) "4x rest" (Dvfs.frequency_mhz Dvfs.Normal)
    (4.0 *. Dvfs.frequency_mhz Dvfs.Rest)

let test_dvfs_voltages () =
  Alcotest.(check (float 1e-9)) "normal V" 0.70 (Dvfs.voltage Dvfs.Normal);
  Alcotest.(check (float 1e-9)) "relax V" 0.50 (Dvfs.voltage Dvfs.Relax);
  Alcotest.(check (float 1e-9)) "rest V" 0.42 (Dvfs.voltage Dvfs.Rest)

let test_dvfs_fractions () =
  Alcotest.(check (float 1e-9)) "gated" 0.0 (Dvfs.fraction Dvfs.Power_gated);
  Alcotest.(check (float 1e-9)) "rest" 0.25 (Dvfs.fraction Dvfs.Rest);
  Alcotest.(check (float 1e-9)) "relax" 0.5 (Dvfs.fraction Dvfs.Relax);
  Alcotest.(check (float 1e-9)) "normal" 1.0 (Dvfs.fraction Dvfs.Normal)

let test_dvfs_steps () =
  Alcotest.(check bool) "up saturates" true (Dvfs.step_up Dvfs.Normal = Dvfs.Normal);
  Alcotest.(check bool) "gated wakes" true (Dvfs.step_up Dvfs.Power_gated = Dvfs.Rest);
  Alcotest.(check bool) "down floors at rest" true (Dvfs.step_down Dvfs.Rest = Dvfs.Rest);
  Alcotest.(check bool) "down with floor relax" true
    (Dvfs.step_down ~floor:Dvfs.Relax Dvfs.Relax = Dvfs.Relax);
  Alcotest.(check bool) "normal steps to relax" true (Dvfs.step_down Dvfs.Normal = Dvfs.Relax)

let test_dvfs_ordering () =
  Alcotest.(check bool) "normal fastest" true (Dvfs.faster Dvfs.Normal Dvfs.Relax);
  Alcotest.(check bool) "at_most reflexive" true (Dvfs.at_most Dvfs.Rest Dvfs.Rest);
  Alcotest.(check bool) "rest at_most normal" true (Dvfs.at_most Dvfs.Rest Dvfs.Normal);
  Alcotest.(check bool) "ordered list" true
    (List.sort Dvfs.compare [ Dvfs.Normal; Dvfs.Power_gated; Dvfs.Relax; Dvfs.Rest ]
    = [ Dvfs.Power_gated; Dvfs.Rest; Dvfs.Relax; Dvfs.Normal ])

let test_dvfs_of_multiplier () =
  List.iter
    (fun level ->
      Alcotest.(check bool)
        (Dvfs.to_string level) true
        (Dvfs.of_multiplier (Dvfs.multiplier level) = Some level))
    Dvfs.active;
  Alcotest.(check bool) "3 invalid" true (Dvfs.of_multiplier 3 = None)

let prop_of_multiplier_roundtrip =
  QCheck.Test.make ~name:"of_multiplier inverts multiplier" ~count:200
    QCheck.(int_range (-8) 16)
    (fun n ->
      match Dvfs.of_multiplier n with
      | Some level -> Dvfs.multiplier level = n
      | None -> not (List.mem n [ 1; 2; 4 ]))

let test_dvfs_step_down_never_gates () =
  (* even with the floor opened all the way to Power_gated, stepping
     an active island down saturates at Rest: gating is an explicit
     allocation decision, never a DVFS step *)
  List.iter
    (fun level ->
      Alcotest.(check bool)
        (Dvfs.to_string level ^ " stays active")
        true
        (Dvfs.is_active (Dvfs.step_down ~floor:Dvfs.Power_gated level)))
    Dvfs.active;
  Alcotest.(check bool) "gated stays gated" true
    (Dvfs.step_down ~floor:Dvfs.Power_gated Dvfs.Power_gated = Dvfs.Power_gated)

(* ---------------- Cgra ---------------- *)

let cgra = Cgra.iced_6x6

let test_cgra_prototype () =
  Alcotest.(check int) "36 tiles" 36 (Cgra.tile_count cgra);
  Alcotest.(check int) "9 islands" 9 (Cgra.island_count cgra);
  Alcotest.(check int) "8 banks" 8 cgra.Cgra.spm_banks;
  Alcotest.(check int) "32 KB" 32 cgra.Cgra.spm_kbytes

let test_cgra_invalid () =
  Alcotest.check_raises "zero rows" (Invalid_argument "Cgra.make: non-positive fabric size")
    (fun () -> ignore (Cgra.make ~rows:0 ~cols:4 ()));
  Alcotest.check_raises "island too big"
    (Invalid_argument "Cgra.make: island larger than fabric") (fun () ->
      ignore (Cgra.make ~island:(5, 5) ~rows:4 ~cols:4 ()))

let test_cgra_position_roundtrip () =
  List.iter
    (fun id ->
      let row, col = Cgra.position cgra id in
      Alcotest.(check int) "roundtrip" id (Cgra.tile_id cgra ~row ~col))
    (List.init (Cgra.tile_count cgra) (fun i -> i))

let test_cgra_neighbors_symmetric () =
  List.iter
    (fun id ->
      List.iter
        (fun (dir, n) ->
          match Cgra.neighbor cgra n (Dir.opposite dir) with
          | Some back when back = id -> ()
          | _ -> Alcotest.failf "asymmetric neighbor %d -> %d" id n)
        (Cgra.neighbors cgra id))
    (List.init (Cgra.tile_count cgra) (fun i -> i))

let test_cgra_corner_neighbors () =
  Alcotest.(check int) "corner has 2" 2 (List.length (Cgra.neighbors cgra 0));
  let center = Cgra.tile_id cgra ~row:2 ~col:2 in
  Alcotest.(check int) "center has 4" 4 (List.length (Cgra.neighbors cgra center))

let test_cgra_memory_column () =
  List.iter
    (fun id ->
      let _, col = Cgra.position cgra id in
      Alcotest.(check bool) "col 0 iff memory" (col = 0) (Cgra.has_memory_port cgra id))
    (List.init (Cgra.tile_count cgra) (fun i -> i));
  Alcotest.(check int) "6 memory tiles" 6 (List.length (Cgra.memory_tiles cgra))

let test_cgra_islands_partition () =
  (* every tile belongs to exactly one island and unions cover all *)
  let all =
    List.concat_map (fun island -> Cgra.island_tiles cgra island) (Cgra.islands cgra)
  in
  Alcotest.(check int) "cover" (Cgra.tile_count cgra) (List.length all);
  Alcotest.(check int) "no overlap" (Cgra.tile_count cgra)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun id ->
      Alcotest.(check bool) "consistent" true
        (List.mem id (Cgra.island_tiles cgra (Cgra.island_of cgra id))))
    (List.init (Cgra.tile_count cgra) (fun i -> i))

let test_cgra_island_sizes () =
  List.iter
    (fun island ->
      Alcotest.(check int) "2x2 islands" 4 (List.length (Cgra.island_tiles cgra island)))
    (Cgra.islands cgra)

let test_cgra_irregular_islands () =
  (* 3x3 islands on 8x8: edge islands are smaller *)
  let c = Cgra.make ~island:(3, 3) ~rows:8 ~cols:8 () in
  Alcotest.(check int) "9 islands" 9 (Cgra.island_count c);
  let sizes = List.map (fun i -> List.length (Cgra.island_tiles c i)) (Cgra.islands c) in
  Alcotest.(check int) "total covers" 64 (List.fold_left ( + ) 0 sizes);
  Alcotest.(check bool) "has a 9-tile island" true (List.mem 9 sizes);
  Alcotest.(check bool) "has a 4-tile corner island" true (List.mem 4 sizes)

let test_cgra_per_tile () =
  let pt = Cgra.per_tile cgra in
  Alcotest.(check int) "one island per tile" (Cgra.tile_count cgra) (Cgra.island_count pt)

let test_cgra_manhattan () =
  Alcotest.(check int) "self" 0 (Cgra.manhattan cgra 0 0);
  let a = Cgra.tile_id cgra ~row:0 ~col:0 and b = Cgra.tile_id cgra ~row:3 ~col:4 in
  Alcotest.(check int) "distance" 7 (Cgra.manhattan cgra a b);
  Alcotest.(check int) "symmetric" (Cgra.manhattan cgra a b) (Cgra.manhattan cgra b a)

let test_cgra_restrict () =
  let tiles = Cgra.restrict cgra ~islands:[ 0; 1 ] in
  Alcotest.(check int) "two islands" 8 (List.length tiles);
  List.iter
    (fun id ->
      Alcotest.(check bool) "in requested islands" true
        (List.mem (Cgra.island_of cgra id) [ 0; 1 ]))
    tiles

(* [island_of], [island_tiles] and [manhattan] compute in place; check
   them against the row/col definitions on random fabrics and island
   shapes (edge islands clipped when the shape does not divide the
   fabric), and on the per-tile and reshaped variants. *)
let prop_island_of_in_range =
  QCheck.Test.make ~name:"island_of within island_count" ~count:200
    QCheck.(quad (2 -- 9) (2 -- 9) (1 -- 4) (1 -- 4))
    (fun (rows, cols, island_rows, island_cols) ->
      let base =
        Cgra.make ~island:(min island_rows rows, min island_cols cols) ~rows ~cols ()
      in
      let fabrics =
        [
          base;
          Cgra.per_tile base;
          Cgra.with_island base (min island_cols rows, min island_rows cols);
        ]
      in
      let holds (c : Cgra.t) =
        let ids = List.init (Cgra.tile_count c) Fun.id in
        let grid_cols = (c.cols + c.island_cols - 1) / c.island_cols in
        let island_by_position id =
          let row, col = Cgra.position c id in
          ((row / c.island_rows) * grid_cols) + (col / c.island_cols)
        in
        let island_ok id =
          let island = Cgra.island_of c id in
          island >= 0 && island < Cgra.island_count c && island = island_by_position id
        in
        let tiles_ok island =
          Cgra.island_tiles c island
          = List.filter (fun id -> island_by_position id = island) ids
        in
        let manhattan_ok a b =
          let ra, ca = Cgra.position c a and rb, cb = Cgra.position c b in
          Cgra.manhattan c a b = abs (ra - rb) + abs (ca - cb)
        in
        List.for_all island_ok ids
        && List.for_all tiles_ok (Cgra.islands c)
        && List.for_all (fun a -> List.for_all (manhattan_ok a) ids) ids
      in
      List.for_all holds fabrics)

(* The router's parent codes, the MRRG's and Pathfinder's port slots
   and the bitstream's fields all number directions by [Dir.index]; a
   renumbering would slip past the bitstream round-trip, so pin it. *)
let test_dir_index () =
  Alcotest.(check (list int)) "Dir.all order" [ 0; 1; 2; 3 ] (List.map Dir.index Dir.all);
  List.iter
    (fun d ->
      Alcotest.(check bool) (Dir.to_string d ^ " round-trips") true
        (Dir.of_index (Dir.index d) = d))
    Dir.all;
  List.iter
    (fun i ->
      Alcotest.check_raises (Printf.sprintf "of_index %d" i) (Invalid_argument "Dir.of_index")
        (fun () -> ignore (Dir.of_index i)))
    [ -1; 4 ]

(* The geometry tables equal the arithmetic they stand in for, on
   random fabrics up to [Space.max_side] a side: each tile's row and
   column are [Cgra.position], its neighbour cells list
   [Cgra.neighbors] in [Dir.all] order, [Cgra.hops] is
   [Cgra.manhattan] on every pair, and under every island shape that
   fits, the island cells are [Cgra.island_of]. *)
let prop_geometry_tables =
  let side = Iced_explore.Space.max_side in
  QCheck.Test.make ~name:"cgra geometry tables match the arithmetic" ~count:20
    QCheck.(pair (int_range 1 side) (int_range 1 side))
    (fun (rows, cols) ->
      let cgra = Cgra.make ~island:(1, 1) ~rows ~cols () in
      let g = Cgra.geometry cgra in
      let ids = List.init (Cgra.tile_count cgra) Fun.id in
      let neighbors id =
        List.filter_map
          (fun dir ->
            let next = g.neighbor.((4 * id) + Dir.index dir) in
            if next < 0 then None else Some (dir, next))
          Dir.all
      in
      Array.length g.neighbor = 4 * Cgra.tile_count cgra
      && List.for_all
           (fun id ->
             (g.row.(id), g.col.(id)) = Cgra.position cgra id
             && neighbors id = Cgra.neighbors cgra id
             && List.for_all (fun b -> Cgra.hops g id b = Cgra.manhattan cgra id b) ids)
           ids
      && List.for_all
           (fun island_rows ->
             List.for_all
               (fun island_cols ->
                 let cgra = Cgra.with_island cgra (island_rows, island_cols) in
                 let g = Cgra.geometry cgra in
                 List.for_all (fun id -> g.island.(id) = Cgra.island_of cgra id) ids)
               (List.init cols (fun c -> c + 1)))
           (List.init rows (fun r -> r + 1)))

let suite =
  [
    ("dvfs multipliers", `Quick, test_dvfs_multipliers);
    ("dvfs frequency relationship (Eq. 1)", `Quick, test_dvfs_frequency_relationship);
    ("dvfs voltages", `Quick, test_dvfs_voltages);
    ("dvfs fractions", `Quick, test_dvfs_fractions);
    ("dvfs step up/down", `Quick, test_dvfs_steps);
    ("dvfs ordering", `Quick, test_dvfs_ordering);
    ("dvfs of_multiplier", `Quick, test_dvfs_of_multiplier);
    QCheck_alcotest.to_alcotest prop_of_multiplier_roundtrip;
    ("dvfs step_down never gates", `Quick, test_dvfs_step_down_never_gates);
    ("cgra 6x6 prototype", `Quick, test_cgra_prototype);
    ("cgra invalid configs", `Quick, test_cgra_invalid);
    ("cgra position roundtrip", `Quick, test_cgra_position_roundtrip);
    ("cgra neighbors symmetric", `Quick, test_cgra_neighbors_symmetric);
    ("cgra corner/center degree", `Quick, test_cgra_corner_neighbors);
    ("cgra memory column", `Quick, test_cgra_memory_column);
    ("cgra islands partition tiles", `Quick, test_cgra_islands_partition);
    ("cgra island sizes", `Quick, test_cgra_island_sizes);
    ("cgra irregular 3x3 islands", `Quick, test_cgra_irregular_islands);
    ("cgra per-tile variant", `Quick, test_cgra_per_tile);
    ("cgra manhattan", `Quick, test_cgra_manhattan);
    ("cgra restrict", `Quick, test_cgra_restrict);
    QCheck_alcotest.to_alcotest prop_island_of_in_range;
    ("dir index follows Dir.all", `Quick, test_dir_index);
    QCheck_alcotest.to_alcotest prop_geometry_tables;
  ]
