(* Tests for the modulo routing resource graph. *)

open Iced_arch
module Mrrg = Iced_mrrg.Mrrg

let cgra = Cgra.iced_6x6

let test_create_invalid () =
  Alcotest.check_raises "zero II" (Invalid_argument "Mrrg.create: non-positive II") (fun () ->
      ignore (Mrrg.create cgra ~ii:0));
  Alcotest.check_raises "bad tile" (Invalid_argument "Mrrg.create: unknown tile") (fun () ->
      ignore (Mrrg.create ~tiles:[ 99 ] cgra ~ii:4))

let test_reserve_conflict () =
  let m = Mrrg.create cgra ~ii:4 in
  (match Mrrg.reserve m ~tile:3 ~time:2 Mrrg.Fu (Mrrg.Op_node 7) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "first reserve failed: %s" e);
  (match Mrrg.reserve m ~tile:3 ~time:2 Mrrg.Fu (Mrrg.Op_node 8) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "conflicting reserve must fail");
  Alcotest.(check bool) "occupant visible" true
    (Mrrg.occupant m ~tile:3 ~time:2 Mrrg.Fu = Some (Mrrg.Op_node 7))

let test_modulo_wraparound () =
  let m = Mrrg.create cgra ~ii:4 in
  (match Mrrg.reserve m ~tile:5 ~time:1 Mrrg.Fu (Mrrg.Op_node 1) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reserve: %s" e);
  (* time 5 = slot 1 mod 4: same resource *)
  (match Mrrg.reserve m ~tile:5 ~time:5 Mrrg.Fu (Mrrg.Op_node 2) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "slot 1 and 5 alias at II=4");
  Alcotest.(check bool) "is_free at other slot" true (Mrrg.is_free m ~tile:5 ~time:2 Mrrg.Fu)

let test_idempotent_route () =
  let m = Mrrg.create cgra ~ii:4 in
  let who = Mrrg.Route { src = 1; dst = 2 } in
  (match Mrrg.reserve m ~tile:0 ~time:0 (Mrrg.Port Dir.East) who with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reserve: %s" e);
  (match Mrrg.reserve m ~tile:0 ~time:0 (Mrrg.Port Dir.East) who with
  | Ok () -> ()
  | Error e -> Alcotest.failf "same edge should share the wire: %s" e);
  match Mrrg.reserve m ~tile:0 ~time:0 (Mrrg.Port Dir.East) (Mrrg.Route { src = 1; dst = 3 }) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "different edge must conflict"

let test_ports_independent () =
  let m = Mrrg.create cgra ~ii:4 in
  List.iter
    (fun dir ->
      match Mrrg.reserve m ~tile:7 ~time:0 (Mrrg.Port dir) (Mrrg.Route { src = 0; dst = dir |> Dir.to_string |> String.length }) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "port %s: %s" (Dir.to_string dir) e)
    Dir.all;
  (* FU at the same slot is a separate resource *)
  match Mrrg.reserve m ~tile:7 ~time:0 Mrrg.Fu (Mrrg.Op_node 9) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "fu independent of ports: %s" e

let test_release () =
  let m = Mrrg.create cgra ~ii:4 in
  ignore (Mrrg.reserve m ~tile:2 ~time:3 Mrrg.Fu (Mrrg.Op_node 1));
  Mrrg.release m ~tile:2 ~time:3 Mrrg.Fu;
  Alcotest.(check bool) "free after release" true (Mrrg.is_free m ~tile:2 ~time:3 Mrrg.Fu)

let test_busy_slots () =
  let m = Mrrg.create cgra ~ii:4 in
  ignore (Mrrg.reserve m ~tile:4 ~time:1 Mrrg.Fu (Mrrg.Op_node 1));
  ignore (Mrrg.reserve m ~tile:4 ~time:1 (Mrrg.Port Dir.North) (Mrrg.Route { src = 0; dst = 1 }));
  ignore (Mrrg.reserve m ~tile:4 ~time:3 Mrrg.Fu (Mrrg.Op_node 2));
  Alcotest.(check (list int)) "distinct busy slots" [ 1; 3 ] (Mrrg.busy_slots m ~tile:4);
  Alcotest.(check int) "busy entries" 3 (List.length (Mrrg.busy m ~tile:4));
  Alcotest.(check bool) "tile 5 idle" true (Mrrg.tile_is_idle m 5)

let test_sub_fabric () =
  let tiles = Cgra.restrict cgra ~islands:[ 0 ] in
  let m = Mrrg.create ~tiles cgra ~ii:4 in
  Alcotest.(check int) "4 allowed" 4 (List.length (Mrrg.allowed_tiles m));
  Alcotest.(check bool) "outside not allowed" false (Mrrg.allowed m 35);
  match Mrrg.reserve m ~tile:35 ~time:0 Mrrg.Fu (Mrrg.Op_node 0) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "reserve outside sub-fabric must fail"

let test_clone_independent () =
  let m = Mrrg.create cgra ~ii:4 in
  ignore (Mrrg.reserve m ~tile:1 ~time:0 Mrrg.Fu (Mrrg.Op_node 1));
  let copy = Mrrg.clone m in
  Mrrg.release copy ~tile:1 ~time:0 Mrrg.Fu;
  Alcotest.(check bool) "original untouched" false (Mrrg.is_free m ~tile:1 ~time:0 Mrrg.Fu);
  Alcotest.(check bool) "copy released" true (Mrrg.is_free copy ~tile:1 ~time:0 Mrrg.Fu)

let prop_reserve_release_roundtrip =
  QCheck.Test.make ~name:"reserve/release restores freedom" ~count:200
    QCheck.(triple (0 -- 35) (0 -- 63) (1 -- 12))
    (fun (tile, time, ii) ->
      let m = Mrrg.create cgra ~ii in
      match Mrrg.reserve m ~tile ~time Mrrg.Fu (Mrrg.Op_node 0) with
      | Error _ -> false
      | Ok () ->
        Mrrg.release m ~tile ~time Mrrg.Fu;
        Mrrg.is_free m ~tile ~time Mrrg.Fu)

(* The reference for [Mrrg.island_phase]: scan the island's busy slots
   from scratch, through the public per-tile view. *)
let scanned_phase m island modulo =
  let cgra = Mrrg.cgra m in
  let slots =
    List.concat_map
      (fun tile -> if Mrrg.allowed m tile then Mrrg.busy_slots m ~tile else [])
      (Cgra.island_tiles cgra island)
  in
  match List.sort_uniq compare (List.map (fun s -> s mod modulo) slots) with
  | [] -> `Empty
  | [ p ] -> `Phase p
  | _ -> `Broken

let phases_agree m =
  List.for_all
    (fun island ->
      List.for_all
        (fun modulo -> Mrrg.island_phase m ~island ~modulo = scanned_phase m island modulo)
        [ 2; 4 ])
    (Cgra.islands (Mrrg.cgra m))

(* Random fabrics and random reserve/release sequences over FU and port
   slots: after every step the cached phase of every island equals a
   fresh scan.  Then the original and a clone take diverging steps (the
   clone undoes the sequence, the original replays it one tile over),
   so a cache the two shared would serve one of them the other's
   phase. *)
let prop_island_phase_cache =
  QCheck.Test.make ~name:"cached island phase equals a fresh scan" ~count:300
    QCheck.(
      pair
        (quad (3 -- 7) (3 -- 7) bool (1 -- 8))
        (list_of_size Gen.(1 -- 40) (quad bool small_nat (0 -- 15) (0 -- 4))))
    (fun ((rows, cols, large, ii), steps) ->
      let island = if large then (3, 3) else (2, 2) in
      let cgra = Cgra.make ~island ~rows ~cols () in
      let m = Mrrg.create cgra ~ii in
      let resource = function 0 -> Mrrg.Fu | k -> Mrrg.Port (List.nth Dir.all (k - 1)) in
      let step m (reserve, tile, time, r) =
        let tile = tile mod Cgra.tile_count cgra in
        if reserve then
          ignore (Mrrg.reserve m ~tile ~time (resource r) (Mrrg.Op_node (time mod 3)))
        else Mrrg.release m ~tile ~time (resource r)
      in
      phases_agree m
      && List.for_all
           (fun s ->
             step m s;
             phases_agree m)
           steps
      &&
      let copy = Mrrg.clone m in
      phases_agree copy
      && List.for_all
           (fun (reserve, tile, time, r) ->
             step copy (not reserve, tile, time, r);
             step m (reserve, tile + 1, time, r);
             phases_agree copy && phases_agree m)
           steps)

let suite =
  [
    ("create invalid", `Quick, test_create_invalid);
    ("reserve conflict", `Quick, test_reserve_conflict);
    ("modulo wraparound", `Quick, test_modulo_wraparound);
    ("route sharing idempotent", `Quick, test_idempotent_route);
    ("resources independent", `Quick, test_ports_independent);
    ("release", `Quick, test_release);
    ("busy slots", `Quick, test_busy_slots);
    ("sub-fabric restriction", `Quick, test_sub_fabric);
    ("clone independence", `Quick, test_clone_independent);
    QCheck_alcotest.to_alcotest prop_reserve_release_roundtrip;
    QCheck_alcotest.to_alcotest prop_island_phase_cache;
  ]
