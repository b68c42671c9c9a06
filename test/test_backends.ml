(* Tests for the pluggable placement/routing backends: preset name
   round-trips, default-backend byte identity, simulated-annealing
   determinism, Pathfinder congestion-free commits, and a property
   pinning that every backend's output validates. *)

open Iced_arch
open Iced_dfg
open Iced_mapper

let cgra = Cgra.iced_6x6
let fir = Option.get (Iced_kernels.Registry.by_name "fir")

let render (m : Mapping.t) = Format.asprintf "%a" Mapping.pp m

let map_with backend (k : Iced_kernels.Kernel.t) =
  Mapper.map (Mapper.request ~backend cgra) k.dfg

(* ---------------- preset names ---------------- *)

let test_name_roundtrip () =
  List.iter
    (fun b ->
      match Backend.of_string (Backend.to_string b) with
      | Ok b' ->
        Alcotest.(check string)
          (Backend.to_string b ^ " round-trips")
          (Backend.to_string b) (Backend.to_string b')
      | Error msg -> Alcotest.fail msg)
    [ Backend.default; Backend.sa; Backend.pathfinder; Backend.Sa 7; Backend.Sa 0 ];
  List.iter
    (fun name ->
      match Backend.of_string name with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" name)
      | Error _ -> ())
    [ ""; "greedy"; "sa:"; "sa:x"; "sa:-1"; "pathfinder:3"; "Default"; "sa+dijkstra:3";
      "sa+dijkstra:0" ]

let test_preset_names_parse () =
  List.iter
    (fun name ->
      match Backend.of_string name with
      | Ok b -> Alcotest.(check string) name name (Backend.to_string b)
      | Error msg -> Alcotest.fail msg)
    Backend.names

(* ---------------- default backend is the implicit one -------------- *)

let test_default_backend_identity () =
  let implicit = Mapper.map_exn (Mapper.request cgra) fir.dfg in
  let explicit = Mapper.map_exn (Mapper.request ~backend:Backend.default cgra) fir.dfg in
  Alcotest.(check string) "explicit default = implicit" (render implicit)
    (render explicit)

(* ---------------- SA determinism ---------------- *)

let test_sa_same_seed_deterministic () =
  match (map_with (Backend.Sa 11) fir, map_with (Backend.Sa 11) fir) with
  | Ok a, Ok b -> Alcotest.(check string) "same seed, same bytes" (render a) (render b)
  | Error msg, _ | _, Error msg -> Alcotest.fail msg

let test_sa_seeds_explore_differently () =
  (* equal seeds must agree (above); distinct seeds must at least walk
     a different move stream — visible in the mapping bytes or in the
     accept/reject telemetry *)
  let run seed =
    let stats = Mapper.create_stats () in
    match Mapper.map ~stats (Mapper.request ~backend:(Backend.Sa seed) cgra) fir.dfg with
    | Ok m -> (render m, stats.Telemetry.sa_moves_accepted, stats.Telemetry.sa_moves_rejected)
    | Error msg -> Alcotest.fail msg
  in
  let r1, a1, j1 = run 1 and r2, a2, j2 = run 2 in
  Alcotest.(check bool) "seeds 1 and 2 diverge" true
    (r1 <> r2 || a1 <> a2 || j1 <> j2)

let test_sa_counters_populate () =
  let stats = Mapper.create_stats () in
  (match Mapper.map ~stats (Mapper.request ~backend:Backend.sa cgra) fir.dfg with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "sa moves counted" true
    (stats.Telemetry.sa_moves_accepted + stats.Telemetry.sa_moves_rejected > 0);
  Alcotest.(check bool) "temperature steps counted" true (stats.Telemetry.sa_temp_steps > 0)

(* ---------------- Pathfinder ---------------- *)

let test_pathfinder_validates () =
  List.iter
    (fun name ->
      let k = Option.get (Iced_kernels.Registry.by_name name) in
      match map_with Backend.pathfinder k with
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
      | Ok m -> (
        let m = Levels.assign m in
        match Validate.check m with
        | Ok () -> ()
        | Error es ->
          Alcotest.fail
            (Printf.sprintf "%s: residual conflict after negotiation: %s" name
               (String.concat "; " es))))
    [ "fir"; "latnrm"; "fft" ]

let test_pathfinder_counters_populate () =
  let stats = Mapper.create_stats () in
  (match Mapper.map ~stats (Mapper.request ~backend:Backend.pathfinder cgra) fir.dfg with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "negotiation rounds counted" true (stats.Telemetry.pf_rounds > 0)

(* Negotiate a placement made by hand on a 3x3 fabric at II 1, as the
   decoupled backends do: each [(node, tile, time)] has its FU reserved
   and is placed, then the island levels are rebuilt.  At II 1 corner
   tile 0 has two output-port slots (east, south).  A producer there at
   time 0 reaches neighbours 1 and 3 by a consumer at time 2 and tile 4,
   two hops away, by one at time 3, so each edge can be routed on its
   own and only port capacity can refute the placement. *)
let negotiate dfg placed =
  let state, _ =
    Mapper.attempt (Mapper.request (Cgra.make ~rows:3 ~cols:3 ())) dfg ~ii:1
      ~margin:(List.hd Cost.asap_margins)
  in
  List.iter
    (fun (node, tile, time) ->
      (match Engine.reserve_fu state node tile time with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Engine.place state node tile time)
    placed;
  Engine.rebuild_island_levels state;
  let result = Pathfinder.route_all state in
  (result, state.Engine.stats)

(* [producers] nodes each feeding every one of [consumers] nodes; ids
   run producers first. *)
let bipartite ~producers ~consumers =
  let add g n =
    List.fold_left_map (fun g _ -> Graph.add_node g Op.Add) g (List.init n Fun.id)
  in
  let g, srcs = add Graph.empty producers in
  let g, dsts = add g consumers in
  List.fold_left
    (fun g src -> List.fold_left (fun g dst -> Graph.add_edge g src dst) g dsts)
    g srcs

let check_refuted what expected (result, (stats : Mapper.stats)) =
  (match result with
  | Error msg -> Alcotest.(check string) (what ^ ": message") expected msg
  | Ok () -> Alcotest.fail (what ^ ": negotiation committed"));
  Alcotest.(check int) (what ^ ": no round") 0 stats.Telemetry.pf_rounds;
  Alcotest.(check int) (what ^ ": no route call") 0 stats.Telemetry.route_calls

let test_pathfinder_refutes_output_side () =
  check_refuted "three routes out of corner tile 0"
    "pathfinder: 3 routes must leave tile 0 through 2 free output-port slots at II=1"
    (negotiate
       (bipartite ~producers:1 ~consumers:3)
       [ (0, 0, 0); (1, 1, 2); (2, 3, 2); (3, 4, 3) ])

let test_pathfinder_at_capacity_commits () =
  let result, stats =
    negotiate (bipartite ~producers:1 ~consumers:2) [ (0, 0, 0); (1, 1, 2); (2, 3, 2) ]
  in
  (match result with Ok () -> () | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "one round" 1 stats.Telemetry.pf_rounds;
  Alcotest.(check int) "one route call per edge" 2 stats.Telemetry.route_calls

(* ---------------- property: every backend's output validates ------- *)

let prop_all_backends_validate =
  QCheck.Test.make ~name:"all backends map and validate random loops" ~count:15
    QCheck.(pair (3 -- 8) small_nat)
    (fun (n, seed) ->
      let rng = Iced_util.Rng.create seed in
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
      let g = Graph.add_edge ~distance:1 g (List.hd nodes) phi in
      List.for_all
        (fun backend ->
          match Mapper.map (Mapper.request ~backend cgra) g with
          | Error _ -> false
          | Ok m -> (
            match Validate.check (Levels.assign m) with Ok () -> true | Error _ -> false))
        [ Backend.default; Backend.sa; Backend.pathfinder ])

let suite =
  [
    ("backend: preset names parse", `Quick, test_preset_names_parse);
    ("backend: name round-trip + rejects", `Quick, test_name_roundtrip);
    ("backend: explicit default is the implicit pair", `Quick, test_default_backend_identity);
    ("sa: same seed, byte-identical mapping", `Quick, test_sa_same_seed_deterministic);
    ("sa: distinct seeds explore differently", `Quick, test_sa_seeds_explore_differently);
    ("sa: telemetry counters populate", `Quick, test_sa_counters_populate);
    ("pathfinder: zero residual congestion", `Slow, test_pathfinder_validates);
    ("pathfinder: telemetry counters populate", `Quick, test_pathfinder_counters_populate);
    ("pathfinder: port-starved output refuted", `Quick, test_pathfinder_refutes_output_side);
    ("pathfinder: at port capacity, one round", `Quick, test_pathfinder_at_capacity_commits);
    QCheck_alcotest.to_alcotest prop_all_backends_validate;
  ]
