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
    | Ok m -> (render m, stats.Mapper.sa_moves_accepted, stats.Mapper.sa_moves_rejected)
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
    (stats.Mapper.sa_moves_accepted + stats.Mapper.sa_moves_rejected > 0);
  Alcotest.(check bool) "temperature steps counted" true (stats.Mapper.sa_temp_steps > 0)

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
  Alcotest.(check bool) "negotiation rounds counted" true (stats.Mapper.pf_rounds > 0)

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
    QCheck_alcotest.to_alcotest prop_all_backends_validate;
  ]
