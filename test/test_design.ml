(* Tests for the top-level design-point facade (lib/core) — the same
   entry points the benchmark harness and examples use. *)

module Design = Iced.Design
module Kernel = Iced_kernels.Kernel

let fir = Option.get (Iced_kernels.Registry.by_name "fir")

let test_points_enumeration () =
  Alcotest.(check int) "four design points" 4 (List.length Design.all_points);
  Alcotest.(check int) "distinct names" 4
    (List.length (List.sort_uniq compare (List.map Design.point_to_string Design.all_points)))

let test_evaluate_all_points () =
  List.iter
    (fun point ->
      match Design.evaluate point fir with
      | Error msg -> Alcotest.failf "%s: %s" (Design.point_to_string point) msg
      | Ok e ->
        Alcotest.(check string) "kernel name" "fir" e.Design.kernel;
        Alcotest.(check bool) "II positive" true (e.Design.ii >= 4);
        Alcotest.(check bool) "power positive" true (e.Design.power_mw > 0.0);
        Alcotest.(check bool) "utilization bounded" true
          (e.Design.avg_utilization >= 0.0 && e.Design.avg_utilization <= 1.0))
    Design.all_points

let test_same_performance_across_points () =
  (* the headline claim: no performance loss for 2x2 islands *)
  let ii point =
    match Design.evaluate point fir with
    | Ok e -> e.Design.ii
    | Error msg -> Alcotest.failf "evaluate %s: %s" (Design.point_to_string point) msg
  in
  let baseline = ii Design.Baseline in
  List.iter
    (fun point ->
      Alcotest.(check int)
        (Design.point_to_string point ^ " matches baseline II")
        baseline (ii point))
    Design.all_points

let test_headline_power_order () =
  (* paper Figure 11 shape at uf2, averaged over the kernel suite:
     per-tile > baseline > baseline+pg ~ iced, with iced lowest *)
  let mean point =
    Iced_util.Stats.mean
      (List.filter_map
         (fun k ->
           match Design.evaluate ~unroll:2 point k with
           | Ok e -> Some e.Design.power_mw
           | Error _ -> None)
         Iced_kernels.Registry.standalone)
  in
  let baseline = mean Design.Baseline in
  let per_tile = mean Design.Per_tile in
  let iced = mean Design.Iced in
  Alcotest.(check bool) "per-tile pays its controllers" true (per_tile > baseline);
  Alcotest.(check bool) "iced is the most efficient" true
    (iced < baseline && iced < per_tile)

let test_headline_utilization_gain () =
  (* paper: 0.33 -> 0.76 (2.3x) at uf1; we require at least 1.5x *)
  let mean point =
    Iced_util.Stats.mean
      (List.filter_map
         (fun k ->
           match Design.evaluate point k with
           | Ok e -> Some e.Design.avg_utilization
           | Error _ -> None)
         Iced_kernels.Registry.standalone)
  in
  let gain = mean Design.Iced /. mean Design.Baseline in
  Alcotest.(check bool)
    (Printf.sprintf "utilization gain %.2fx >= 1.5x" gain)
    true (gain >= 1.5)

let test_functional_check () =
  match Design.evaluate Design.Iced fir with
  | Error msg -> Alcotest.failf "evaluate: %s" msg
  | Ok e -> (
    match Design.functional_check fir e.Design.mapping with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "functional check: %s" msg)

let test_unroll_evaluation () =
  match Design.evaluate ~unroll:2 Design.Iced fir with
  | Ok e -> Alcotest.(check int) "records the factor" 2 e.Design.unroll
  | Error msg -> Alcotest.failf "evaluate: %s" msg

let suite =
  [
    ("design points", `Quick, test_points_enumeration);
    ("evaluate all points", `Quick, test_evaluate_all_points);
    ("no performance loss across points", `Quick, test_same_performance_across_points);
    ("figure 11 power ordering", `Slow, test_headline_power_order);
    ("figure 9 utilization gain", `Slow, test_headline_utilization_gain);
    ("functional check end to end", `Quick, test_functional_check);
    ("unroll factor recorded", `Quick, test_unroll_evaluation);
  ]
