(* Streaming LU decomposition on the ICED CGRA.

   Six kernels in four pipeline stages (init -> decompose ->
   solver0 || solver1 -> invert || determinant) process 150 sparse
   matrices.  decompose's work tracks the matrix's non-zeros while the
   triangular solvers are dimension-bound, so dense phases leave the
   solver islands idle — the DVFS Controller lowers them; DRIPS
   instead tries to reshape the partition.

   Run with:  dune exec examples/lu_pipeline.exe *)

module App = Iced_stream.App
module P = Iced_stream.Pipeline
module Part = Iced_stream.Partition
module R = Iced_stream.Runner

let () =
  let inputs = App.inputs App.Lu in
  let densities =
    List.map
      (fun i ->
        let dim = P.feature i "dim" in
        float_of_int (P.feature i "nnz") /. float_of_int (dim * dim))
      inputs
  in
  Printf.printf "workload: %d matrices, density %.2f..%.2f (mean %.2f)\n"
    (List.length inputs)
    (Iced_util.Stats.minimum densities)
    (Iced_util.Stats.maximum densities)
    (Iced_util.Stats.mean densities);
  match App.partition App.Lu inputs with
  | Error msg -> prerr_endline ("partitioning failed: " ^ msg)
  | Ok partition ->
    Printf.printf "partition:\n";
    List.iter
      (fun (label, count) ->
        Printf.printf "  %-12s %d island(s), floor %s\n" label count
          (Iced_arch.Dvfs.to_string (List.assoc label partition.Part.level_floors)))
      partition.Part.allocation;
    let iced = R.run partition R.Iced_dvfs inputs in
    let drips = R.run partition R.Drips inputs in
    let ti = R.aggregate iced and td = R.aggregate drips in
    Printf.printf "\n%-8s %14s %12s %12s\n" "policy" "matrices/s" "power mW" "per-W";
    List.iter
      (fun (name, (t : R.totals)) ->
        Printf.printf "%-8s %14.0f %12.1f %12.0f\n" name t.R.overall_throughput_per_s
          (t.R.total_energy_uj /. t.R.total_time_us *. 1000.0)
          t.R.overall_efficiency)
      [ ("drips", td); ("iced", ti) ];
    Printf.printf "\nICED / DRIPS energy-efficiency = %.2fx (paper: 1.26x)\n"
      (ti.R.overall_efficiency /. td.R.overall_efficiency);
    (* per-window efficiency ratio: the Figure 13 series *)
    Printf.printf "\nper-window efficiency ratio (ICED/DRIPS):\n  ";
    List.iter2
      (fun (a : R.window_report) (b : R.window_report) ->
        Printf.printf "%.2f " (a.R.efficiency /. b.R.efficiency))
      iced drips;
    print_newline ()
