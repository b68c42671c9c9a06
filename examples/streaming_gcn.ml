(* Streaming GCN inference on the ICED CGRA (paper Section IV-B).

   The 2-layer GCN pipeline (compress -> aggregate -> combrelu ->
   aggregate -> combine -> pooling) classifies a stream of 600
   enzyme-like graphs.  The aggregate kernels' work tracks each graph's
   edge count, so the pipeline bottleneck drifts with graph density;
   the DVFS Controller lowers whichever kernels currently have slack.

   Run with:  dune exec examples/streaming_gcn.exe *)

module App = Iced_stream.App
module P = Iced_stream.Pipeline
module Part = Iced_stream.Partition
module R = Iced_stream.Runner

let () =
  let inputs = App.inputs App.Gcn in
  let degree i =
    2.0 *. float_of_int (P.feature i "edges") /. float_of_int (P.feature i "vertices")
  in
  Printf.printf "workload: %d graphs, mean degree %.1f (paper: 600 enzymes, 32.6)\n"
    (List.length inputs)
    (Iced_util.Stats.mean (List.map degree inputs));
  match App.partition App.Gcn inputs with
  | Error msg -> prerr_endline ("partitioning failed: " ^ msg)
  | Ok partition ->
    Printf.printf "partition (9 islands):\n";
    List.iter
      (fun (label, islands) ->
        Printf.printf "  %-12s -> islands [%s], II = %d, floor = %s\n" label
          (String.concat "; " (List.map string_of_int islands))
          (Part.ii_for partition label (List.length islands))
          (Iced_arch.Dvfs.to_string (List.assoc label partition.Part.level_floors)))
      partition.Part.island_ids;
    let run policy = R.run partition policy inputs in
    let static = run R.Static and drips = run R.Drips and iced = run R.Iced_dvfs in
    let table =
      Iced_util.Table.create ~title:"GCN inference over 600 graphs"
        ~columns:[ "policy"; "throughput (graphs/s)"; "avg power (mW)"; "graphs/s/W" ]
    in
    List.iter
      (fun (name, reports) ->
        let t = R.aggregate reports in
        Iced_util.Table.add_row table
          [ name;
            Printf.sprintf "%.0f" t.R.overall_throughput_per_s;
            Printf.sprintf "%.1f" (t.R.total_energy_uj /. t.R.total_time_us *. 1000.0);
            Printf.sprintf "%.0f" t.R.overall_efficiency ])
      [ ("static", static); ("drips", drips); ("iced", iced) ];
    Iced_util.Table.print table;
    let ti = R.aggregate iced and td = R.aggregate drips in
    Printf.printf "ICED / DRIPS energy-efficiency = %.2fx (paper: 1.12x)\n"
      (ti.R.overall_efficiency /. td.R.overall_efficiency);
    (* show the controller chasing the drift across a few windows *)
    Printf.printf "\nper-window DVFS levels (first 6 windows):\n";
    List.iteri
      (fun i (w : R.window_report) ->
        if i < 6 then begin
          Printf.printf "  w%-2d power %6.1f mW  levels:" w.index w.power_mw;
          List.iter
            (fun (label, level) ->
              Printf.printf " %s=%s" label (Iced_arch.Dvfs.to_string level))
            w.levels;
          print_newline ()
        end)
      iced
