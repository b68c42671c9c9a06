(* Fault injection and recovery on the streaming LU pipeline.

   A tile of the LU partition dies mid-stream (input 50 of 150) and a
   transient-upset process strikes one island a little later.  The four
   recovery policies react very differently:

   - remap      rebuilds the victim kernel's mapping around the dead
                tile on its own islands (Algorithm 2 with the faulted
                resources masked);
   - gate       powers the whole faulted island off and re-floorplans;
   - raise      pins upset-afflicted kernels at Normal (full voltage
                margin clears voltage-induced upsets) but cannot fix
                dead silicon;
   - fail-stop  loses the rest of the stream — the honest baseline a
                resilience claim must be measured against.

   Run with:  dune exec examples/fault_injection.exe *)

module App = Iced_stream.App
module Part = Iced_stream.Partition
module R = Iced_stream.Runner
module F = Iced_fault.Fault

let () =
  let inputs = App.inputs App.Lu in
  match App.partition App.Lu inputs with
  | Error msg -> prerr_endline ("partitioning failed: " ^ msg)
  | Ok partition ->
    let baseline = R.aggregate (R.run partition R.Iced_dvfs inputs) in
    Printf.printf "fault-free baseline: %.0f matrices/s\n\n"
      baseline.R.overall_throughput_per_s;
    (* aim the upsets at an island the runtime will actually lower:
       voltage-induced upsets only strike below Normal, so a kernel
       pinned at its Normal floor never sees them *)
    let upset_island =
      let slowable =
        List.filter_map
          (fun (label, floor) ->
            if floor = Iced_arch.Dvfs.Rest then
              match List.assoc label partition.Part.island_ids with
              | island :: _ -> Some island
              | [] -> None
            else None)
          partition.Part.level_floors
      in
      match slowable with island :: _ -> island | [] -> 0
    in
    let plan =
      F.make ~seed:11
        [ { F.at_input = 50; fault = F.Tile_dead 0 };
          { F.at_input = 90; fault = F.Upsets { island = upset_island; rate = 1e-3 } } ]
    in
    Format.printf "%a@." F.pp_plan plan;
    Printf.printf "%-10s %10s %8s %9s %8s %11s %10s\n" "recovery" "completed"
      "dropped" "replayed" "mttr us" "matrices/s" "retention";
    List.iter
      (fun recovery ->
        let reports, stats =
          R.run_resilient ~faults:plan ~recovery partition R.Iced_dvfs inputs
        in
        let totals = R.aggregate reports in
        let retention =
          float_of_int stats.R.completed
          /. float_of_int stats.R.offered
          *. Float.min 1.0
               (totals.R.overall_throughput_per_s
               /. baseline.R.overall_throughput_per_s)
        in
        Printf.printf "%-10s %6d/%d %8d %9d %8.2f %11.0f %10.2f\n"
          (R.recovery_to_string recovery)
          stats.R.completed stats.R.offered stats.R.inputs_dropped
          stats.R.inputs_replayed stats.R.mttr_us totals.R.overall_throughput_per_s
          retention)
      [ R.Remap; R.Gate_island; R.Raise_level; R.Fail_stop ];
    (* the same physical faults under the no-recovery policy, window by
       window: the degradation the reports make visible *)
    let reports, _ =
      R.run_resilient ~faults:plan ~recovery:R.Remap partition R.Iced_dvfs inputs
    in
    Printf.printf "\nremap policy, per window (10 inputs each):\n";
    List.iter
      (fun (w : R.window_report) ->
        Printf.printf
          "  window %2d: %5.0f inputs/s%s%s\n" w.R.index w.R.throughput_per_s
          (if w.R.recovery_us > 0.0 then
             Printf.sprintf ", %.2f us recovering" w.R.recovery_us
           else "")
          (if w.R.replayed > 0 then Printf.sprintf ", %d replays" w.R.replayed else ""))
      reports
