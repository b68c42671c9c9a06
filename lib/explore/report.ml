module Table = Iced_util.Table

let fmt = Table.fmt_float

let summaries outcomes = List.map Outcome.summarize outcomes

let frontier_summaries outcomes =
  let frontier =
    Pareto.frontier ~objectives:Pareto.throughput_energy_edp (summaries outcomes)
  in
  List.sort
    (fun (a : Outcome.summary) (b : Outcome.summary) ->
      compare
        (-.a.geo_throughput_mips, a.mean_energy_nj, Space.to_string a.point)
        (-.b.geo_throughput_mips, b.mean_energy_nj, Space.to_string b.point))
    frontier

let frontier_table outcomes =
  let t =
    Table.create ~title:"Pareto frontier over (throughput, energy, EDP)"
      ~columns:
        [ "point"; "mapped"; "geo thpt Mi/s"; "mean energy nJ"; "mean EDP nJ*us";
          "mean power mW" ]
  in
  List.iter
    (fun (s : Outcome.summary) ->
      Table.add_row t
        [ Space.to_string s.point;
          Printf.sprintf "%d/%d" s.mapped s.total;
          fmt s.geo_throughput_mips; fmt s.mean_energy_nj; fmt s.mean_edp;
          fmt s.mean_power_mw ])
    (frontier_summaries outcomes);
  t

let best_per_kernel_table outcomes =
  let t =
    Table.create ~title:"best point per kernel (minimum EDP)"
      ~columns:[ "kernel"; "point"; "II"; "thpt Mi/s"; "energy nJ"; "EDP nJ*us" ]
  in
  let kernel_names =
    match outcomes with
    | [] -> []
    | (r : Outcome.point_result) :: _ -> List.map fst r.per_kernel
  in
  List.iter
    (fun kernel ->
      let best =
        List.fold_left
          (fun acc (r : Outcome.point_result) ->
            match List.assoc_opt kernel r.per_kernel with
            | Some (Outcome.Mapped m) -> (
              match acc with
              | Some (_, best) when best.Outcome.edp <= m.Outcome.edp -> acc
              | _ -> Some (r.point, m))
            | _ -> acc)
          None outcomes
      in
      match best with
      | None -> Table.add_row t [ kernel; "-"; "-"; "-"; "-"; "-" ]
      | Some (point, m) ->
        Table.add_row t
          [ kernel; Space.to_string point; string_of_int m.Outcome.ii;
            fmt m.Outcome.throughput_mips; fmt m.Outcome.energy_nj; fmt m.Outcome.edp ])
    kernel_names;
  t

(* ------------------------------------------------------------------ *)
(* export                                                              *)

let status_cells = function
  | Outcome.Mapped m ->
    ( "ok",
      [ string_of_int m.Outcome.ii;
        Printf.sprintf "%.6g" m.Outcome.utilization;
        Printf.sprintf "%.6g" m.Outcome.dvfs;
        Printf.sprintf "%.6g" m.Outcome.power_mw;
        Printf.sprintf "%.6g" m.Outcome.throughput_mips;
        Printf.sprintf "%.6g" m.Outcome.energy_nj;
        Printf.sprintf "%.6g" m.Outcome.edp ] )
  | Outcome.Failed _ -> ("failed", [ ""; ""; ""; ""; ""; ""; "" ])
  | Outcome.Timed_out -> ("timeout", [ ""; ""; ""; ""; ""; ""; "" ])

let csv outcomes =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "point,kernel,status,ii,utilization,avg_dvfs,power_mw,throughput_mips,energy_nj,edp\n";
  List.iter
    (fun (r : Outcome.point_result) ->
      List.iter
        (fun (kernel, status) ->
          let s, cells = status_cells status in
          Buffer.add_string b
            (String.concat "," (Space.to_string r.point :: kernel :: s :: cells));
          Buffer.add_char b '\n')
        r.per_kernel)
    outcomes;
  Buffer.contents b

let json outcomes =
  let module J = Iced_util.Json in
  let row (r : Outcome.point_result) (kernel, status) =
    let fields =
      match status with
      | Outcome.Mapped m ->
        [ ("status", J.Str "ok"); ("ii", J.int m.Outcome.ii);
          ("utilization", J.Num m.Outcome.utilization); ("avg_dvfs", J.Num m.Outcome.dvfs);
          ("power_mw", J.Num m.Outcome.power_mw);
          ("throughput_mips", J.Num m.Outcome.throughput_mips);
          ("energy_nj", J.Num m.Outcome.energy_nj); ("edp", J.Num m.Outcome.edp) ]
      | Outcome.Failed _ -> [ ("status", J.Str "failed") ]
      | Outcome.Timed_out -> [ ("status", J.Str "timeout") ]
    in
    J.Obj (("point", J.Str (Space.to_string r.point)) :: ("kernel", J.Str kernel) :: fields)
  in
  J.to_string
    (J.Arr (List.concat_map (fun (r : Outcome.point_result) -> List.map (row r) r.per_kernel) outcomes))

let render outcomes =
  Table.render (frontier_table outcomes)
  ^ "\n\n"
  ^ Table.render (best_per_kernel_table outcomes)
  ^ "\n"
