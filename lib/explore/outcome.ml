module Design = Iced.Design

type measurement = {
  kernel : string;
  ii : int;
  utilization : float;
  dvfs : float;
  power_mw : float;
  throughput_mips : float;
  energy_nj : float;
  edp : float;
}

type status = Mapped of measurement | Failed of string | Timed_out

type point_result = {
  point : Space.point;
  per_kernel : (string * status) list;
}

type summary = {
  point : Space.point;
  mapped : int;
  total : int;
  geo_throughput_mips : float;
  mean_energy_nj : float;
  mean_edp : float;
  mean_power_mw : float;
}

let measure (e : Design.evaluation) =
  let f_mhz = Iced_power.Params.default.f_normal_mhz in
  (* normalize per *source* loop iteration so unroll factors compare
     fairly: one mapped iteration of an unroll-u kernel covers u
     source iterations *)
  let iter_us = float_of_int e.Design.ii /. f_mhz /. float_of_int e.Design.unroll in
  let energy_nj = e.Design.power_mw *. iter_us in
  {
    kernel = e.Design.kernel;
    ii = e.Design.ii;
    utilization = e.Design.avg_utilization;
    dvfs = e.Design.avg_dvfs;
    power_mw = e.Design.power_mw;
    throughput_mips = f_mhz *. float_of_int e.Design.unroll /. float_of_int e.Design.ii;
    energy_nj;
    edp = energy_nj *. iter_us;
  }

let evaluate_kernel ?(cancel = fun () -> false) ?(backend = Iced_mapper.Backend.default)
    ?stats (p : Space.point) kernel =
  (* a timeout is what the caller's own hook says it is, whatever the
     mapper's message reads *)
  let cancelled = ref false in
  let cancel () =
    if cancel () then cancelled := true;
    !cancelled
  in
  match
    Design.evaluate ~cgra:(Space.cgra p) ~unroll:p.Space.unroll
      ~label_floor:p.Space.floor ~max_ii:p.Space.max_ii ~cancel ~backend ?stats
      Design.Iced kernel
  with
  | Ok e -> Mapped (measure e)
  | Error msg -> if !cancelled then Timed_out else Failed msg
  | exception Invalid_argument msg -> Failed msg

let summarize (r : point_result) =
  let measurements =
    List.filter_map (function _, Mapped m -> Some m | _ -> None) r.per_kernel
  in
  let stat f = match measurements with
    | [] -> nan
    | ms -> Iced_util.Stats.mean (List.map f ms)
  in
  {
    point = r.point;
    mapped = List.length measurements;
    total = List.length r.per_kernel;
    geo_throughput_mips =
      (match measurements with
      | [] -> nan
      | ms -> Iced_util.Stats.geomean (List.map (fun m -> m.throughput_mips) ms));
    mean_energy_nj = stat (fun m -> m.energy_nj);
    mean_edp = stat (fun m -> m.edp);
    mean_power_mw = stat (fun m -> m.power_mw);
  }
