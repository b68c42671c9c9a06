let well_defined objs = List.for_all (fun v -> not (Float.is_nan v)) objs

let dominates ~objectives a b =
  let oa = objectives a and ob = objectives b in
  well_defined oa && well_defined ob
  && List.length oa = List.length ob
  && List.for_all2 (fun x y -> x >= y) oa ob
  && List.exists2 (fun x y -> x > y) oa ob

let frontier ~objectives candidates =
  List.filter
    (fun c ->
      well_defined (objectives c)
      && not (List.exists (fun other -> dominates ~objectives other c) candidates))
    candidates

let throughput_energy_edp (s : Outcome.summary) =
  [ s.Outcome.geo_throughput_mips; -.s.Outcome.mean_energy_nj; -.s.Outcome.mean_edp ]
