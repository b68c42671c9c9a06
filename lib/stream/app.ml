type t = Gcn | Lu

let all = [ Gcn; Lu ]

let to_string = function Gcn -> "gcn" | Lu -> "lu"

let of_string = function "gcn" -> Some Gcn | "lu" -> Some Lu | _ -> None

let inputs ?count = function
  | Gcn -> List.map Pipeline.of_gcn_graph (Workload.enzyme_graphs ?count ~seed:42 ())
  | Lu -> List.map Pipeline.of_lu_matrix (Workload.ufl_matrices ?count ~seed:7 ())

let partition app inputs =
  let pipeline = match app with Gcn -> Pipeline.gcn () | Lu -> Pipeline.lu () in
  let step = max 1 (List.length inputs / 50) in
  let profile = List.filteri (fun i _ -> i mod step = 0) inputs in
  Partition.prepare Iced_arch.Cgra.iced_6x6 pipeline ~profile
