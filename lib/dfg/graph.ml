module Int_map = Map.Make (Int)

type node = { id : int; op : Op.t; label : string }

type edge = { src : int; dst : int; distance : int }

type t = {
  nodes : node Int_map.t;
  succ : edge list Int_map.t; (* keyed by src, edges in insertion order *)
  pred : edge list Int_map.t; (* keyed by dst *)
  next_id : int;
}

let empty = { nodes = Int_map.empty; succ = Int_map.empty; pred = Int_map.empty; next_id = 0 }

let add_node ?label g op =
  let id = g.next_id in
  let label = match label with Some l -> l | None -> Printf.sprintf "n%d" id in
  let node = { id; op; label } in
  ({ g with nodes = Int_map.add id node g.nodes; next_id = id + 1 }, id)

let mem_node g id = Int_map.mem id g.nodes

let edges_of map id = match Int_map.find_opt id map with Some es -> es | None -> []

let successors g id = edges_of g.succ id
let predecessors g id = edges_of g.pred id

let mem_edge g e =
  List.exists (fun e' -> e'.dst = e.dst && e'.distance = e.distance) (successors g e.src)

let add_edge ?(distance = 0) g src dst =
  if distance < 0 then invalid_arg "Graph.add_edge: negative distance";
  if not (mem_node g src) then invalid_arg "Graph.add_edge: unknown src";
  if not (mem_node g dst) then invalid_arg "Graph.add_edge: unknown dst";
  let e = { src; dst; distance } in
  if mem_edge g e then g
  else
    {
      g with
      succ = Int_map.add src (edges_of g.succ src @ [ e ]) g.succ;
      pred = Int_map.add dst (edges_of g.pred dst @ [ e ]) g.pred;
    }

let remove_node g id =
  if not (mem_node g id) then g
  else
    let drop edges = List.filter (fun e -> e.src <> id && e.dst <> id) edges in
    {
      g with
      nodes = Int_map.remove id g.nodes;
      succ = Int_map.map drop (Int_map.remove id g.succ);
      pred = Int_map.map drop (Int_map.remove id g.pred);
    }

let node_count g = Int_map.cardinal g.nodes

(* By source id, each source's edges in insertion order; built
   reversed and turned once, so linear in the edge count. *)
let edges g = List.rev (Int_map.fold (fun _ es acc -> List.rev_append es acc) g.succ [])

let edge_count g = List.length (edges g)

let nodes g = List.map snd (Int_map.bindings g.nodes)

let node_ids g = List.map fst (Int_map.bindings g.nodes)

let node g id =
  match Int_map.find_opt id g.nodes with Some n -> n | None -> raise Not_found

let intra_successors g id =
  List.filter_map (fun e -> if e.distance = 0 then Some e.dst else None) (successors g id)

let intra_predecessors g id =
  List.filter_map (fun e -> if e.distance = 0 then Some e.src else None) (predecessors g id)

(* Kahn's algorithm restricted to distance-0 edges; returns None when the
   intra-iteration subgraph contains a cycle. *)
let intra_topological g =
  let in_degree = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace in_degree id 0) (node_ids g);
  List.iter
    (fun (e : edge) ->
      if e.distance = 0 then
        Hashtbl.replace in_degree e.dst (Hashtbl.find in_degree e.dst + 1))
    (edges g);
  let ready =
    List.filter (fun id -> Hashtbl.find in_degree id = 0) (node_ids g)
  in
  let rec drain ready acc count =
    match ready with
    | [] -> (List.rev acc, count)
    | id :: rest ->
      let new_ready =
        List.fold_left
          (fun ready succ_id ->
            let d = Hashtbl.find in_degree succ_id - 1 in
            Hashtbl.replace in_degree succ_id d;
            if d = 0 then succ_id :: ready else ready)
          rest (intra_successors g id)
      in
      drain new_ready (id :: acc) (count + 1)
  in
  let order, count = drain ready [] 0 in
  if count = node_count g then Some order else None

let validate g =
  let check_edges () =
    List.fold_left
      (fun acc (e : edge) ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if not (mem_node g e.src) then Error (Printf.sprintf "edge src %d missing" e.src)
          else if not (mem_node g e.dst) then
            Error (Printf.sprintf "edge dst %d missing" e.dst)
          else Ok ())
      (Ok ()) (edges g)
  in
  match check_edges () with
  | Error _ as err -> err
  | Ok () -> (
    match intra_topological g with
    | None -> Error "intra-iteration subgraph is cyclic"
    | Some _ ->
      let phi_ok n =
        n.op <> Op.Phi
        || predecessors g n.id = []
        || List.exists (fun e -> e.distance > 0) (predecessors g n.id)
      in
      (match List.find_opt (fun n -> not (phi_ok n)) (nodes g) with
      | Some n -> Error (Printf.sprintf "phi node %d has inputs but no loop-carried input" n.id)
      | None -> Ok ()))

let pp fmt g =
  let pp_node n =
    let outs =
      List.map
        (fun e ->
          if e.distance = 0 then string_of_int e.dst
          else Printf.sprintf "%d[d=%d]" e.dst e.distance)
        (successors g n.id)
    in
    Format.fprintf fmt "%s: %s -> {%s}@." n.label (Op.to_string n.op) (String.concat ", " outs)
  in
  Format.fprintf fmt "dfg (%d nodes, %d edges)@." (node_count g) (edge_count g);
  List.iter pp_node (nodes g)
