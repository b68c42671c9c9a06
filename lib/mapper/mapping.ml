open Iced_arch
open Iced_dfg

type hop = { tile : int; dir : Dir.t; time : int }

type route = { edge : Graph.edge; hops : hop list }

type t = {
  dfg : Graph.t;
  cgra : Cgra.t;
  ii : int;
  tiles : int list;
  memory_tiles : int list;
  placements : (int * (int * int)) list;
  routes : route list;
  labels : (int * Dvfs.level) list;
  island_levels : (int * Dvfs.level) list;
}

let edge_slack g ~ii (e : Graph.edge) =
  match (Graph.node g e.src).op with
  | Op.Const _ -> (e.distance + 2) * ii
  | _ -> e.distance * ii

let placement t node =
  match List.assoc_opt node t.placements with
  | Some p -> p
  | None -> raise Not_found

let tile_of_node t node = fst (placement t node)

let label t node =
  match List.assoc_opt node t.labels with Some l -> l | None -> Dvfs.Normal

let level_of_island t island =
  match List.assoc_opt island t.island_levels with Some l -> l | None -> Dvfs.Normal

let level_of_tile t tile = level_of_island t (Cgra.island_of t.cgra tile)

let with_levels t island_levels = { t with island_levels }

let route_of_edge t (edge : Graph.edge) =
  List.find_opt
    (fun r -> r.edge.src = edge.src && r.edge.dst = edge.dst && r.edge.distance = edge.distance)
    t.routes

let events_of_tile t tile =
  let fu =
    List.filter_map
      (fun (node, (tl, time)) -> if tl = tile then Some (time, `Fu node) else None)
      t.placements
  in
  let hops =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun h -> if h.tile = tile then Some (h.time, `Hop r.edge) else None)
          r.hops)
      t.routes
  in
  List.sort compare (fu @ hops)

let busy_slots_of_tile t tile =
  events_of_tile t tile |> List.map (fun (time, _) -> time mod t.ii) |> List.sort_uniq compare

let used_tiles t =
  List.init (Cgra.tile_count t.cgra) (fun i -> i)
  |> List.filter (fun tile -> events_of_tile t tile <> [])

let to_mrrg t =
  let mrrg = Iced_mrrg.Mrrg.create ~tiles:t.tiles t.cgra ~ii:t.ii in
  let reserve_all =
    let reserve_placement acc (node, (tile, time)) =
      match acc with
      | Error _ -> acc
      | Ok () ->
        Iced_mrrg.Mrrg.reserve mrrg ~tile ~time Iced_mrrg.Mrrg.Fu (Iced_mrrg.Mrrg.Op_node node)
    in
    let reserve_route acc (r : route) =
      List.fold_left
        (fun acc (h : hop) ->
          match acc with
          | Error _ -> acc
          | Ok () ->
            Iced_mrrg.Mrrg.reserve mrrg ~tile:h.tile ~time:h.time
              (Iced_mrrg.Mrrg.Port h.dir)
              (Iced_mrrg.Mrrg.Route { src = r.edge.src; dst = r.edge.dst }))
        acc r.hops
    in
    let after_placements = List.fold_left reserve_placement (Ok ()) t.placements in
    List.fold_left reserve_route after_placements t.routes
  in
  match reserve_all with Ok () -> Ok mrrg | Error msg -> Error msg

let pp fmt t =
  Format.fprintf fmt "mapping: II=%d on %a@." t.ii Cgra.pp t.cgra;
  List.iter
    (fun tile ->
      let events = events_of_tile t tile in
      if events <> [] then begin
        let describe (time, what) =
          match what with
          | `Fu node -> Printf.sprintf "c%d:%s" time (Graph.node t.dfg node).label
          | `Hop (e : Graph.edge) -> Printf.sprintf "c%d:route(n%d->n%d)" time e.src e.dst
        in
        Format.fprintf fmt "  tile %2d [%s] %s@." tile
          (Dvfs.to_string (level_of_tile t tile))
          (String.concat " " (List.map describe events))
      end)
    (List.init (Cgra.tile_count t.cgra) (fun i -> i));
  Format.fprintf fmt "  islands:";
  List.iter
    (fun (island, level) -> Format.fprintf fmt " %d=%s" island (Dvfs.to_string level))
    (List.sort compare t.island_levels);
  Format.fprintf fmt "@."
