open Iced_arch
open Iced_dfg

(* Events of a recurrence cycle: the FU executions of its member nodes
   plus the route hops of the edges between consecutive members.  Each
   event lives on some tile; its latency under a level assignment is the
   multiplier of that tile's island. *)
let cycle_event_tiles mapping (cycle : Analysis.cycle) =
  let members = cycle.Analysis.members in
  let member_pairs =
    match members with
    | [] -> []
    | first :: _ ->
      let rec pairs = function
        | [] -> []
        | [ last ] -> [ (last, first) ]
        | a :: (b :: _ as rest) -> (a, b) :: pairs rest
      in
      pairs members
  in
  let fu_tiles =
    List.filter_map
      (fun id ->
        match List.assoc_opt id mapping.Mapping.placements with
        | Some (tile, _) -> Some tile
        | None -> None)
      members
  in
  let hop_tiles =
    List.concat_map
      (fun (src, dst) ->
        mapping.Mapping.routes
        |> List.filter (fun (r : Mapping.route) -> r.edge.src = src && r.edge.dst = dst)
        |> List.concat_map (fun (r : Mapping.route) ->
               List.map (fun (h : Mapping.hop) -> h.tile) r.hops))
      member_pairs
  in
  fu_tiles @ hop_tiles

let multiplier_of level = if Dvfs.is_active level then Dvfs.multiplier level else 0

(* island -> start times of the FU executions and route hops on its
   tiles, in one pass over the mapping (tiles off the fabric belong to
   no island) *)
let island_event_times mapping =
  let cgra = mapping.Mapping.cgra in
  let times = Array.make (Cgra.island_count cgra) [] in
  let add tile time =
    if tile >= 0 && tile < Cgra.tile_count cgra then begin
      let island = Cgra.island_of cgra tile in
      times.(island) <- time :: times.(island)
    end
  in
  List.iter (fun (_, (tile, time)) -> add tile time) mapping.Mapping.placements;
  List.iter
    (fun (r : Mapping.route) -> List.iter (fun (h : Mapping.hop) -> add h.tile h.time) r.hops)
    mapping.Mapping.routes;
  times

(* The soundness check with everything that depends on the mapping
   alone taken out of it: [events] from {!island_event_times}, and each
   recurrence cycle's event islands, off-fabric event count and
   distance, derived on first use.  An event on a tile off the fabric
   has no island and counts at the base clock.  The returned function
   only looks levels up, so a caller trying many assignments of one
   mapping pays for the derivation once. *)
let soundness mapping ~events =
  let ii = mapping.Mapping.ii in
  let cgra = mapping.Mapping.cgra in
  let cycles =
    lazy
      (List.map
         (fun (cycle : Analysis.cycle) ->
           let on_fabric, off_fabric =
             List.partition
               (fun tile -> tile >= 0 && tile < Cgra.tile_count cgra)
               (cycle_event_tiles mapping cycle)
           in
           ( List.map (Cgra.island_of cgra) on_fabric,
             List.length off_fabric,
             cycle.Analysis.distance ))
         (Analysis.recurrence_cycles mapping.Mapping.dfg))
  in
  fun island_levels ->
    let level_of island =
      match List.assoc_opt island island_levels with Some l -> l | None -> Dvfs.Normal
    in
    let island_ok island =
      let times = events.(island) in
      match level_of island with
      | Dvfs.Power_gated -> times = []
      | Dvfs.Normal -> true
      | (Dvfs.Relax | Dvfs.Rest) as level ->
        let m = Dvfs.multiplier level in
        ii mod m = 0
        && (match times with
           | [] -> true
           | first :: rest ->
             let phase = first mod m in
             List.for_all (fun t -> t mod m = phase) rest)
    in
    let cycle_ok (islands, off_fabric, distance) =
      let effective_length =
        List.fold_left
          (fun acc island -> acc + max 1 (multiplier_of (level_of island)))
          off_fabric islands
      in
      effective_length <= ii * distance
    in
    List.for_all island_ok (Cgra.islands cgra)
    && List.for_all cycle_ok (Lazy.force cycles)

let legal mapping island_levels =
  soundness mapping ~events:(island_event_times mapping) island_levels

let assign ?(floor = Dvfs.Rest) ?(allow_gating = true) mapping =
  let cgra = mapping.Mapping.cgra in
  let events = island_event_times mapping in
  let legal = soundness mapping ~events in
  let busy island = List.length events.(island) in
  let initial =
    List.map
      (fun island ->
        if events.(island) = [] then
          (island, if allow_gating then Dvfs.Power_gated else floor)
        else (island, Dvfs.Normal))
      (Cgra.islands cgra)
  in
  let order =
    Cgra.islands cgra
    |> List.filter (fun island -> events.(island) <> [])
    |> List.sort (fun a b -> compare (busy a, a) (busy b, b))
  in
  let try_levels =
    List.filter (fun level -> Dvfs.at_most floor level) [ Dvfs.Rest; Dvfs.Relax ]
  in
  let final =
    List.fold_left
      (fun levels island ->
        let candidate level = (island, level) :: List.remove_assoc island levels in
        let rec attempt = function
          | [] -> levels
          | level :: rest ->
            let trial = candidate level in
            if legal trial then trial else attempt rest
        in
        attempt try_levels)
      initial order
  in
  Mapping.with_levels mapping final

let all_normal mapping =
  Mapping.with_levels mapping
    (List.map (fun island -> (island, Dvfs.Normal)) (Cgra.islands mapping.Mapping.cgra))

let normal_with_gating mapping =
  let events = island_event_times mapping in
  Mapping.with_levels mapping
    (List.map
       (fun island ->
         if events.(island) = [] then (island, Dvfs.Power_gated) else (island, Dvfs.Normal))
       (Cgra.islands mapping.Mapping.cgra))
