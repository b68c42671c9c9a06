open Iced_arch
open Iced_dfg
open Iced_mapper

type tile_metrics = { tile : int; level : Dvfs.level; busy_slots : int; utilization : float }

(* Distinct busy slots (time mod II, negative for negative times) of
   every fabric tile, counted in one pass over placements and hops with
   a seen-flag per (tile, slot); events off the fabric belong to no
   tile [per_tile] can report.  At II 0 there are no slots: the
   definition raises [Division_by_zero] on the first tile with an
   event, as [Mapping.busy_slots_of_tile] does. *)
let busy_slot_counts (m : Mapping.t) =
  let ii = m.Mapping.ii in
  if ii = 0 then fun tile -> List.length (Mapping.busy_slots_of_tile m tile)
  else begin
    let tiles = Cgra.tile_count m.Mapping.cgra and width = (2 * abs ii) - 1 in
    let seen = Bytes.make (tiles * width) '\000' and counts = Array.make tiles 0 in
    let mark tile time =
      if tile >= 0 && tile < tiles then begin
        let cell = (tile * width) + (time mod ii) + abs ii - 1 in
        if Bytes.get seen cell = '\000' then begin
          Bytes.set seen cell '\001';
          counts.(tile) <- counts.(tile) + 1
        end
      end
    in
    List.iter (fun (_, (tile, time)) -> mark tile time) m.Mapping.placements;
    List.iter
      (fun (r : Mapping.route) -> List.iter (fun (h : Mapping.hop) -> mark h.tile h.time) r.hops)
      m.Mapping.routes;
    fun tile -> counts.(tile)
  end

let per_tile (m : Mapping.t) =
  let busy_slots = busy_slot_counts m in
  let island_levels =
    Array.init (Cgra.island_count m.Mapping.cgra) (Mapping.level_of_island m)
  in
  List.map
    (fun tile ->
      (* [island_of] raises for a tile off the fabric, as
         [Mapping.level_of_tile] does *)
      let level = island_levels.(Cgra.island_of m.Mapping.cgra tile) in
      let busy = busy_slots tile in
      let utilization =
        if not (Dvfs.is_active level) then 0.0
        else
          min 1.0
            (float_of_int (busy * Dvfs.multiplier level) /. float_of_int m.Mapping.ii)
      in
      { tile; level; busy_slots = busy; utilization })
    m.Mapping.tiles

let average_utilization m =
  let active =
    per_tile m |> List.filter (fun tm -> Dvfs.is_active tm.level)
  in
  match active with
  | [] -> 0.0
  | tiles -> Iced_util.Stats.mean (List.map (fun tm -> tm.utilization) tiles)

let average_dvfs_fraction m =
  per_tile m |> List.map (fun tm -> Dvfs.fraction tm.level) |> Iced_util.Stats.mean

let tile_states m =
  per_tile m
  |> List.map (fun tm -> { Iced_power.Model.level = tm.level; activity = tm.utilization })

let sram_activity (m : Mapping.t) =
  let mem_nodes =
    Graph.nodes m.Mapping.dfg
    |> List.filter (fun (n : Graph.node) -> Op.needs_memory n.op)
    |> List.length
  in
  let banks = m.Mapping.cgra.Cgra.spm_banks in
  min 1.0 (float_of_int mem_nodes /. float_of_int (m.Mapping.ii * banks))

let schedule_depth (m : Mapping.t) =
  let latest_placement =
    List.fold_left (fun acc (_, (_, time)) -> max acc time) (-1) m.Mapping.placements
  in
  let latest_hop =
    List.fold_left
      (fun acc (r : Mapping.route) ->
        List.fold_left (fun acc (h : Mapping.hop) -> max acc h.time) acc r.hops)
      latest_placement m.Mapping.routes
  in
  latest_hop + 1

let total_cycles m ~iterations =
  if iterations <= 0 then invalid_arg "Metrics.total_cycles: non-positive iterations";
  ((iterations - 1) * m.Mapping.ii) + schedule_depth m

let speedup_vs_cpu (m : Mapping.t) =
  float_of_int (Graph.node_count m.Mapping.dfg) /. float_of_int m.Mapping.ii

(* Residency intervals [from, to) in absolute cycles: where a value
   sits in some tile's bypass buffers.  The value of edge e exists from
   the end of the producer's cycle until its consumer reads it
   (consume time = dst time + distance * II for iteration-0 values). *)
let residency_intervals (m : Mapping.t) =
  let ii = m.Mapping.ii in
  List.concat_map
    (fun (e : Graph.edge) ->
      match (Graph.node m.Mapping.dfg e.src).op with
      | Op.Const _ -> []
      | _ -> (
        match
          ( List.assoc_opt e.src m.Mapping.placements,
            List.assoc_opt e.dst m.Mapping.placements )
        with
        | Some (src_tile, src_time), Some (_, dst_time) -> (
          let consume = dst_time + (e.distance * ii) in
          match Mapping.route_of_edge m e with
          | None | Some { hops = []; _ } ->
            if consume > src_time + 1 then [ (src_tile, src_time + 1, consume) ] else []
          | Some { hops; _ } ->
            let first = List.hd hops in
            let at_src =
              if first.time > src_time + 1 then [ (src_tile, src_time + 1, first.time) ]
              else []
            in
            (* between consecutive hops the value waits at the
               intermediate tile; after the last hop it waits at the
               consumer *)
            let rec walk acc = function
              | (h : Mapping.hop) :: (next : Mapping.hop) :: rest ->
                let tile =
                  Option.value ~default:h.tile
                    (Iced_arch.Cgra.neighbor m.Mapping.cgra h.tile h.dir)
                in
                let acc =
                  if next.time > h.time + 1 then (tile, h.time + 1, next.time) :: acc
                  else acc
                in
                walk acc (next :: rest)
              | [ (last : Mapping.hop) ] ->
                let tile =
                  Option.value ~default:last.tile
                    (Iced_arch.Cgra.neighbor m.Mapping.cgra last.tile last.dir)
                in
                if consume > last.time + 1 then (tile, last.time + 1, consume) :: acc
                else acc
              | [] -> acc
            in
            at_src @ walk [] hops)
        | _ -> []))
    (Graph.edges m.Mapping.dfg)

let buffer_occupancy (m : Mapping.t) =
  let ii = m.Mapping.ii in
  let table = Hashtbl.create 64 in
  List.iter
    (fun (tile, from_time, to_time) ->
      (* steady state: each absolute cycle lands on slot mod II; a
         window longer than II covers some slots several times *)
      let span = to_time - from_time in
      let full = span / ii and rem = span mod ii in
      for slot = 0 to ii - 1 do
        (* offset of this slot from the window start, in [0, ii) *)
        let offset = (((slot - from_time) mod ii) + ii) mod ii in
        let count = full + if offset < rem then 1 else 0 in
        if count > 0 then
          Hashtbl.replace table (tile, slot)
            (count + Option.value ~default:0 (Hashtbl.find_opt table (tile, slot)))
      done)
    (residency_intervals m);
  Hashtbl.fold (fun (tile, slot) live acc -> (tile, slot, live) :: acc) table []
  |> List.sort compare

let max_buffer_occupancy m =
  List.fold_left (fun acc (_, _, live) -> max acc live) 0 (buffer_occupancy m)
