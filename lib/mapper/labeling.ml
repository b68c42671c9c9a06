open Iced_arch
open Iced_dfg

let capacity_slots ~tiles ~ii = List.length tiles * ii

(* Tile-time slots a node occupies when run at a level: slowing a tile
   by m makes each of its operations cover m base-clock slots. *)
let slots_of_level level = Dvfs.multiplier level

let label ?(floor = Dvfs.Rest) ?(guard = 0) ?recurrences g ~cgra ~tiles ~ii =
  if tiles = [] then invalid_arg "Labeling.label: empty tile set";
  if ii <= 0 then invalid_arg "Labeling.label: non-positive II";
  if guard < 0 then invalid_arg "Labeling.label: negative guard";
  (* Guard band for upset-prone fabrics: each guard step raises the
     label floor one level, keeping voltage margin between the labels
     and the level where timing upsets appear. *)
  let floor =
    let rec raise_floor level = function
      | 0 -> level
      | n -> raise_floor (Dvfs.step_up level) (n - 1)
    in
    raise_floor floor guard
  in
  let clamp level = if Dvfs.at_most level floor then floor else level in
  let { Analysis.critical; secondary; _ } =
    match recurrences with Some r -> r | None -> Analysis.recurrences g
  in
  let labels = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace labels id Dvfs.Normal) critical;
  List.iter
    (fun id -> if not (Hashtbl.mem labels id) then Hashtbl.replace labels id (clamp Dvfs.Relax))
    secondary;
  let total_slots = capacity_slots ~tiles ~ii in
  let tiles_per_island = cgra.Cgra.island_rows * cgra.Cgra.island_cols in
  let islands_total =
    List.sort_uniq compare (List.map (Cgra.island_of cgra) tiles) |> List.length
  in
  let slots_used () =
    Hashtbl.fold (fun _ level acc -> acc + slots_of_level level) labels 0
  in
  let slots_at level =
    Hashtbl.fold
      (fun _ l acc -> if l = level then acc + slots_of_level l else acc)
      labels 0
  in
  let islands_for level =
    let slots = slots_at level in
    let island_slots = tiles_per_island * ii in
    (slots + island_slots - 1) / island_slots
  in
  (* Grey nodes, most slack first: nodes far off the critical paths are
     the best candidates for the lowest level. *)
  let slack =
    let asap = Analysis.asap g and alap = Analysis.alap g in
    fun id -> List.assoc id alap - List.assoc id asap
  in
  let grey =
    Graph.node_ids g
    |> List.filter (fun id -> not (Hashtbl.mem labels id))
    |> List.sort (fun a b -> compare (slack b, a) (slack a, b))
  in
  List.iter
    (fun id ->
      let rest_islands_available =
        islands_total - islands_for Dvfs.Normal - islands_for Dvfs.Relax
        - islands_for Dvfs.Rest
      in
      let used = slots_used () in
      let level =
        if
          Dvfs.at_most floor Dvfs.Rest && rest_islands_available > 0
          && used + slots_of_level Dvfs.Rest <= total_slots
        then Dvfs.Rest
        else if used + slots_of_level Dvfs.Relax <= total_slots then clamp Dvfs.Relax
        else Dvfs.Normal
      in
      Hashtbl.replace labels id level)
    grey;
  List.map (fun id -> (id, Hashtbl.find labels id)) (Graph.node_ids g)
