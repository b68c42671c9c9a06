open Iced_arch
open Iced_dfg

let capacity_slots ~tiles ~ii = List.length tiles * ii

(* Tile-time slots a node occupies when run at a level: slowing a tile
   by m makes each of its operations cover m base-clock slots. *)
let slots_of_level level = Dvfs.multiplier level

type plan = {
  ids : int list;  (* every node, ascending: the output order *)
  size : int;  (* largest id + 1 *)
  critical : int list;  (* distinct *)
  secondary : int list;  (* distinct, none critical *)
  grey : int array;  (* the other nodes, most slack first, ties by id *)
}

let plan g =
  let { Analysis.critical; secondary; _ } = Analysis.recurrences g in
  let ids = Graph.node_ids g in
  let size = 1 + List.fold_left max (-1) ids in
  (* 0: grey, 1: critical, 2: secondary *)
  let kind = Array.make size 0 in
  let mark k l =
    List.filter
      (fun id ->
        let fresh = kind.(id) = 0 in
        if fresh then kind.(id) <- k;
        fresh)
      l
  in
  let critical = mark 1 critical in
  let secondary = mark 2 secondary in
  (* Grey nodes, most slack first: nodes far off the critical paths are
     the best candidates for the lowest level. *)
  let slack = Array.make size 0 in
  List.iter (fun (id, t) -> slack.(id) <- t) (Analysis.alap g);
  List.iter (fun (id, t) -> slack.(id) <- slack.(id) - t) (Analysis.asap g);
  let grey =
    List.filter (fun id -> kind.(id) = 0) ids
    |> List.sort (fun a b ->
           let c = compare slack.(b) slack.(a) in
           if c <> 0 then c else compare a b)
    |> Array.of_list
  in
  { ids; size; critical; secondary; grey }

let check ~tiles ~ii ~guard =
  if tiles = [] then invalid_arg "Labeling.label: empty tile set";
  if ii <= 0 then invalid_arg "Labeling.label: non-positive II";
  if guard < 0 then invalid_arg "Labeling.label: negative guard"

let apply ?(floor = Dvfs.Rest) ?(guard = 0) plan ~cgra ~tiles ~ii =
  check ~tiles ~ii ~guard;
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
  let labels = Array.make plan.size Dvfs.Normal in
  (* tile-time slots taken by each level's nodes so far *)
  let slots = Array.make 4 0 in
  let set id level =
    let n = slots_of_level level in
    labels.(id) <- level;
    slots.(Dvfs.rank level) <- slots.(Dvfs.rank level) + n
  in
  List.iter (fun id -> set id Dvfs.Normal) plan.critical;
  List.iter (fun id -> set id (clamp Dvfs.Relax)) plan.secondary;
  let total_slots = capacity_slots ~tiles ~ii in
  let island_slots = cgra.Cgra.island_rows * cgra.Cgra.island_cols * ii in
  let islands_total =
    List.sort_uniq compare (List.map (Cgra.island_of cgra) tiles) |> List.length
  in
  let islands_for level =
    (slots.(Dvfs.rank level) + island_slots - 1) / island_slots
  in
  Array.iter
    (fun id ->
      let rest_islands_available =
        islands_total - islands_for Dvfs.Normal - islands_for Dvfs.Relax
        - islands_for Dvfs.Rest
      in
      let used = slots.(0) + slots.(1) + slots.(2) + slots.(3) in
      let level =
        if
          Dvfs.at_most floor Dvfs.Rest && rest_islands_available > 0
          && used + slots_of_level Dvfs.Rest <= total_slots
        then Dvfs.Rest
        else if used + slots_of_level Dvfs.Relax <= total_slots then clamp Dvfs.Relax
        else Dvfs.Normal
      in
      set id level)
    plan.grey;
  List.map (fun id -> (id, labels.(id))) plan.ids

let label ?floor ?(guard = 0) g ~cgra ~tiles ~ii =
  (* bad arguments are rejected before the plan enumerates anything *)
  check ~tiles ~ii ~guard;
  apply ?floor ~guard (plan g) ~cgra ~tiles ~ii
