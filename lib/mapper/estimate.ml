open Iced_dfg

type plan = {
  topo : int list;
  inputs : (int * int * int) list array;
      (* node -> (producer, distance, step) per in-edge, in predecessor order *)
  rank : int array; (* node -> 1 on a cycle fed by another cycle, else 0 *)
}

type t = int array

let plan dfg ~(cycles : Analysis.cycle list) ~topo =
  let cycle_sets = List.map (fun c -> c.Analysis.members) cycles in
  let same_cycle a b =
    List.exists (fun members -> List.mem a members && List.mem b members) cycle_sets
  in
  let on_cycle id = List.exists (fun members -> List.mem id members) cycle_sets in
  (* rank: does a cycle transitively consume another cycle's output
     through intra edges?  Approximated by: a cycle member has an
     intra ancestor on a different cycle. *)
  let cycle_rank =
    (* per-cycle, so every member of a dependent cycle shifts by the
       same amount and the cycle's internal 1-cycle spacing holds *)
    let ancestor_on_other_cycle id =
      let visited = Hashtbl.create 32 in
      let rec walk n =
        if Hashtbl.mem visited n then false
        else begin
          Hashtbl.add visited n ();
          List.exists
            (fun (e : Graph.edge) ->
              e.distance = 0
              && ((on_cycle e.src && not (same_cycle e.src id)) || walk e.src))
            (Graph.predecessors dfg n)
        end
      in
      walk id
    in
    let dependent_cycles =
      List.filter (fun members -> List.exists ancestor_on_other_cycle members) cycle_sets
    in
    fun id -> if List.exists (fun members -> List.mem id members) dependent_cycles then 1 else 0
  in
  let slots = 1 + List.fold_left max (-1) topo in
  let inputs = Array.make slots [] and rank = Array.make slots 0 in
  List.iter
    (fun id ->
      inputs.(id) <-
        List.map
          (fun (e : Graph.edge) -> (e.src, e.distance, if same_cycle e.src id then 1 else 2))
          (Graph.predecessors dfg id);
      rank.(id) <- cycle_rank id)
    topo;
  { topo; inputs; rank }

let uses_margin plan = Array.exists (fun rank -> rank > 0) plan.rank

let build plan ~ii ~margin =
  let est = Array.make (Array.length plan.rank) 0 in
  for _sweep = 1 to 3 do
    List.iter
      (fun id ->
        est.(id) <-
          List.fold_left
            (fun acc (src, distance, step) ->
              let b = if distance = 0 then est.(src) + step else est.(src) + 1 - (distance * ii) in
              max acc b)
            0 plan.inputs.(id))
      plan.topo
  done;
  List.iter (fun id -> est.(id) <- est.(id) + (margin * plan.rank.(id))) plan.topo;
  est

let start est id = if id < Array.length est then max 0 est.(id) else 0
