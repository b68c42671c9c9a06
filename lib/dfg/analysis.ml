type cycle = { members : int list; length : int; distance : int }

(* Elementary-cycle enumeration.  We run a DFS from each node s,
   restricted to nodes with id >= s (so each cycle is found exactly once,
   rooted at its smallest id), tracking the on-stack set.  Without
   Johnson's blocking sets the DFS walks every acyclic path from s
   through higher ids, so its cost follows the number of such paths, not
   the number of cycles: on a 2-core Xeon, fft at unroll 1 (42 nodes,
   2 cycles) takes about 125 us and solver1 at unroll 2 (69 nodes,
   7 cycles) about 640 us.  The mapper therefore enumerates once per DFG
   ([recurrences] below); a global cap keeps adversarial inputs
   (property tests) bounded. *)
let recurrence_cycles ?(max_cycles = 4096) g =
  let found = ref [] in
  let count = ref 0 in
  let latency id = Op.latency (Graph.node g id).op in
  let explore root =
    let on_stack = Hashtbl.create 16 in
    let rec dfs id path_rev length distance =
      if !count >= max_cycles then ()
      else
        List.iter
          (fun (e : Graph.edge) ->
            let next = e.dst in
            if next = root then begin
              let total_distance = distance + e.distance in
              if total_distance > 0 && !count < max_cycles then begin
                incr count;
                found :=
                  { members = List.rev path_rev; length; distance = total_distance } :: !found
              end
            end
            else if next > root && not (Hashtbl.mem on_stack next) then begin
              Hashtbl.add on_stack next ();
              dfs next (next :: path_rev) (length + latency next) (distance + e.distance);
              Hashtbl.remove on_stack next
            end)
          (Graph.successors g id)
    in
    Hashtbl.add on_stack root ();
    dfs root [ root ] (latency root) 0;
    Hashtbl.remove on_stack root
  in
  List.iter explore (Graph.node_ids g);
  List.rev !found

let cycle_mii c =
  if c.distance <= 0 then invalid_arg "Analysis.cycle_mii: zero-distance cycle";
  (c.length + c.distance - 1) / c.distance

let max_cycle_mii cycles = List.fold_left (fun acc c -> max acc (cycle_mii c)) 1 cycles

let rec_mii g = max_cycle_mii (recurrence_cycles g)

let res_mii g ~tiles =
  if tiles <= 0 then invalid_arg "Analysis.res_mii: tiles must be positive";
  max 1 ((Graph.node_count g + tiles - 1) / tiles)

let min_ii g ~tiles = max (rec_mii g) (res_mii g ~tiles)

let dedup ids = List.sort_uniq compare ids

type recurrences = {
  cycles : cycle list;
  rec_mii : int;
  critical : int list;
  secondary : int list;
}

let recurrences g =
  let cycles = recurrence_cycles g in
  let rec_mii = max_cycle_mii cycles in
  let critical =
    cycles
    |> List.filter (fun c -> cycle_mii c = rec_mii)
    |> List.concat_map (fun c -> c.members)
    |> dedup
  in
  let longest = List.fold_left (fun acc c -> max acc c.length) 0 cycles in
  let secondary =
    cycles
    |> List.filter (fun c -> c.length * 2 <= longest)
    |> List.concat_map (fun c -> c.members)
    |> List.filter (fun id -> not (List.mem id critical))
    |> dedup
  in
  { cycles; rec_mii; critical; secondary }

let critical_nodes g = (recurrences g).critical

let secondary_cycle_nodes g = (recurrences g).secondary

let asap g =
  match Graph.intra_topological g with
  | None -> invalid_arg "Analysis.asap: cyclic intra subgraph"
  | Some order ->
    let level = Hashtbl.create 64 in
    List.iter
      (fun id ->
        let preds = Graph.intra_predecessors g id in
        let lvl =
          List.fold_left (fun acc p -> max acc (Hashtbl.find level p + 1)) 0 preds
        in
        Hashtbl.replace level id lvl)
      order;
    List.map (fun id -> (id, Hashtbl.find level id)) (Graph.node_ids g)

let depth g =
  match asap g with
  | [] -> 0
  | levels -> 1 + List.fold_left (fun acc (_, l) -> max acc l) 0 levels

let alap g =
  match Graph.intra_topological g with
  | None -> invalid_arg "Analysis.alap: cyclic intra subgraph"
  | Some order ->
    let max_level = depth g - 1 in
    let level = Hashtbl.create 64 in
    List.iter
      (fun id ->
        let succs = Graph.intra_successors g id in
        let lvl =
          List.fold_left (fun acc s -> min acc (Hashtbl.find level s - 1)) max_level succs
        in
        Hashtbl.replace level id lvl)
      (List.rev order);
    List.map (fun id -> (id, Hashtbl.find level id)) (Graph.node_ids g)
