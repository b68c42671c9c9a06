type cycle = { members : int list; length : int; distance : int }

(* Elementary-cycle enumeration.  We run a DFS from each node s,
   restricted to nodes with id >= s (so each cycle is found exactly once,
   rooted at its smallest id), tracking the on-stack set.  Without
   Johnson's blocking sets the DFS walks every acyclic path from s
   through higher ids, so its cost follows the number of such paths, not
   the number of cycles: on a 2-core Xeon, fft at unroll 1 (42 nodes,
   2 cycles) takes about 125 us and solver1 at unroll 2 (69 nodes,
   7 cycles) about 640 us.  Each graph's cycles are therefore enumerated
   once and kept in the domain's entry (below); a global cap keeps
   adversarial inputs (property tests) bounded. *)
let max_cycles = 4096

let enumerate_cycles g =
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

let dedup ids = List.sort_uniq compare ids

type recurrences = {
  cycles : cycle list;
  rec_mii : int;
  critical : int list;
  secondary : int list;
}

let derive_recurrences cycles =
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

(* ASAP and ALAP levels over the distance-0 subgraph, indexed by node
   id, from one topological order; [None] if that subgraph is cyclic. *)
type levels = { asap : int array; alap : int array; depth : int }

let derive_levels g =
  match Graph.intra_topological g with
  | None -> None
  | Some order ->
    let size = 1 + List.fold_left max (-1) (Graph.node_ids g) in
    let asap = Array.make size 0 and alap = Array.make size 0 in
    List.iter
      (fun id ->
        asap.(id) <-
          List.fold_left
            (fun acc p -> max acc (asap.(p) + 1))
            0 (Graph.intra_predecessors g id))
      order;
    let depth =
      if order = [] then 0 else 1 + List.fold_left (fun acc id -> max acc asap.(id)) 0 order
    in
    List.iter
      (fun id ->
        alap.(id) <-
          List.fold_left
            (fun acc s -> min acc (alap.(s) - 1))
            (depth - 1) (Graph.intra_successors g id))
      (List.rev order);
    Some { asap; alap; depth }

(* The domain's entry: the graph it last analysed and that graph's
   analyses, each derived on first use.  Graphs are immutable, so [==]
   identifies one; the entry never leaves its domain, so its lazy
   fields are forced without a lock. *)
type entry = {
  graph : Graph.t;
  cycles : cycle list Lazy.t;
  recurrences : recurrences Lazy.t;
  levels : levels option Lazy.t;
}

let fresh graph =
  let cycles = lazy (enumerate_cycles graph) in
  {
    graph;
    cycles;
    recurrences = lazy (derive_recurrences (Lazy.force cycles));
    levels = lazy (derive_levels graph);
  }

let current = Domain.DLS.new_key (fun () -> fresh Graph.empty)

let entry g =
  let e = Domain.DLS.get current in
  if e.graph == g then e
  else begin
    let e = fresh g in
    Domain.DLS.set current e;
    e
  end

let recurrence_cycles g = Lazy.force (entry g).cycles

let rec_mii g = max_cycle_mii (recurrence_cycles g)

let res_mii g ~tiles =
  if tiles <= 0 then invalid_arg "Analysis.res_mii: tiles must be positive";
  max 1 ((Graph.node_count g + tiles - 1) / tiles)

let min_ii g ~tiles = max (rec_mii g) (res_mii g ~tiles)

let recurrences g = Lazy.force (entry g).recurrences

let critical_nodes g = (recurrences g).critical

let secondary_cycle_nodes g = (recurrences g).secondary

let levels_of ~caller g =
  match Lazy.force (entry g).levels with
  | Some l -> l
  | None -> invalid_arg ("Analysis." ^ caller ^ ": cyclic intra subgraph")

let per_node g level = List.map (fun id -> (id, level.(id))) (Graph.node_ids g)

let asap g = per_node g (levels_of ~caller:"asap" g).asap

let alap g = per_node g (levels_of ~caller:"alap" g).alap

let depth g = (levels_of ~caller:"asap" g).depth
