open Iced_arch
open Iced_dfg
module Heap = Iced_util.Heap
module Mrrg = Iced_mrrg.Mrrg

let hop_cost = 100

(* State encoding for the Dijkstra visited set: (tile, time) packed into
   one int.  Horizons are small (deadline <= a few II), so time fits
   comfortably. *)
let encode ~tiles tile time = (time * tiles) + tile

(* Parent pointers pack the predecessor state with how we got here:
   codes 0..3 are a hop out of the predecessor's port ([Dir.index]),
   4 is a wait in place, and -1 marks the search root. *)
let wait_code = 4

(* One [Mrrg.Port] per direction, hoisted so pricing a hop never boxes
   a fresh constructor. *)
let port_north = Mrrg.Port Dir.North
let port_south = Mrrg.Port Dir.South
let port_east = Mrrg.Port Dir.East
let port_west = Mrrg.Port Dir.West

let port_of = function
  | Dir.North -> port_north
  | Dir.South -> port_south
  | Dir.East -> port_east
  | Dir.West -> port_west

type scratch = {
  mutable dist : int array;
  mutable parent : int array;
  mutable stamp : int array; (* dist/parent at [s] valid iff stamp.(s) = epoch *)
  mutable epoch : int;
  frontier : Heap.t; (* priority = path cost, payload = packed state *)
  mutable neighbors : (Dir.t * int) list array; (* Cgra.neighbors, per tile *)
  mutable neighbors_of : Cgra.t option; (* fabric the cache was built for *)
}

let create_scratch () =
  {
    dist = [||];
    parent = [||];
    stamp = [||];
    epoch = 0;
    frontier = Heap.create ();
    neighbors = [||];
    neighbors_of = None;
  }

(* O(1) between-calls reset: bump the epoch so every stamp goes stale,
   and empty the frontier.  Arrays only grow (and thus allocate) when a
   search needs more states than any previous one, or runs on another
   fabric. *)
let prepare sc cgra states =
  if Array.length sc.stamp < states then begin
    let capacity = max states (2 * Array.length sc.stamp) in
    sc.dist <- Array.make capacity 0;
    sc.parent <- Array.make capacity 0;
    sc.stamp <- Array.make capacity 0;
    sc.epoch <- 0
  end;
  sc.epoch <- sc.epoch + 1;
  Heap.clear sc.frontier;
  match sc.neighbors_of with
  | Some c when c == cgra -> ()
  | Some _ | None ->
    sc.neighbors <- Array.init (Cgra.tile_count cgra) (Cgra.neighbors cgra);
    sc.neighbors_of <- Some cgra

let mark sc state cost parent =
  sc.stamp.(state) <- sc.epoch;
  sc.dist.(state) <- cost;
  sc.parent.(state) <- parent

let relax sc next_state next_cost parent =
  if sc.stamp.(next_state) <> sc.epoch || next_cost < sc.dist.(next_state) then begin
    mark sc next_state next_cost parent;
    Heap.push sc.frontier next_cost next_state
  end

(* Relax every priced neighbour hop of [state]; top-level (rather than a
   closure in the pop loop) so an expansion allocates nothing. *)
let rec expand sc mrrg port_cost ~tiles ~state ~cost ~tile ~time = function
  | [] -> ()
  | (dir, next_tile) :: rest ->
    (if Mrrg.allowed mrrg next_tile then
       let extra = port_cost ~tile ~dir ~time:(time + 1) in
       if extra >= 0 then
         relax sc
           (encode ~tiles next_tile (time + 1))
           (cost + hop_cost + extra)
           ((state * 8) + Dir.index dir));
    expand sc mrrg port_cost ~tiles ~state ~cost ~tile ~time rest

(* The hops of the path ending at [state], read back along the parent
   pointers; waits leave no hop. *)
let rec walk sc ~tiles state acc =
  let packed = sc.parent.(state) in
  if packed < 0 then acc
  else begin
    let prev = packed / 8 and code = packed mod 8 in
    let acc =
      if code = wait_code then acc
      else
        { Mapping.tile = prev mod tiles; dir = Dir.of_index code; time = state / tiles }
        :: acc
    in
    walk sc ~tiles prev acc
  end

let find_path ?scratch ?stats ~port_cost mrrg ~edge ~src_tile ~src_time ~dst_tile
    ~deadline =
  (match stats with
  | Some (s : Telemetry.t) -> s.route_calls <- s.route_calls + 1
  | None -> ());
  let cgra = Mrrg.cgra mrrg in
  let tiles = Cgra.tile_count cgra in
  let result =
    if deadline < src_time then
      Error
        (Printf.sprintf "edge n%d->n%d: deadline %d precedes producer time %d"
           edge.Graph.src edge.Graph.dst deadline src_time)
    else begin
      let sc = match scratch with Some sc -> sc | None -> create_scratch () in
      (* Times never exceed the deadline (expansion stops there), so
         every reachable state fits below this bound. *)
      prepare sc cgra ((deadline + 2) * tiles);
      let start = encode ~tiles src_tile src_time in
      mark sc start 0 (-1);
      Heap.push sc.frontier 0 start;
      let found = ref (-1) in
      while !found < 0 && not (Heap.is_empty sc.frontier) do
        let cost = Heap.min_priority sc.frontier in
        let state = Heap.pop sc.frontier in
        if sc.stamp.(state) = sc.epoch && sc.dist.(state) = cost then begin
          (* a live entry, not a stale duplicate *)
          (match stats with
          | Some (s : Telemetry.t) -> s.expansions <- s.expansions + 1
          | None -> ());
          let tile = state mod tiles in
          let time = state / tiles in
          if tile = dst_tile then found := state
          else if time < deadline then begin
            (* wait in place *)
            relax sc (state + tiles) (cost + 1) ((state * 8) + wait_code);
            expand sc mrrg port_cost ~tiles ~state ~cost ~tile ~time sc.neighbors.(tile)
          end
        end
      done;
      if !found < 0 then
        Error
          (Printf.sprintf "edge n%d->n%d: no route from tile %d (t=%d) to tile %d by t=%d"
             edge.Graph.src edge.Graph.dst src_tile src_time dst_tile deadline)
      else Ok (walk sc ~tiles !found [], sc.dist.(!found))
    end
  in
  (match (result, stats) with
  | Error _, Some (s : Telemetry.t) -> s.route_failures <- s.route_failures + 1
  | _ -> ());
  result

let rec ports_free mrrg ~tile ~time port width k =
  k >= width
  || (Mrrg.is_free mrrg ~tile ~time:(time + k) port
     && ports_free mrrg ~tile ~time port width (k + 1))

let release mrrg hops _edge =
  List.iter
    (fun (h : Mapping.hop) -> Mrrg.release mrrg ~tile:h.tile ~time:h.time (Mrrg.Port h.dir))
    hops

let route ?(extra_cost = fun ~tile:_ ~time:_ -> 0) ?(hop_width = fun _ -> 1) ?scratch
    ?stats mrrg ~edge ~src_tile ~src_time ~dst_tile ~deadline =
  (* Occupancy pricing: a hop out of [tile] keeps its output port busy
     for hop_width(tile) slots on a slowed tile (capacity), but the
     elastic buffers hide the extra latency. *)
  let port_cost ~tile ~dir ~time =
    let width = Int.max 1 (hop_width tile) in
    if ports_free mrrg ~tile ~time (port_of dir) width 0 then
      width + extra_cost ~tile ~time
    else -1
  in
  let compute () =
    match
      find_path ?scratch ?stats ~port_cost mrrg ~edge ~src_tile ~src_time ~dst_tile
        ~deadline
    with
    | Error _ as err -> err
    | Ok (hops, cost) ->
      (* Reserve all hop ports; roll back on an (unexpected) conflict. *)
      let rec reserve done_hops = function
        | [] -> Ok (hops, cost)
        | (h : Mapping.hop) :: rest -> (
          match
            Mrrg.reserve mrrg ~tile:h.tile ~time:h.time (Mrrg.Port h.dir)
              (Mrrg.Route { src = edge.Graph.src; dst = edge.Graph.dst })
          with
          | Ok () -> reserve (h :: done_hops) rest
          | Error msg ->
            release mrrg done_hops edge;
            (match stats with
            | Some (s : Telemetry.t) -> s.route_failures <- s.route_failures + 1
            | None -> ());
            Error msg)
      in
      reserve [] hops
  in
  let module Obs = Iced_obs.Trace in
  Obs.span
    ~args:(fun () ->
      [ ("edge", Obs.Str (Printf.sprintf "n%d->n%d" edge.Graph.src edge.Graph.dst)) ])
    ~result:(function
      | Ok (_, cost) -> [ ("cost", Obs.Int cost) ]
      | Error _ -> [ ("ok", Obs.Bool false) ])
    ~cat:"mapper" ~name:"route" compute
