open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg

let hop_cost = 100

(* State encoding for the Dijkstra visited set: (tile, time) packed into
   one int.  Horizons are small (deadline <= a few II), so time fits
   comfortably. *)
let encode ~tiles tile time = (time * tiles) + tile

let dir_code = function Dir.North -> 0 | Dir.South -> 1 | Dir.East -> 2 | Dir.West -> 3

let dir_of_code = function 0 -> Dir.North | 1 -> Dir.South | 2 -> Dir.East | _ -> Dir.West

(* Parent pointers pack the predecessor state with how we got here:
   codes 0..3 are a hop out of the predecessor's port (dir_code order),
   4 is a wait in place, and -1 marks the search root. *)
let wait_code = 4

(* One [Mrrg.Port] per direction, hoisted so the expansion loop never
   boxes a fresh constructor. *)
let port_north = Mrrg.Port Dir.North
let port_south = Mrrg.Port Dir.South
let port_east = Mrrg.Port Dir.East
let port_west = Mrrg.Port Dir.West

let port_of = function
  | Dir.North -> port_north
  | Dir.South -> port_south
  | Dir.East -> port_east
  | Dir.West -> port_west

(* The frontier is a binary min-heap over two parallel int arrays
   (priority, packed state) — the same sift discipline as
   [Iced_util.Heap] (strict [<], left child probed first), so the pop
   order for equal priorities is identical, but pushing allocates no
   tuple. *)
type scratch = {
  mutable dist : int array;
  mutable parent : int array;
  mutable stamp : int array; (* dist/parent at [s] valid iff stamp.(s) = epoch *)
  mutable epoch : int;
  mutable hprio : int array;
  mutable hstate : int array;
  mutable hsize : int;
  mutable neighbors : (Dir.t * int) list array; (* Cgra.neighbors, per tile *)
  mutable neighbors_of : Cgra.t option; (* fabric the cache was built for *)
}

let create_scratch () =
  {
    dist = [||];
    parent = [||];
    stamp = [||];
    epoch = 0;
    hprio = [||];
    hstate = [||];
    hsize = 0;
    neighbors = [||];
    neighbors_of = None;
  }

(* O(1) between-calls reset: bump the epoch so every stamp goes stale,
   and rewind the heap.  Arrays only grow (and thus allocate) when a
   route call needs more states than any previous one. *)
let prepare scratch states =
  if Array.length scratch.stamp < states then begin
    let capacity = max states (2 * Array.length scratch.stamp) in
    scratch.dist <- Array.make capacity 0;
    scratch.parent <- Array.make capacity 0;
    scratch.stamp <- Array.make capacity 0;
    scratch.epoch <- 0
  end;
  scratch.epoch <- scratch.epoch + 1;
  scratch.hsize <- 0

let heap_push sc prio state =
  if sc.hsize = Array.length sc.hprio then begin
    let capacity = max 16 (2 * Array.length sc.hprio) in
    let np = Array.make capacity 0 and ns = Array.make capacity 0 in
    Array.blit sc.hprio 0 np 0 sc.hsize;
    Array.blit sc.hstate 0 ns 0 sc.hsize;
    sc.hprio <- np;
    sc.hstate <- ns
  end;
  sc.hprio.(sc.hsize) <- prio;
  sc.hstate.(sc.hsize) <- state;
  sc.hsize <- sc.hsize + 1;
  let i = ref (sc.hsize - 1) in
  let sifting = ref true in
  while !sifting && !i > 0 do
    let parent = (!i - 1) / 2 in
    if sc.hprio.(!i) < sc.hprio.(parent) then begin
      let p = sc.hprio.(!i) and s = sc.hstate.(!i) in
      sc.hprio.(!i) <- sc.hprio.(parent);
      sc.hstate.(!i) <- sc.hstate.(parent);
      sc.hprio.(parent) <- p;
      sc.hstate.(parent) <- s;
      i := parent
    end
    else sifting := false
  done

(* Remove the root; the caller has already read it.  Mirrors
   [Iced_util.Heap.pop]'s sift-down exactly. *)
let heap_drop sc =
  sc.hsize <- sc.hsize - 1;
  if sc.hsize > 0 then begin
    sc.hprio.(0) <- sc.hprio.(sc.hsize);
    sc.hstate.(0) <- sc.hstate.(sc.hsize);
    let i = ref 0 in
    let sifting = ref true in
    while !sifting do
      let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
      let smallest = ref !i in
      if left < sc.hsize && sc.hprio.(left) < sc.hprio.(!smallest) then smallest := left;
      if right < sc.hsize && sc.hprio.(right) < sc.hprio.(!smallest) then smallest := right;
      if !smallest <> !i then begin
        let p = sc.hprio.(!i) and s = sc.hstate.(!i) in
        sc.hprio.(!i) <- sc.hprio.(!smallest);
        sc.hstate.(!i) <- sc.hstate.(!smallest);
        sc.hprio.(!smallest) <- p;
        sc.hstate.(!smallest) <- s;
        i := !smallest
      end
      else sifting := false
    done
  end

let mark sc state cost parent =
  sc.stamp.(state) <- sc.epoch;
  sc.dist.(state) <- cost;
  sc.parent.(state) <- parent

let relax sc next_state next_cost parent =
  if sc.stamp.(next_state) <> sc.epoch || next_cost < sc.dist.(next_state) then begin
    mark sc next_state next_cost parent;
    heap_push sc next_cost next_state
  end

let rec ports_free mrrg ~tile ~time port width k =
  k >= width
  || (Mrrg.is_free mrrg ~tile ~time:(time + 1 + k) port
     && ports_free mrrg ~tile ~time port width (k + 1))

(* Relax every free neighbour hop of [state]; top-level (rather than a
   closure in the pop loop) so an expansion allocates nothing. *)
let rec expand sc mrrg extra_cost ~tiles ~width ~state ~cost ~tile ~time = function
  | [] -> ()
  | (dir, next_tile) :: rest ->
    (if Mrrg.allowed mrrg next_tile && ports_free mrrg ~tile ~time (port_of dir) width 0 then
       let penalty = extra_cost ~tile ~time:(time + 1) in
       relax sc
         (encode ~tiles next_tile (time + 1))
         (cost + hop_cost + width + penalty)
         ((state * 8) + dir_code dir));
    expand sc mrrg extra_cost ~tiles ~width ~state ~cost ~tile ~time rest

let route ?(extra_cost = fun ~tile:_ ~time:_ -> 0) ?(hop_width = fun _ -> 1) ?scratch
    ?stats mrrg ~edge ~src_tile ~src_time ~dst_tile ~deadline =
  (match stats with
  | Some (s : Telemetry.t) -> s.route_calls <- s.route_calls + 1
  | None -> ());
  let compute () =
    let cgra = Mrrg.cgra mrrg in
    let tiles = Cgra.tile_count cgra in
    if deadline < src_time then
      Error
        (Printf.sprintf "edge n%d->n%d: deadline %d precedes producer time %d"
           edge.Graph.src edge.Graph.dst deadline src_time)
    else begin
      let sc = match scratch with Some sc -> sc | None -> create_scratch () in
      (* Times never exceed the deadline (expansion stops there), so
         every reachable state fits below this bound. *)
      prepare sc ((deadline + 2) * tiles);
      (match sc.neighbors_of with
      | Some c when c == cgra -> ()
      | Some _ | None ->
        sc.neighbors <- Array.init tiles (fun tile -> Cgra.neighbors cgra tile);
        sc.neighbors_of <- Some cgra);
      let start = encode ~tiles src_tile src_time in
      mark sc start 0 (-1);
      heap_push sc 0 start;
      let found = ref (-1) in
      while !found < 0 && sc.hsize > 0 do
        let cost = sc.hprio.(0) in
        let state = sc.hstate.(0) in
        heap_drop sc;
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
            (* hop to a neighbour: the output port is busy for
               hop_width(tile) slots on a slowed tile (capacity), but the
               elastic buffers hide the extra latency *)
            let width = max 1 (hop_width tile) in
            expand sc mrrg extra_cost ~tiles ~width ~state ~cost ~tile ~time
              sc.neighbors.(tile)
          end
        end
      done;
      if !found < 0 then
        Error
          (Printf.sprintf "edge n%d->n%d: no route from tile %d (t=%d) to tile %d by t=%d"
             edge.Graph.src edge.Graph.dst src_tile src_time dst_tile deadline)
      else begin
        (* Reconstruct hops by walking parents back to the start. *)
        let rec walk state acc =
          let packed = sc.parent.(state) in
          if packed < 0 then acc
          else begin
            let prev_state = packed / 8 in
            let code = packed mod 8 in
            let acc =
              if code = wait_code then acc
              else
                {
                  Mapping.tile = prev_state mod tiles;
                  dir = dir_of_code code;
                  time = state / tiles;
                }
                :: acc
            in
            walk prev_state acc
          end
        in
        let hops = walk !found [] in
        let cost = sc.dist.(!found) in
        (* Reserve all hop ports; roll back on an (unexpected) conflict. *)
        let rec reserve done_hops = function
          | [] -> Ok ()
          | (h : Mapping.hop) :: rest -> (
            match
              Mrrg.reserve mrrg ~tile:h.tile ~time:h.time (Mrrg.Port h.dir)
                (Mrrg.Route { src = edge.Graph.src; dst = edge.Graph.dst })
            with
            | Ok () -> reserve (h :: done_hops) rest
            | Error msg ->
              List.iter
                (fun (d : Mapping.hop) ->
                  Mrrg.release mrrg ~tile:d.tile ~time:d.time (Mrrg.Port d.dir))
                done_hops;
              Error msg)
        in
        match reserve [] hops with Ok () -> Ok (hops, cost) | Error msg -> Error msg
      end
    end
  in
  let result =
    if not (Iced_obs.Trace.enabled ()) then compute ()
    else
      Iced_obs.Trace.with_span
        ~args:
          [
            ( "edge",
              Iced_obs.Trace.Str
                (Printf.sprintf "n%d->n%d" edge.Graph.src edge.Graph.dst) );
          ]
        ~cat:"mapper" ~name:"route"
        (fun () ->
          match compute () with
          | Ok (_, cost) as r ->
            Iced_obs.Trace.span_arg "cost" (Iced_obs.Trace.Int cost);
            r
          | Error _ as r ->
            Iced_obs.Trace.span_arg "ok" (Iced_obs.Trace.Bool false);
            r)
  in
  (match (result, stats) with
  | Error _, Some (s : Telemetry.t) -> s.route_failures <- s.route_failures + 1
  | _ -> ());
  result

(* Congestion-cost variant of [expand] for negotiated routing: the
   caller prices each output-port slot through [port_cost] (-1 =
   forbidden, e.g. a dead link) instead of the router checking MRRG
   occupancy.  Nothing is reserved. *)
let rec expand_priced sc mrrg port_cost ~tiles ~state ~cost ~tile ~time = function
  | [] -> ()
  | (dir, next_tile) :: rest ->
    (if Mrrg.allowed mrrg next_tile then
       let extra = port_cost ~tile ~dir ~time:(time + 1) in
       if extra >= 0 then
         relax sc
           (encode ~tiles next_tile (time + 1))
           (cost + hop_cost + extra)
           ((state * 8) + dir_code dir));
    expand_priced sc mrrg port_cost ~tiles ~state ~cost ~tile ~time rest

(* Cheapest path under a caller-supplied port pricing, without touching
   MRRG occupancy.  The Pathfinder router calls this once per edge per
   negotiation round, with present/history congestion folded into
   [port_cost]; hops are only reserved when a whole round settles. *)
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
      prepare sc ((deadline + 2) * tiles);
      (match sc.neighbors_of with
      | Some c when c == cgra -> ()
      | Some _ | None ->
        sc.neighbors <- Array.init tiles (fun tile -> Cgra.neighbors cgra tile);
        sc.neighbors_of <- Some cgra);
      let start = encode ~tiles src_tile src_time in
      mark sc start 0 (-1);
      heap_push sc 0 start;
      let found = ref (-1) in
      while !found < 0 && sc.hsize > 0 do
        let cost = sc.hprio.(0) in
        let state = sc.hstate.(0) in
        heap_drop sc;
        if sc.stamp.(state) = sc.epoch && sc.dist.(state) = cost then begin
          (match stats with
          | Some (s : Telemetry.t) -> s.expansions <- s.expansions + 1
          | None -> ());
          let tile = state mod tiles in
          let time = state / tiles in
          if tile = dst_tile then found := state
          else if time < deadline then begin
            relax sc (state + tiles) (cost + 1) ((state * 8) + wait_code);
            expand_priced sc mrrg port_cost ~tiles ~state ~cost ~tile ~time
              sc.neighbors.(tile)
          end
        end
      done;
      if !found < 0 then
        Error
          (Printf.sprintf "edge n%d->n%d: no route from tile %d (t=%d) to tile %d by t=%d"
             edge.Graph.src edge.Graph.dst src_tile src_time dst_tile deadline)
      else begin
        let rec walk state acc =
          let packed = sc.parent.(state) in
          if packed < 0 then acc
          else begin
            let prev_state = packed / 8 in
            let code = packed mod 8 in
            let acc =
              if code = wait_code then acc
              else
                {
                  Mapping.tile = prev_state mod tiles;
                  dir = dir_of_code code;
                  time = state / tiles;
                }
                :: acc
            in
            walk prev_state acc
          end
        in
        Ok (walk !found [], sc.dist.(!found))
      end
    end
  in
  (match (result, stats) with
  | Error _, Some (s : Telemetry.t) -> s.route_failures <- s.route_failures + 1
  | _ -> ());
  result

let release mrrg hops _edge =
  List.iter
    (fun (h : Mapping.hop) -> Mrrg.release mrrg ~tile:h.tile ~time:h.time (Mrrg.Port h.dir))
    hops
