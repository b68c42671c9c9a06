open Iced_arch
open Iced_dfg
module Heap = Iced_util.Heap
module Mrrg = Iced_mrrg.Mrrg

let hop_cost = 100

(* A search state is (tile, time) packed into one int as
   [(time lsl shift) lor tile], where [shift] is the fewest bits that
   hold every tile id of the fabric: unpacking is a mask and a shift,
   never a division.  Horizons are small (deadline <= a few II), so
   time fits comfortably. *)

(* Parent pointers pack the predecessor state with how we got here:
   [(state lsl 3) lor code], where codes 0..3 are a hop out of the
   predecessor's port ([Dir.index]), 4 is a wait in place, and -1 marks
   the search root. *)
let wait_code = 4

(* The tables of the fabric a scratch last searched, with the tile
   bits of its packed states. *)
type tables = { fabric : Cgra.t; geometry : Cgra.geometry; shift : int }

type scratch = {
  mutable dist : int array;
  mutable parent : int array;
  mutable stamp : int array; (* dist/parent at [s] valid iff stamp.(s) = epoch *)
  mutable epoch : int;
  frontier : Heap.t; (* priority = path cost, payload = packed state *)
  mutable tables : tables option;
  (* [route]'s memo of its extra cost: the DVFS price of a hop out of
     [memo_tile] at [memo_slot] in the current call, which the four
     directions of one expansion share; [memo_tile] = -1 = none *)
  mutable memo_tile : int;
  mutable memo_slot : int;
  mutable memo_extra : int;
}

let create_scratch () =
  {
    dist = [||];
    parent = [||];
    stamp = [||];
    epoch = 0;
    frontier = Heap.create ();
    tables = None;
    memo_tile = -1;
    memo_slot = 0;
    memo_extra = 0;
  }

let tables sc cgra =
  match sc.tables with
  | Some t when t.fabric == cgra -> t
  | Some _ | None ->
    let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1) in
    let t =
      { fabric = cgra; geometry = Cgra.geometry cgra; shift = bits (Cgra.tile_count cgra - 1) }
    in
    sc.tables <- Some t;
    t

let geometry sc cgra = (tables sc cgra).geometry

(* O(1) between-calls reset: bump the epoch so every stamp goes stale,
   and empty the frontier.  Arrays only grow (and thus allocate) when a
   search needs more states than any previous one, and the tables are
   rebuilt only when a search runs on another fabric. *)
let prepare sc cgra ~deadline =
  let t = tables sc cgra in
  let states = (deadline + 2) lsl t.shift in
  if Array.length sc.stamp < states then begin
    let capacity = max states (2 * Array.length sc.stamp) in
    sc.dist <- Array.make capacity 0;
    sc.parent <- Array.make capacity 0;
    sc.stamp <- Array.make capacity 0;
    sc.epoch <- 0
  end;
  sc.epoch <- sc.epoch + 1;
  Heap.clear sc.frontier;
  t

let mark sc state cost parent =
  sc.stamp.(state) <- sc.epoch;
  sc.dist.(state) <- cost;
  sc.parent.(state) <- parent

let relax sc next_state next_cost parent =
  if sc.stamp.(next_state) <> sc.epoch || next_cost < sc.dist.(next_state) then begin
    mark sc next_state next_cost parent;
    Heap.push sc.frontier next_cost next_state
  end

(* The hops of the path ending at [state], read back along the parent
   pointers; waits leave no hop. *)
let rec walk sc ~shift state acc =
  let packed = sc.parent.(state) in
  if packed < 0 then acc
  else begin
    let prev = packed lsr 3 and code = packed land 7 in
    let acc =
      if code = wait_code then acc
      else
        {
          Mapping.tile = prev land ((1 lsl shift) - 1);
          dir = Dir.of_index code;
          time = state lsr shift;
        }
        :: acc
    in
    walk sc ~shift prev acc
  end

let find_path ?scratch ?stats ~port_cost mrrg ~edge ~src_tile ~src_time ~dst_tile
    ~deadline =
  (match stats with
  | Some (s : Telemetry.t) -> s.route_calls <- s.route_calls + 1
  | None -> ());
  let result =
    if deadline < src_time then
      Error
        (Printf.sprintf "edge n%d->n%d: deadline %d precedes producer time %d"
           edge.Graph.src edge.Graph.dst deadline src_time)
    else begin
      let sc = match scratch with Some sc -> sc | None -> create_scratch () in
      (* Times never exceed the deadline (expansion stops there), so
         every reachable state fits below the bound [prepare] sizes. *)
      let { shift; geometry; _ } = prepare sc (Mrrg.cgra mrrg) ~deadline in
      let neighbor = geometry.Cgra.neighbor in
      let mask = (1 lsl shift) - 1 and ii = Mrrg.ii mrrg in
      let start = (src_time lsl shift) lor src_tile in
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
          let tile = state land mask in
          let time = state lsr shift in
          if tile = dst_tile then found := state
          else if time < deadline then begin
            (* Wait in place, then hop out of each port in [Dir.all]
               order.  Every hop arrives at [time + 1], so the four
               share one modulo slot. *)
            relax sc (state + (1 lsl shift)) (cost + 1) ((state lsl 3) lor wait_code);
            let arrival = (time + 1) lsl shift and slot = (time + 1) mod ii in
            for d = 0 to 3 do
              let next_tile = neighbor.((4 * tile) + d) in
              if next_tile >= 0 && Mrrg.allowed mrrg next_tile then begin
                let extra = port_cost ~tile ~dir:(Dir.of_index d) ~slot in
                if extra >= 0 then
                  relax sc (arrival lor next_tile) (cost + hop_cost + extra)
                    ((state lsl 3) lor d)
              end
            done
          end
        end
      done;
      if !found < 0 then
        Error
          (Printf.sprintf "edge n%d->n%d: no route from tile %d (t=%d) to tile %d by t=%d"
             edge.Graph.src edge.Graph.dst src_tile src_time dst_tile deadline)
      else Ok (walk sc ~shift !found [], sc.dist.(!found))
    end
  in
  (match (result, stats) with
  | Error _, Some (s : Telemetry.t) -> s.route_failures <- s.route_failures + 1
  | _ -> ());
  result

(* Whether the [width] port slots from [slot] on are free; only a
   slowed tile in commit mode is wider than one slot. *)
let rec ports_free mrrg ~tile ~slot dir width k =
  k >= width
  || Mrrg.port_free mrrg ~tile ~slot:(if k = 0 then slot else (slot + k) mod Mrrg.ii mrrg) dir
     && ports_free mrrg ~tile ~slot dir width (k + 1)

let release mrrg hops _edge =
  List.iter
    (fun (h : Mapping.hop) -> Mrrg.release mrrg ~tile:h.tile ~time:h.time (Mrrg.Port h.dir))
    hops

let route ?(extra_cost = fun ~tile:_ ~slot:_ -> 0) ?(hop_width = fun _ -> 1) ?scratch
    ?stats mrrg ~edge ~src_tile ~src_time ~dst_tile ~deadline =
  let sc = match scratch with Some sc -> sc | None -> create_scratch () in
  sc.memo_tile <- -1;
  (* Occupancy pricing: a hop out of [tile] keeps its output port busy
     for hop_width(tile) slots on a slowed tile (capacity), but the
     elastic buffers hide the extra latency.  The extra cost depends on
     the tile and the slot alone, so the memo prices it once for the
     four directions of an expansion. *)
  let port_cost ~tile ~dir ~slot =
    let width = Int.max 1 (hop_width tile) in
    if ports_free mrrg ~tile ~slot dir width 0 then begin
      if sc.memo_tile <> tile || sc.memo_slot <> slot then begin
        sc.memo_extra <- extra_cost ~tile ~slot;
        sc.memo_tile <- tile;
        sc.memo_slot <- slot
      end;
      width + sc.memo_extra
    end
    else -1
  in
  let compute () =
    match
      find_path ~scratch:sc ?stats ~port_cost mrrg ~edge ~src_tile ~src_time ~dst_tile
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
