open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg
module Obs = Iced_obs.Trace
open Engine

(* Port-slot resource index: ((tile * 4) + dir) * II + (time mod II).
   This is exactly the occupancy the MRRG charges a hop (the source
   tile's output port at the arrival time's modulo slot), so zero
   overflow here guarantees the final commit reserves cleanly. *)
let dir_code = function Dir.North -> 0 | Dir.South -> 1 | Dir.East -> 2 | Dir.West -> 3

exception Unroutable of string

(* Negotiated-congestion routing (Pathfinder): every dependence of a
   complete placement is routed with congestion priced, not forbidden;
   overused port slots grow present and history costs round over round
   until each slot has a single tenant, then the routes are committed
   to the MRRG. *)
let route_all (p : Backend.pf_params) state =
  let mrrg = state.mrrg in
  let ii = state.ii in
  let tiles = Cgra.tile_count state.req.cgra in
  let nres = tiles * 4 * ii in
  let usage = Array.make nres 0 in
  let history = Array.make nres 0 in
  let res ~tile ~dir ~time = (((tile * 4) + dir_code dir) * ii) + (time mod ii) in
  (* Each port slot's base price: its DVFS hop cost, or -1 on a dead
     link.  Priced once per call: ports are reserved only at commit,
     and FU occupancy and island levels stay fixed while negotiating,
     so neither the price nor the slot's freedom changes between
     rounds (the phase term depends on the time only mod II). *)
  let base = Array.make nres (-1) in
  for tile = 0 to tiles - 1 do
    List.iter
      (fun dir ->
        for time = 0 to ii - 1 do
          if Mrrg.is_free mrrg ~tile ~time (Mrrg.Port dir) then
            base.(res ~tile ~dir ~time) <- route_extra_cost state ~tile ~time
        done)
      Dir.all
  done;
  let present = ref p.present_base in
  let port_cost ~tile ~dir ~time =
    let r = res ~tile ~dir ~time in
    let price = base.(r) in
    if price < 0 then -1
    else price + (p.history_weight * history.(r)) + (usage.(r) * !present)
  in
  (* Add [delta] to the usage of a hop list's distinct resources:
     fan-out of one edge shares wires, so the same slot crossed twice
     by one edge counts once (mirroring the MRRG's same-occupant
     idempotent reserve).  [seen] stamps the slots this call counted. *)
  let seen = Array.make nres 0 in
  let pass = ref 0 in
  let add_usage hops delta =
    incr pass;
    List.iter
      (fun (h : Mapping.hop) ->
        let r = res ~tile:h.tile ~dir:h.dir ~time:h.time in
        if seen.(r) <> !pass then begin
          seen.(r) <- !pass;
          usage.(r) <- usage.(r) + delta
        end)
      hops
  in
  let compute () =
    let trivial, routable =
      List.partition_map
        (fun (e : Graph.edge) ->
          if not (is_placed state e.src && is_placed state e.dst) then
            raise (Unroutable (Printf.sprintf "edge n%d->n%d: endpoint unplaced" e.src e.dst));
          let src_tile = state.place_tile.(e.src) and src_time = state.place_time.(e.src) in
          let dst_tile = state.place_tile.(e.dst) and dst_time = state.place_time.(e.dst) in
          let deadline = dst_time + edge_slack state e - 1 in
          if src_tile = dst_tile && deadline >= src_time then
            Left { Mapping.edge = e; hops = [] }
          else Right (e, src_tile, src_time, dst_tile, deadline))
        (all_deps state)
    in
    let arr = Array.of_list routable in
    let current = Array.make (Array.length arr) [] in
    let routed = Array.make (Array.length arr) false in
    let rec negotiate round =
      if round > p.max_rounds then
        Error
          (Printf.sprintf
             "pathfinder: congestion unresolved after %d rounds at II=%d (%d overused slots)"
             p.max_rounds ii
             (Array.fold_left (fun acc u -> if u > 1 then acc + 1 else acc) 0 usage))
      else begin
        state.stats.Telemetry.pf_rounds <- state.stats.Telemetry.pf_rounds + 1;
        Array.iteri
          (fun i (e, src_tile, src_time, dst_tile, deadline) ->
            if routed.(i) then begin
              add_usage current.(i) (-1);
              routed.(i) <- false
            end;
            match
              Router.find_path ~scratch:state.scratch ~stats:state.stats ~port_cost mrrg
                ~edge:e ~src_tile ~src_time ~dst_tile ~deadline
            with
            | Ok (hops, _) ->
              current.(i) <- hops;
              routed.(i) <- true;
              add_usage hops 1
            | Error msg -> raise (Unroutable msg))
          arr;
        let overflow =
          Array.fold_left (fun acc u -> if u > 1 then acc + (u - 1) else acc) 0 usage
        in
        if overflow = 0 then begin
          (* settled: commit every route to the MRRG *)
          let commit i (e, _, _, _, _) =
            List.iter
              (fun (h : Mapping.hop) ->
                match
                  Mrrg.reserve mrrg ~tile:h.tile ~time:h.time (Mrrg.Port h.dir)
                    (Mrrg.Route { src = e.Graph.src; dst = e.Graph.dst })
                with
                | Ok () -> ()
                | Error msg ->
                  raise
                    (Unroutable
                       (Printf.sprintf "pathfinder: commit conflict on edge n%d->n%d: %s"
                          e.Graph.src e.Graph.dst msg)))
              current.(i)
          in
          Array.iteri commit arr;
          let negotiated =
            Array.to_list
              (Array.mapi
                 (fun i (e, _, _, _, _) -> { Mapping.edge = e; hops = current.(i) })
                 arr)
          in
          state.routes <- trivial @ negotiated @ state.routes;
          Ok ()
        end
        else begin
          state.stats.Telemetry.pf_overflow <- state.stats.Telemetry.pf_overflow + overflow;
          Array.iteri
            (fun r u -> if u > 1 then history.(r) <- history.(r) + (u - 1))
            usage;
          present := min 1_000_000 (!present * p.present_growth);
          negotiate (round + 1)
        end
      end
    in
    try negotiate 1 with Unroutable msg -> Error msg
  in
  if not (Obs.enabled ()) then compute ()
  else
    Obs.with_span ~cat:"mapper" ~name:"pathfinder" (fun () ->
        let r = compute () in
        Obs.span_arg "rounds" (Obs.Int state.stats.Telemetry.pf_rounds);
        (match r with
        | Ok () -> Obs.span_arg "ok" (Obs.Bool true)
        | Error msg -> Obs.span_arg "error" (Obs.Str msg));
        r)
