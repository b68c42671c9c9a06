open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg
module Obs = Iced_obs.Trace
open Engine

exception Unroutable of string

(* Negotiated-congestion routing (Pathfinder): every dependence of a
   complete placement is routed with congestion priced, not forbidden;
   overused port slots grow present and history costs round over round
   until each slot has a single tenant, then the routes are committed
   to the MRRG. *)
(* The negotiation schedule: rounds before giving up, the first
   round's cost per extra present occupant of a port slot and its
   growth factor per round, and the cost per unit of accumulated
   congestion history. *)
let max_rounds = 24
let present_base = 60
let present_growth = 2
let history_weight = 40

let route_all state =
  let mrrg = state.mrrg in
  let ii = state.ii in
  let tiles = Cgra.tile_count state.req.cgra in
  let nres = tiles * 4 * ii in
  let usage = Array.make nres 0 in
  let history = Array.make nres 0 in
  (* Port-slot resource index: ((tile * 4) + dir) * II + slot, where
     slot is the arrival time's modulo slot.  This is exactly the
     occupancy the MRRG charges a hop (the source tile's output port at
     that slot), so zero overflow here guarantees the final commit
     reserves cleanly.  The router hands its pricing the slot already
     reduced. *)
  let res ~tile ~dir ~slot = (((tile * 4) + Dir.index dir) * ii) + slot in
  (* Each port slot's base price: its DVFS hop cost, or -1 on a dead
     link.  Priced once per call: ports are reserved only at commit,
     and FU occupancy and island levels stay fixed while negotiating,
     so neither the price nor the slot's freedom changes between
     rounds (the phase term depends on the time only mod II). *)
  let base = Array.make nres (-1) in
  for tile = 0 to tiles - 1 do
    List.iter
      (fun dir ->
        for slot = 0 to ii - 1 do
          if Mrrg.port_free mrrg ~tile ~slot dir then
            base.(res ~tile ~dir ~slot) <- route_extra_cost state ~tile ~slot
        done)
      Dir.all
  done;
  (* Port-capacity refutation, checked once before round 1.  It is
     exact:
     - an edge between two tiles hops out of its source tile at least
       once, and each hop holds one output-port slot;
     - each routable edge owns the slots it crosses ([add_usage] counts
       per edge, and the MRRG's occupant is the edge), so success, which
       needs zero overflow, gives every such edge slots of its own;
     - [port_cost] is -1 exactly where [base] is, so the slots a hop
       may use never change between rounds.
     A tile that must start more routes than it has usable output-port
     slots would therefore run all [max_rounds] and fail.  A slot is
     usable by the two tests [Router.find_path] applies to a hop: its
     [base] price is not negative and the tile it leads to is in the
     sub-fabric.  Tiles are checked from the lowest id up. *)
  let starved routable =
    let need = Array.make tiles 0 in
    Array.iter
      (fun (_, src_tile, _, dst_tile, _) ->
        if src_tile <> dst_tile then need.(src_tile) <- need.(src_tile) + 1)
      routable;
    let free tile =
      let n = ref 0 in
      List.iter
        (fun (dir, next) ->
          if Mrrg.allowed mrrg next then
            for slot = 0 to ii - 1 do
              if base.(res ~tile ~dir ~slot) >= 0 then incr n
            done)
        (Cgra.neighbors state.req.cgra tile);
      !n
    in
    let rec check tile =
      if tile = tiles then None
      else if need.(tile) = 0 then check (tile + 1)
      else
        let slots = free tile in
        if need.(tile) > slots then
          Some
            (Printf.sprintf
               "pathfinder: %d routes must leave tile %d through %d free output-port slots \
                at II=%d"
               need.(tile) tile slots ii)
        else check (tile + 1)
    in
    check 0
  in
  let present = ref present_base in
  let port_cost ~tile ~dir ~slot =
    let r = res ~tile ~dir ~slot in
    let price = base.(r) in
    if price < 0 then -1
    else price + (history_weight * history.(r)) + (usage.(r) * !present)
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
        let r = res ~tile:h.tile ~dir:h.dir ~slot:(h.time mod ii) in
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
      if round > max_rounds then
        Error
          (Printf.sprintf
             "pathfinder: congestion unresolved after %d rounds at II=%d (%d overused slots)"
             max_rounds ii
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
          present := min 1_000_000 (!present * present_growth);
          negotiate (round + 1)
        end
      end
    in
    match starved arr with
    | Some msg -> Error msg
    | None -> ( try negotiate 1 with Unroutable msg -> Error msg)
  in
  Obs.span
    ~result:(fun r ->
      ("rounds", Obs.Int state.stats.Telemetry.pf_rounds)
      ::
      (match r with
      | Ok () -> [ ("ok", Obs.Bool true) ]
      | Error msg -> [ ("error", Obs.Str msg) ]))
    ~cat:"mapper" ~name:"pathfinder" compute
