open Iced_arch
open Iced_dfg

(* Each key's first element of [l], as [List.assoc_opt] and
   [List.find_opt] find it. *)
let first_by key l =
  let table = Hashtbl.create 64 in
  List.iter (fun x -> if not (Hashtbl.mem table (key x)) then Hashtbl.add table (key x) x) l;
  table

let member l =
  let table = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace table x ()) l;
  Hashtbl.mem table

let check mapping =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt in
  let { Mapping.dfg; cgra; ii; tiles; memory_tiles; placements; routes; _ } = mapping in
  if ii <= 0 then fail "non-positive II %d" ii;
  (match Graph.validate dfg with
  | Ok () -> ()
  | Error msg -> fail "invalid DFG: %s" msg);
  let placement =
    let first = first_by fst placements in
    fun id -> Option.map snd (Hashtbl.find_opt first id)
  in
  let allowed = member tiles and spm = member memory_tiles in
  (* Placement completeness and tile constraints *)
  List.iter
    (fun id ->
      match placement id with
      | None -> fail "node n%d not placed" id
      | Some (tile, time) ->
        if not (allowed tile) then fail "node n%d on disallowed tile %d" id tile;
        if time < 0 then fail "node n%d scheduled at negative time %d" id time;
        let op = (Graph.node dfg id).op in
        if Op.needs_memory op && not (spm tile) then
          fail "memory op n%d on tile %d without SPM port" id tile)
    (Graph.node_ids dfg);
  let placed_ids = List.map fst placements in
  if List.length placed_ids <> List.length (List.sort_uniq compare placed_ids) then
    fail "duplicate placements";
  List.iter
    (fun id -> if not (Graph.mem_node dfg id) then fail "placement of unknown node n%d" id)
    placed_ids;
  (* Events no modulo slot or island can hold: a negative time has no
     slot, a tile off the fabric no island.  The loop above reports the
     nodes' (an off-fabric tile is never an allowed one); hops are
     reported here.  The MRRG needs a slot for every event and the
     level check an island, so each is skipped when they exist. *)
  let on_fabric tile = tile >= 0 && tile < Cgra.tile_count cgra in
  let unslotted = ref (ii <= 0) and off_fabric = ref false in
  List.iter
    (fun (_, (tile, time)) ->
      if time < 0 then unslotted := true;
      if not (on_fabric tile) then off_fabric := true)
    placements;
  List.iter
    (fun (r : Mapping.route) ->
      List.iter
        (fun (h : Mapping.hop) ->
          if h.time < 0 then begin
            unslotted := true;
            fail "edge n%d->n%d: hop at negative time %d" r.edge.src r.edge.dst h.time
          end;
          if not (on_fabric h.tile) then begin
            off_fabric := true;
            fail "edge n%d->n%d: hop on tile %d off the fabric" r.edge.src r.edge.dst h.tile
          end)
        r.hops)
    routes;
  (* Resource conflicts *)
  if not !unslotted then (
    match Mapping.to_mrrg mapping with
    | Ok _ -> ()
    | Error msg -> fail "resource conflict: %s" msg);
  (* Dependences and route integrity *)
  let route_of_edge =
    let first =
      first_by (fun (r : Mapping.route) -> (r.edge.src, r.edge.dst, r.edge.distance)) routes
    in
    fun (e : Graph.edge) -> Hashtbl.find_opt first (e.src, e.dst, e.distance)
  in
  let check_edge (e : Graph.edge) =
    match (placement e.src, placement e.dst) with
    | None, _ | _, None -> () (* reported above *)
    | Some (src_tile, src_time), Some (dst_tile, dst_time) -> (
      let deadline = dst_time + Mapping.edge_slack dfg ~ii e - 1 in
      match route_of_edge e with
      | None ->
        if src_tile <> dst_tile then
          fail "edge n%d->n%d spans tiles %d->%d without a route" e.src e.dst src_tile dst_tile
        else if deadline < src_time then
          fail "edge n%d->n%d: consumer at t=%d too early for producer at t=%d" e.src e.dst
            dst_time src_time
      | Some r ->
        (match r.hops with
        | [] ->
          if src_tile <> dst_tile then
            fail "edge n%d->n%d has an empty route across tiles" e.src e.dst;
          if deadline < src_time then
            fail "edge n%d->n%d: consumer too early (hopless)" e.src e.dst
        | (first : Mapping.hop) :: rest ->
          if first.tile <> src_tile then
            fail "edge n%d->n%d: route starts at tile %d, producer on %d" e.src e.dst first.tile
              src_tile;
          if first.time < src_time + 1 then
            fail "edge n%d->n%d: first hop at t=%d before producer result (t=%d)" e.src e.dst
              first.time src_time;
          (* [tile]/[time]: where the value sits and when it arrived *)
          let rec walk tile time = function
            | [] ->
              if tile <> dst_tile then
                fail "edge n%d->n%d: route ends at tile %d, consumer on %d" e.src e.dst tile
                  dst_tile;
              if time > deadline then
                fail "edge n%d->n%d: arrives at t=%d after deadline t=%d" e.src e.dst time
                  deadline
            | (h : Mapping.hop) :: rest ->
              if h.tile <> tile then
                fail "edge n%d->n%d: hop from tile %d but value at tile %d" e.src e.dst h.tile
                  tile;
              if h.time <= time then fail "edge n%d->n%d: non-increasing hop times" e.src e.dst;
              (* a hop on a tile off the fabric is reported above *)
              if on_fabric h.tile then
                match Cgra.neighbor cgra h.tile h.dir with
                | None -> fail "edge n%d->n%d: hop off the fabric edge" e.src e.dst
                | Some next -> walk next h.time rest
          in
          if on_fabric first.tile then
            match Cgra.neighbor cgra first.tile first.dir with
            | None -> fail "edge n%d->n%d: first hop off the fabric" e.src e.dst
            | Some next -> walk next first.time rest))
  in
  List.iter check_edge (Graph.edges dfg);
  (* DVFS soundness *)
  if
    (not (!unslotted || !off_fabric))
    && not (Levels.legal mapping mapping.Mapping.island_levels)
  then fail "island DVFS level assignment is not sound";
  match !problems with [] -> Ok () | msgs -> Error (List.rev msgs)

let check_exn mapping =
  match check mapping with
  | Ok () -> ()
  | Error msgs -> failwith (String.concat "; " msgs)
