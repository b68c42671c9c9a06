open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg

type strategy = Cost.strategy = Conventional | Dvfs_aware

type knobs = Cost.knobs = {
  island_affinity : bool;
  packing : bool;
  phase_alignment : bool;
  conventional_fallback : bool;
}

type request = {
  cgra : Cgra.t;
  strategy : strategy;
  backend : Backend.t;
      (* which placer/router pair the search orchestrates; the default
         greedy+Dijkstra pair is pinned by the golden corpus *)
  tiles : int list option;
  memory_tiles : int list option;
  label_floor : Dvfs.level;
  label_guard : int;
      (* fault guard band: raises Algorithm 1's floor this many levels
         so upset-prone islands keep voltage margin *)
  max_ii : int;
  knobs : knobs;
  cancel : unit -> bool;
  dead_tiles : int list;
      (* permanently faulted tiles, removed from the sub-fabric before
         placement (fault-aware remapping) *)
  dead_links : (int * Dir.t) list;
      (* faulted crossbar output ports, masked in the MRRG so routing
         plans around them *)
  commit_islands : bool;
      (* Figure 4 study: pre-commit every island to a level from the
         label quota before placement.  Nodes are then steered onto
         islands of exactly their label's level (falling back to faster
         islands only when none is feasible), a slowed tile's FU
         occupies multiplier-many modulo slots per op, and routing
         through a slowed tile takes multiplier-many cycles per hop —
         the capacity/latency loss that degrades the II for islands
         larger than 2x2. *)
}

let request ?(strategy = Dvfs_aware) ?(backend = Backend.default) ?tiles ?memory_tiles
    ?(label_floor = Dvfs.Rest) ?(label_guard = 0) ?(max_ii = 64)
    ?(knobs = Cost.all_knobs) ?(cancel = fun () -> false) ?(dead_tiles = [])
    ?(dead_links = []) ?(commit_islands = false) cgra =
  { cgra; strategy; backend; tiles; memory_tiles; label_floor; label_guard; max_ii;
    knobs; cancel; dead_tiles; dead_links; commit_islands }

let weights = Cost.default
let cost_wait = weights.Cost.wait
let cost_over_provision = weights.Cost.over_provision
let cost_open_island = weights.Cost.open_island
let cost_island_raise = weights.Cost.island_raise
let cost_pack = weights.Cost.pack
let cost_spread = weights.Cost.spread
let cost_phase = weights.Cost.phase
let cost_route_misphase = weights.Cost.route_misphase
let cost_route_open_island = weights.Cost.route_open_island

let rank = Cost.rank

(* Per-node and per-island working state lives in flat arrays: node
   arrays are sized by the largest node id + 1 (ids may be sparse), so
   the cost model's reads are array loads, not hashtable probes. *)
type state = {
  dfg : Graph.t;
  req : request;
  tiles : int list;
  memory_tiles : int list;
  ii : int;
  labels : Dvfs.level array; (* node -> Algorithm 1 label *)
  estimate : Estimate.t;
  cycle_mates : int list array;
      (* node -> members of the longest recurrence cycle through it, [] off cycles *)
  mrrg : Mrrg.t;
  place_tile : int array; (* node -> tile, -1 = unplaced *)
  place_time : int array; (* node -> start time, meaningful when placed *)
  mutable routes : Mapping.route list;
  island_level : Dvfs.level option array; (* island -> tentative level, Dvfs_aware only *)
  committed : (int, Dvfs.level) Hashtbl.t option; (* island -> level, commit mode *)
  scratch : Router.scratch; (* shared routing arena, one per mapping run *)
  stats : Telemetry.t;
}

let node_slots dfg = 1 + List.fold_left max (-1) (Graph.node_ids dfg)

let is_placed state node = state.place_tile.(node) >= 0

let place state node tile time =
  state.place_tile.(node) <- tile;
  state.place_time.(node) <- time

let placements state =
  let acc = ref [] in
  for node = Array.length state.place_tile - 1 downto 0 do
    if is_placed state node then
      acc := (node, (state.place_tile.(node), state.place_time.(node))) :: !acc
  done;
  !acc

(* Values produced by Const nodes are iteration-invariant, so the
   consumer may read the copy produced [k] iterations earlier: their
   edges behave as if they carried extra loop distance.  (The simulator
   mirrors this by reading constants directly.) *)
let edge_slack state (e : Graph.edge) =
  let base = e.distance * state.ii in
  match (Graph.node state.dfg e.src).op with
  | Op.Const _ -> base + (2 * state.ii)
  | _ -> base

let label_of state node =
  match state.req.strategy with
  | Conventional -> Dvfs.Normal
  | Dvfs_aware -> state.labels.(node)

let busy_count state tile = Mrrg.busy_slot_count state.mrrg ~tile

(* Tentative level of an island while mapping; [None] = not opened. *)
let tentative_level state island = state.island_level.(island)

(* Open [island] at [label], or raise its tentative level to [label]. *)
let note_island state island label =
  match state.island_level.(island) with
  | Some assigned when rank label <= rank assigned -> ()
  | Some _ | None -> state.island_level.(island) <- Some label

(* Commit-mode slot width of a tile: a slowed tile's op or hop covers
   multiplier-many base-clock slots (capacity loss).  The *latency* of
   slowed tiles is hidden by the elastic (latency-insensitive) bypass
   buffers — it only deepens the pipeline — so no timing term uses the
   multiplier. *)
let tile_width state tile =
  match state.committed with
  | None -> 1
  | Some table -> (
    match Hashtbl.find_opt table (Cgra.island_of state.req.cgra tile) with
    | Some level when Dvfs.is_active level -> Dvfs.multiplier level
    | Some _ | None -> 1)

let committed_level state tile =
  match state.committed with
  | None -> None
  | Some table -> Hashtbl.find_opt table (Cgra.island_of state.req.cgra tile)

(* The clock phase (mod m) an island's existing events agree on, if
   any: [`Empty] when the island has no events yet, [`Phase p] when all
   events fall on phase [p], [`Broken] when they already disagree (the
   island cannot be slowed, so alignment no longer matters). *)
let island_phase state island m = Mrrg.island_phase state.mrrg ~island ~modulo:m

(* Phase-misalignment penalty for scheduling an event on [tile] at
   [time], given the tile's island intends to run slowed.  Only
   meaningful when the multiplier divides the II. *)
let phase_penalty state ~weight tile time =
  match state.req.strategy with
  | Conventional -> 0
  | Dvfs_aware when not state.req.knobs.phase_alignment -> 0
  | Dvfs_aware -> (
    let island = Cgra.island_of state.req.cgra tile in
    match tentative_level state island with
    | None | Some Dvfs.Normal | Some Dvfs.Power_gated -> 0
    | Some ((Dvfs.Relax | Dvfs.Rest) as level) ->
      let m = Dvfs.multiplier level in
      if state.ii mod m <> 0 then 0
      else (
        match island_phase state island m with
        | `Empty | `Broken -> 0
        | `Phase p -> if time mod m = p then 0 else weight))

(* Router hop penalty: stay out of unopened islands (they could be
   power-gated) and respect slowed islands' phases. *)
let route_extra_cost state ~tile ~time =
  match state.req.strategy with
  | Conventional -> 0
  | Dvfs_aware -> (
    let island = Cgra.island_of state.req.cgra tile in
    match tentative_level state island with
    | None -> cost_route_open_island
    | Some _ -> phase_penalty state ~weight:cost_route_misphase tile time)

(* Start-time window of [node] if placed on [tile].

   [hard] comes from already-placed producers (a true lower bound);
   [soft] additionally honours the node's precomputed schedule estimate
   so that, e.g., a critical phi is not pinned so early that its
   carried producer can never meet the deadline; [lst] is the latest
   start admissible given already-placed consumers.  The soft bound is
   only a guess, so it yields toward [hard] whenever honouring it would
   close the window against [lst]. *)
let time_window state node tile =
  let cgra = state.req.cgra in
  let hard = ref 0 in
  let lst = ref max_int in
  List.iter
    (fun (e : Graph.edge) ->
      if is_placed state e.src then begin
        let dist = Cgra.manhattan cgra state.place_tile.(e.src) tile in
        let bound = state.place_time.(e.src) + dist + 1 - edge_slack state e in
        if bound > !hard then hard := bound
      end)
    (Graph.predecessors state.dfg node);
  List.iter
    (fun (e : Graph.edge) ->
      if is_placed state e.dst then begin
        let dist = Cgra.manhattan cgra tile state.place_tile.(e.dst) in
        let bound = state.place_time.(e.dst) + edge_slack state e - dist - 1 in
        if bound < !lst then lst := bound
      end)
    (Graph.successors state.dfg node);
  let hard = max 0 !hard in
  let soft = max hard (Estimate.start state.estimate node) in
  let est = if !lst <> max_int && soft > !lst then max hard (min soft !lst) else soft in
  (est, !lst)

(* Cheap lower-bound cost of a candidate placement, used to order full
   routing attempts. *)
let cheap_cost state node tile time =
  let cgra = state.req.cgra in
  let route_lb = ref 0 in
  List.iter
    (fun (e : Graph.edge) ->
      if is_placed state e.src then begin
        let dist = Cgra.manhattan cgra state.place_tile.(e.src) tile in
        route_lb := !route_lb + (Router.hop_cost * dist);
        let slack = time + edge_slack state e - (state.place_time.(e.src) + dist + 1) in
        route_lb := !route_lb + (cost_wait * max 0 slack)
      end)
    (Graph.predecessors state.dfg node);
  List.iter
    (fun (e : Graph.edge) ->
      if is_placed state e.dst then
        route_lb :=
          !route_lb + (Router.hop_cost * Cgra.manhattan cgra tile state.place_tile.(e.dst)))
    (Graph.successors state.dfg node);
  (* A recurrence cycle must usually close on one tile (hops cost 2
     cycles each); opening it on a tile that cannot seat its remaining
     members forces a split and a larger II. *)
  let capacity_penalty =
    match state.cycle_mates.(node) with
    | [] -> 0
    | mates ->
      let unplaced =
        List.fold_left (fun n m -> if is_placed state m then n else n + 1) 0 mates
      in
      if busy_count state tile + unplaced > state.ii then 400 else 0
  in
  let strategy_cost =
    match state.req.strategy with
    | Conventional ->
      (* The conventional mapper balances load across the fabric (the
         paper: it "might assign two dependent DFG nodes onto two tiles
         that are far away from each other as long as the II is not
         violated"), except for recurrence-cycle nodes, which must stay
         packed to close their cycles.  The scattering is what leaves
         per-tile DVFS so little to power-gate. *)
      let on_cycle = state.cycle_mates.(node) <> [] in
      (if on_cycle then cost_pack else cost_spread) * busy_count state tile
    | Dvfs_aware -> (
      let island = Cgra.island_of cgra tile in
      let label = label_of state node in
      (* Packing and phase alignment only matter for nodes that might
         run slowed; biasing critical (normal-labeled) nodes with them
         costs II for no DVFS benefit. *)
      let bias =
        if label = Dvfs.Normal then 0
        else
          (if state.req.knobs.packing then -cost_pack * busy_count state tile else 0)
          + phase_penalty state ~weight:cost_phase tile time
      in
      if not state.req.knobs.island_affinity then bias
      else
        match tentative_level state island with
        | None -> cost_open_island + bias
        | Some assigned ->
          if rank label <= rank assigned then
            (cost_over_provision * (rank assigned - rank label)) + bias
          else cost_island_raise + bias)
  in
  !route_lb + strategy_cost + capacity_penalty

(* Route every dependence between [node] (placed at tile/time) and its
   already-placed neighbours, reserving MRRG ports.  On failure undo all
   reservations made here and report. *)
let route_incident state node tile time =
  let routed = ref [] in
  let undo () =
    List.iter
      (fun (r : Mapping.route) -> Router.release state.mrrg r.hops r.edge)
      !routed
  in
  let route_one (e : Graph.edge) ~src_tile ~src_time ~dst_tile ~dst_time =
    let deadline = dst_time + edge_slack state e - 1 in
    if src_tile = dst_tile && deadline >= src_time then begin
      routed := { Mapping.edge = e; hops = [] } :: !routed;
      Ok ()
    end
    else
      match
        Router.route
          ~extra_cost:(fun ~tile ~time -> route_extra_cost state ~tile ~time)
          ~hop_width:(fun tile -> tile_width state tile)
          ~scratch:state.scratch ~stats:state.stats state.mrrg ~edge:e ~src_tile
          ~src_time ~dst_tile ~deadline
      with
      | Ok (hops, _) ->
        routed := { Mapping.edge = e; hops } :: !routed;
        Ok ()
      | Error msg -> Error msg
  in
  let rec process = function
    | [] -> Ok ()
    | step :: rest -> ( match step () with Ok () -> process rest | Error msg -> Error msg)
  in
  let pred_steps =
    List.filter_map
      (fun (e : Graph.edge) ->
        if not (is_placed state e.src) then None
        else
          let src_tile = state.place_tile.(e.src) and src_time = state.place_time.(e.src) in
          Some (fun () -> route_one e ~src_tile ~src_time ~dst_tile:tile ~dst_time:time))
      (Graph.predecessors state.dfg node)
  in
  let succ_steps =
    List.filter_map
      (fun (e : Graph.edge) ->
        if not (is_placed state e.dst) then None
        else
          let dst_tile = state.place_tile.(e.dst) and dst_time = state.place_time.(e.dst) in
          Some (fun () -> route_one e ~src_tile:tile ~src_time:time ~dst_tile ~dst_time))
      (Graph.successors state.dfg node)
  in
  match process (pred_steps @ succ_steps) with
  | Ok () -> Ok !routed
  | Error msg ->
    undo ();
    Error msg

(* --- helpers shared by the non-default backends ------------------- *)

(* Width-aware FU reservation for a node (commit mode widens slowed
   tiles); mirrors the inline claim/rollback of the greedy placer. *)
let reserve_fu state node tile time =
  let width = tile_width state tile in
  let rec claim k =
    if k = width then Ok ()
    else
      match Mrrg.reserve state.mrrg ~tile ~time:(time + k) Mrrg.Fu (Mrrg.Op_node node) with
      | Ok () -> claim (k + 1)
      | Error _ as err ->
        for undo = 0 to k - 1 do
          Mrrg.release state.mrrg ~tile ~time:(time + undo) Mrrg.Fu
        done;
        err
  in
  claim 0

let release_fu state tile time =
  for k = 0 to tile_width state tile - 1 do
    Mrrg.release state.mrrg ~tile ~time:(time + k) Mrrg.Fu
  done

(* Recompute tentative island levels from a complete placement (the
   greedy placer maintains them move-by-move; the SA placer shuffles
   nodes freely and rebuilds them once before routing). *)
let rebuild_island_levels state =
  Array.fill state.island_level 0 (Array.length state.island_level) None;
  match state.req.strategy with
  | Conventional -> ()
  | Dvfs_aware ->
    List.iter
      (fun node ->
        if is_placed state node then
          note_island state
            (Cgra.island_of state.req.cgra state.place_tile.(node))
            (label_of state node))
      (Graph.node_ids state.dfg)

(* Every dependence of a complete placement in one deterministic order
   (ascending producer id, then the producer's successor-edge order). *)
let all_deps state =
  List.concat_map
    (fun id -> Graph.successors state.dfg id)
    (Graph.node_ids state.dfg)

(* Route a complete placement edge-by-edge with the incremental
   Dijkstra router (first-come-first-served, no negotiation).  Used
   when an SA placement is paired with the [Incremental] router. *)
let route_complete state =
  let rec go = function
    | [] -> Ok ()
    | (e : Graph.edge) :: rest ->
      if not (is_placed state e.src && is_placed state e.dst) then
        Error (Printf.sprintf "edge n%d->n%d: endpoint unplaced" e.src e.dst)
      else begin
        let src_tile = state.place_tile.(e.src) and src_time = state.place_time.(e.src) in
        let dst_tile = state.place_tile.(e.dst) and dst_time = state.place_time.(e.dst) in
        let deadline = dst_time + edge_slack state e - 1 in
        if src_tile = dst_tile && deadline >= src_time then begin
          state.routes <- { Mapping.edge = e; hops = [] } :: state.routes;
          go rest
        end
        else
          match
            Router.route
              ~extra_cost:(fun ~tile ~time -> route_extra_cost state ~tile ~time)
              ~hop_width:(fun tile -> tile_width state tile)
              ~scratch:state.scratch ~stats:state.stats state.mrrg ~edge:e ~src_tile
              ~src_time ~dst_tile ~deadline
          with
          | Ok (hops, _) ->
            state.routes <- { Mapping.edge = e; hops } :: state.routes;
            go rest
          | Error msg -> Error msg
      end
  in
  go (all_deps state)
