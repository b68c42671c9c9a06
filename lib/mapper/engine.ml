open Iced_arch
open Iced_dfg
module Heap = Iced_util.Heap
module Mrrg = Iced_mrrg.Mrrg

type request = {
  cgra : Cgra.t;
  strategy : Cost.strategy;
  backend : Backend.t;
  tiles : int list option;
  label_floor : Dvfs.level;
  label_guard : int;
  max_ii : int;
  knobs : Cost.knobs;
  cancel : unit -> bool;
  dead_tiles : int list;
  dead_links : (int * Dir.t) list;
  commit_islands : bool;
}

let request ?(strategy = Cost.Dvfs_aware) ?(backend = Backend.default) ?tiles
    ?(label_floor = Dvfs.Rest) ?(label_guard = 0) ?(max_ii = 64)
    ?(knobs = Cost.all_knobs) ?(cancel = fun () -> false) ?(dead_tiles = [])
    ?(dead_links = []) ?(commit_islands = false) cgra =
  { cgra; strategy; backend; tiles; label_floor; label_guard; max_ii; knobs; cancel;
    dead_tiles; dead_links; commit_islands }

(* A node's start window on one tile, as [time_window] leaves it. *)
type window = { mutable est : int; mutable lst : int }

(* The greedy placer's candidate heap and the int scratch it is filled
   from, one per mapping run.  The scan fields describe the node last
   scanned and are overwritten by every scan; the drain fields are set
   by [collect_candidates] and read when [pop_candidate] expands a tile
   entry.  [window] is [time_window]'s result, which neither reads. *)
type candidates = {
  heap : Heap.t;
  (* scan: the node's placed neighbours, producers in [0, producers)
     and consumers in [producers, neighbours), each as its tile and an
     offset from which one pass derives the window bounds *)
  mutable nb_tile : int array;
  mutable nb_offset : int array;
  mutable producers : int;
  mutable neighbours : int;
  mutable start : int; (* the node's schedule estimate *)
  (* the last [measure]: window bounds and hop/wait cost on one tile *)
  mutable hard : int;
  mutable lst : int;
  mutable route : int;
  (* drain: per-node cost terms and, per tile, its window and tile cost *)
  mutable slope : int;
  mutable phased : bool;
  mutable tile_est : int array;
  mutable tile_last : int array;
  mutable tile_base : int array;
  window : window;
}

let create_candidates () =
  { heap = Heap.create (); nb_tile = [||]; nb_offset = [||]; producers = 0; neighbours = 0;
    start = 0; hard = 0; lst = max_int; route = 0; slope = 0; phased = false;
    tile_est = [||]; tile_last = [||]; tile_base = [||]; window = { est = 0; lst = max_int } }

(* Each node's producers (or consumers), flattened: entries [first.(v)]
   to [first.(v + 1) - 1] of [ends] and [periods] are node [v]'s, in
   edge-list order.  An edge's slack is linear in the II, so [periods]
   holds it at II 1 and its slack at [ii] is [periods.(i) * ii]. *)
type adjacency = { first : int array; ends : int array; periods : int array }

(* Per-node and per-island working state lives in flat arrays: node
   arrays are sized by the largest node id + 1 (ids may be sparse), so
   the cost model's reads are array loads, not hashtable probes. *)
type state = {
  dfg : Graph.t;
  req : request;
  tiles : int list;
  memory_tiles : int list;
  ii : int;
  labels : Dvfs.level array; (* node -> Algorithm 1 label, [Normal] under Conventional *)
  estimate : Estimate.t;
  cycle_mates : int list array;
      (* node -> members of the longest recurrence cycle through it, [] off
         cycles; read only, one per mapping run *)
  preds : adjacency; (* node -> producers; read only, one per mapping run *)
  succs : adjacency; (* node -> consumers; read only, one per mapping run *)
  geometry : Cgra.geometry; (* the fabric's tables, one per mapping run *)
  mrrg : Mrrg.t;
  place_tile : int array; (* node -> tile, -1 = unplaced *)
  place_time : int array; (* node -> start time, meaningful when placed *)
  mutable routes : Mapping.route list;
  island_level : Dvfs.level option array;
      (* island -> tentative level; only the DVFS-aware cost terms read it *)
  committed : (int, Dvfs.level) Hashtbl.t option; (* island -> level, commit mode *)
  scratch : Router.scratch; (* shared routing arena, one per mapping run *)
  candidates : candidates; (* the greedy placer's candidates, one per mapping run *)
  stats : Telemetry.t;
}

let node_slots dfg = 1 + List.fold_left max (-1) (Graph.node_ids dfg)

let adjacency dfg =
  let slots = node_slots dfg in
  let flatten edges endpoint =
    let first = Array.make (slots + 1) 0 in
    for v = 0 to slots - 1 do
      first.(v + 1) <- first.(v) + List.length (edges dfg v)
    done;
    let ends = Array.make first.(slots) 0 and periods = Array.make first.(slots) 0 in
    for v = 0 to slots - 1 do
      List.iteri
        (fun i (e : Graph.edge) ->
          ends.(first.(v) + i) <- endpoint e;
          periods.(first.(v) + i) <- Mapping.edge_slack dfg ~ii:1 e)
        (edges dfg v)
    done;
    { first; ends; periods }
  in
  (flatten Graph.predecessors (fun e -> e.src), flatten Graph.successors (fun e -> e.dst))

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

let edge_slack state e = Mapping.edge_slack state.dfg ~ii:state.ii e

let label_of state node = state.labels.(node)

let busy_count state tile = Mrrg.busy_slot_count state.mrrg ~tile

(* Tentative level of an island while mapping; [None] = not opened. *)
let tentative_level state island = state.island_level.(island)

(* Open [island] at [label], or raise its tentative level to [label]. *)
let note_island state island label =
  match state.island_level.(island) with
  | Some assigned when Dvfs.at_most label assigned -> ()
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
    match Hashtbl.find_opt table state.geometry.island.(tile) with
    | Some level when Dvfs.is_active level -> Dvfs.multiplier level
    | Some _ | None -> 1)

let committed_level state tile =
  match state.committed with
  | None -> None
  | Some table -> Hashtbl.find_opt table state.geometry.island.(tile)

(* The clock phase (mod m) an island's existing events agree on, if
   any: [`Empty] when the island has no events yet, [`Phase p] when all
   events fall on phase [p], [`Broken] when they already disagree (the
   island cannot be slowed, so alignment no longer matters). *)
let island_phase state island m = Mrrg.island_phase state.mrrg ~island ~modulo:m

(* Phase-misalignment penalty for scheduling an event on [tile] at
   [time], given the tile's island intends to run slowed.  Only
   meaningful when the multiplier divides the II, so [time] may be any
   time of its modulo slot. *)
let phase_penalty state ~weight tile time =
  if not state.req.knobs.Cost.phase_alignment then 0
  else
    let island = state.geometry.island.(tile) in
    match tentative_level state island with
    | None | Some Dvfs.Normal | Some Dvfs.Power_gated -> 0
    | Some ((Dvfs.Relax | Dvfs.Rest) as level) ->
      let m = Dvfs.multiplier level in
      if state.ii mod m <> 0 then 0
      else (
        match island_phase state island m with
        | `Empty | `Broken -> 0
        | `Phase p -> if time mod m = p then 0 else weight)

(* Router hop penalty: stay out of unopened islands (they could be
   power-gated) and respect slowed islands' phases. *)
let route_extra_cost state ~tile ~slot =
  match state.req.strategy with
  | Cost.Conventional -> 0
  | Cost.Dvfs_aware -> (
    match tentative_level state state.geometry.island.(tile) with
    | None -> Cost.route_open_island
    | Some _ -> phase_penalty state ~weight:Cost.route_misphase tile slot)

(* Append one neighbour to the scan arrays, doubling them when full. *)
let add_neighbour c tile offset =
  let n = c.neighbours in
  if n = Array.length c.nb_tile then begin
    let grow a =
      let b = Array.make (max 8 (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    c.nb_tile <- grow c.nb_tile;
    c.nb_offset <- grow c.nb_offset
  end;
  c.nb_tile.(n) <- tile;
  c.nb_offset.(n) <- offset;
  c.neighbours <- n + 1

(* Copy [node]'s placed neighbours into the scan arrays, producers
   first.  A producer's offset is [place_time + 1 - edge_slack] and a
   consumer's [place_time + edge_slack - 1], so on a tile at distance
   [dist] the producer's arrival bound is [offset + dist] and the
   consumer's latest start [offset - dist]. *)
let scan state node =
  let c = state.candidates and preds = state.preds and succs = state.succs in
  let ii = state.ii in
  c.neighbours <- 0;
  for i = preds.first.(node) to preds.first.(node + 1) - 1 do
    let src = preds.ends.(i) in
    if is_placed state src then
      add_neighbour c state.place_tile.(src)
        (state.place_time.(src) + 1 - (preds.periods.(i) * ii))
  done;
  c.producers <- c.neighbours;
  for i = succs.first.(node) to succs.first.(node + 1) - 1 do
    let dst = succs.ends.(i) in
    if is_placed state dst then
      add_neighbour c state.place_tile.(dst)
        (state.place_time.(dst) + (succs.periods.(i) * ii) - 1)
  done;
  c.start <- Estimate.start state.estimate node

(* One pass over the scanned neighbours for [tile]: [hard], the latest
   producer arrival bound (at least 0); [lst], the earliest consumer
   deadline ([max_int] = none); and [route], the hop cost to every
   neighbour minus [Cost.wait] times the sum of the producers' bounds. *)
let measure state tile =
  let c = state.candidates and geometry = state.geometry in
  let hard = ref 0 and lst = ref max_int and route = ref 0 in
  for i = 0 to c.producers - 1 do
    let dist = Cgra.hops geometry c.nb_tile.(i) tile in
    let bound = c.nb_offset.(i) + dist in
    if bound > !hard then hard := bound;
    route := !route + (Router.hop_cost * dist) - (Cost.wait * bound)
  done;
  for i = c.producers to c.neighbours - 1 do
    let dist = Cgra.hops geometry tile c.nb_tile.(i) in
    let bound = c.nb_offset.(i) - dist in
    if bound < !lst then lst := bound;
    route := !route + (Router.hop_cost * dist)
  done;
  c.hard <- !hard;
  c.lst <- !lst;
  c.route <- !route

(* The window rule.  [hard] comes from already-placed producers (a true
   lower bound); [soft] additionally honours the node's precomputed
   schedule estimate so that, e.g., a critical phi is not pinned so
   early that its carried producer can never meet the deadline; [lst]
   is the latest start admissible given already-placed consumers.  The
   soft bound is only a guess, so it yields toward [hard] whenever
   honouring it would close the window against [lst]. *)
let window_start ~hard ~lst ~start =
  let soft = max hard start in
  if lst <> max_int && soft > lst then max hard (min soft lst) else soft

(* [measure]'s [hard] and [lst] for one tile, read straight from the
   flat producer and consumer arrays: an annealing move asks for one
   tile's window, so it fills no scan array and sums no route term. *)
let time_window state node tile =
  let geometry = state.geometry and preds = state.preds and succs = state.succs in
  let ii = state.ii in
  let hard = ref 0 and lst = ref max_int in
  for i = preds.first.(node) to preds.first.(node + 1) - 1 do
    let src = preds.ends.(i) in
    let src_tile = state.place_tile.(src) in
    if src_tile >= 0 then begin
      let bound =
        state.place_time.(src) + 1 - (preds.periods.(i) * ii) + Cgra.hops geometry src_tile tile
      in
      if bound > !hard then hard := bound
    end
  done;
  for i = succs.first.(node) to succs.first.(node + 1) - 1 do
    let dst = succs.ends.(i) in
    let dst_tile = state.place_tile.(dst) in
    if dst_tile >= 0 then begin
      let bound =
        state.place_time.(dst) + (succs.periods.(i) * ii) - 1 - Cgra.hops geometry tile dst_tile
      in
      if bound < !lst then lst := bound
    end
  done;
  let w = state.candidates.window in
  w.est <- window_start ~hard:!hard ~lst:!lst ~start:(Estimate.start state.estimate node);
  w.lst <- !lst;
  w

(* A candidate's placement cost is a lower bound that never touches the
   router.  Within the window, placing the node on [tile] at [time]
   costs [base + slope * time + phase]:
   - [base] is every tile-only term: [measure]'s [route] (hop costs to
     placed neighbours, [-Cost.wait] times the producers' bounds) plus
     [tile_terms];
   - [slope] is [Cost.wait] per placed producer, whose wait is
     [time - bound].  The wait is never negative there: the window's
     earliest start is at least every producer's bound;
   - [phase] is the phase-alignment penalty, which depends on [time]
     only modulo the island's multiplier.
   [tile_terms] is the recurrence-capacity penalty plus the island
   affinity and packing or spread terms, given the node's [label],
   whether it is [on_cycle], and how many of its cycle mates are
   [unplaced]. *)
let tile_terms state ~label ~on_cycle ~unplaced tile =
  let busy = busy_count state tile in
  (* A recurrence cycle must usually close on one tile (hops cost 2
     cycles each); opening it on a tile that cannot seat its remaining
     members forces a split and a larger II. *)
  let capacity_penalty = if on_cycle && busy + unplaced > state.ii then 400 else 0 in
  let strategy_cost =
    match state.req.strategy with
    | Cost.Conventional ->
      (* The conventional mapper balances load across the fabric (the
         paper: it "might assign two dependent DFG nodes onto two tiles
         that are far away from each other as long as the II is not
         violated"), except for recurrence-cycle nodes, which must stay
         packed to close their cycles.  The scattering is what leaves
         per-tile DVFS so little to power-gate. *)
      (if on_cycle then Cost.pack else Cost.spread) * busy
    | Cost.Dvfs_aware -> (
      (* Packing and phase alignment only matter for nodes that might
         run slowed; biasing critical (normal-labeled) nodes with them
         costs II for no DVFS benefit. *)
      let bias =
        if label = Dvfs.Normal || not state.req.knobs.Cost.packing then 0
        else -Cost.pack * busy
      in
      if not state.req.knobs.Cost.island_affinity then bias
      else
        match tentative_level state state.geometry.island.(tile) with
        | None -> Cost.open_island + bias
        | Some assigned ->
          let surplus = Dvfs.rank assigned - Dvfs.rank label in
          if surplus >= 0 then (Cost.over_provision * surplus) + bias
          else Cost.island_raise + bias)
  in
  strategy_cost + capacity_penalty

(* Refill the heap with one entry per tile of [tiles] whose window is
   not empty.  A slot's key packs [(cost, tile, time)] into one int
   ordered as [compare] orders the tuples: [cost * span + rank], where
   the rank [tile * ii + (time - est)] stays below [span = tile_count *
   ii].  A tile entry's key, [(base + slope * est) * span + tile * ii],
   is at most each of its slots' keys and differs from every other
   entry's, so expanding tile entries as they come up ([pop_candidate])
   pops the slots in exactly that order.  Slot payloads are [time *
   tile_count + tile]; a tile entry's is [-1 - tile]. *)
let collect_candidates state node tiles =
  let c = state.candidates in
  let tile_count = Cgra.tile_count state.req.cgra in
  let ii = state.ii in
  let span = tile_count * ii in
  if Array.length c.tile_base < tile_count then begin
    c.tile_est <- Array.make tile_count 0;
    c.tile_last <- Array.make tile_count 0;
    c.tile_base <- Array.make tile_count 0
  end;
  scan state node;
  let label = label_of state node in
  let mates = state.cycle_mates.(node) in
  let on_cycle = mates <> [] in
  let unplaced = List.fold_left (fun n m -> if is_placed state m then n else n + 1) 0 mates in
  c.slope <- Cost.wait * c.producers;
  (* like packing, phase alignment biases only nodes that might run slowed *)
  c.phased <- label <> Dvfs.Normal;
  Heap.clear c.heap;
  List.iter
    (fun tile ->
      measure state tile;
      let est = window_start ~hard:c.hard ~lst:c.lst ~start:c.start in
      let last = min (est + ii - 1) c.lst in
      if last >= est then begin
        let base = c.route + tile_terms state ~label ~on_cycle ~unplaced tile in
        c.tile_est.(tile) <- est;
        c.tile_last.(tile) <- last;
        c.tile_base.(tile) <- base;
        Heap.push c.heap (((base + (c.slope * est)) * span) + (tile * ii)) (-1 - tile)
      end)
    tiles

(* Push every free FU slot of [tile]'s window under its exact key. *)
let expand state tile =
  let c = state.candidates in
  let tile_count = Cgra.tile_count state.req.cgra in
  let ii = state.ii in
  let span = tile_count * ii in
  let est = c.tile_est.(tile) and base = c.tile_base.(tile) in
  for time = est to c.tile_last.(tile) do
    if Mrrg.is_free state.mrrg ~tile ~time Mrrg.Fu then begin
      let phase = if c.phased then phase_penalty state ~weight:Cost.phase tile time else 0 in
      Heap.push c.heap
        (((base + (c.slope * time) + phase) * span) + (tile * ii) + (time - est))
        ((time * tile_count) + tile)
    end
  done

(* Remove the cheapest slot left, as [(tile, time)], expanding the tile
   entries that come up first. *)
let rec pop_candidate state =
  let heap = state.candidates.heap in
  if Heap.is_empty heap then None
  else
    let entry = Heap.pop heap in
    if entry < 0 then begin
      expand state (-1 - entry);
      pop_candidate state
    end
    else
      let tile_count = Cgra.tile_count state.req.cgra in
      Some (entry mod tile_count, entry / tile_count)

(* Route dependence [e] from its producer at (src_tile, src_time) to
   its consumer at (dst_tile, dst_time), reserving MRRG ports under the
   state's DVFS pricing; a same-tile edge whose deadline admits the
   producer needs no hops. *)
let route_edge state (e : Graph.edge) ~src_tile ~src_time ~dst_tile ~dst_time =
  let deadline = dst_time + edge_slack state e - 1 in
  if src_tile = dst_tile && deadline >= src_time then Ok { Mapping.edge = e; hops = [] }
  else
    match
      Router.route
        ~extra_cost:(fun ~tile ~slot -> route_extra_cost state ~tile ~slot)
        ~hop_width:(fun tile -> tile_width state tile)
        ~scratch:state.scratch ~stats:state.stats state.mrrg ~edge:e ~src_tile ~src_time
        ~dst_tile ~deadline
    with
    | Ok (hops, _) -> Ok { Mapping.edge = e; hops }
    | Error msg -> Error msg

(* Route every dependence between [node] (placed at tile/time) and its
   already-placed neighbours, producers first.  On failure undo all
   reservations made here and report. *)
let route_incident state node tile time =
  let incident =
    List.filter_map
      (fun (e : Graph.edge) ->
        if is_placed state e.src then
          Some (e, state.place_tile.(e.src), state.place_time.(e.src), tile, time)
        else None)
      (Graph.predecessors state.dfg node)
    @ List.filter_map
        (fun (e : Graph.edge) ->
          if is_placed state e.dst then
            Some (e, tile, time, state.place_tile.(e.dst), state.place_time.(e.dst))
          else None)
        (Graph.successors state.dfg node)
  in
  let rec go routed = function
    | [] -> Ok routed
    | (e, src_tile, src_time, dst_tile, dst_time) :: rest -> (
      match route_edge state e ~src_tile ~src_time ~dst_tile ~dst_time with
      | Ok r -> go (r :: routed) rest
      | Error msg ->
        List.iter (fun (r : Mapping.route) -> Router.release state.mrrg r.hops r.edge) routed;
        Error msg)
  in
  go [] incident

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

let fu_fits state node tile time =
  let width = tile_width state tile in
  let rec fits k =
    k = width || (Mrrg.fu_holds_or_free state.mrrg ~tile ~time:(time + k) node && fits (k + 1))
  in
  fits 0

let release_fu state tile time =
  for k = 0 to tile_width state tile - 1 do
    Mrrg.release state.mrrg ~tile ~time:(time + k) Mrrg.Fu
  done

(* Recompute tentative island levels from a complete placement (the
   greedy placer maintains them move-by-move; the SA placer shuffles
   nodes freely and rebuilds them once before routing). *)
let rebuild_island_levels state =
  Array.fill state.island_level 0 (Array.length state.island_level) None;
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
