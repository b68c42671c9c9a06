open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg
module Obs = Iced_obs.Trace
module Clock = Iced_obs.Clock

type strategy = Cost.strategy = Conventional | Dvfs_aware
type request = Engine.request
type stats = Telemetry.t

let request = Engine.request
let create_stats = Telemetry.create
let merge_stats = Telemetry.merge

(* Run the request's placer/router pair over a prepared attempt state.
   The default pair is special: greedy placement and incremental
   routing are fused (each node's deps are routed as it is placed, and
   unroutable placements are undone candidate by candidate) — that
   exact interleaving is what the golden corpus pins.  The other two
   decouple the phases: place everything, rebuild the island
   bookkeeping, then negotiate routes for the complete placement. *)
let place_and_route (state : Engine.state) order =
  let negotiate = function
    | Error _ as e -> e
    | Ok () ->
      Engine.rebuild_island_levels state;
      Pathfinder.route_all state
  in
  match state.req.backend with
  | Backend.Default -> Greedy.place_all ~route:true state order
  | Backend.Pathfinder -> negotiate (Greedy.place_all ~route:false state order)
  | Backend.Sa seed -> negotiate (Anneal.place ~seed state order)

(* Everything an attempt needs that depends on the DFG alone, derived
   once per mapping run and shared by every II, margin and cost-model
   attempt. *)
type context = {
  recurrences : Analysis.recurrences;
  labeling : Labeling.plan Lazy.t;  (* forced by the first DVFS-aware attempt *)
  estimate : Estimate.plan;  (* holds the intra-iteration topological order *)
  cycle_mates : int list array;
      (* node -> members of the longest recurrence cycle through it *)
  preds : Engine.adjacency;  (* node -> producers *)
  succs : Engine.adjacency;  (* node -> consumers *)
  order : int list;  (* placement order *)
}

(* Placement order.  Two rules, both standard in modulo scheduling:
   - nodes on the tightest recurrence cycles go first (a cycle of
     length L must close within II * distance, so its members must grab
     adjacent slots before unconstrained nodes squat on them);
   - every other phi is deferred until just after its carried
     producers: its window [t_prod + 1 - d*II, t_consumer - 1] is then
     exact, with no reliance on ASAP guesses.  Consumers placed before
     such a phi see no hard bound from it (the phi's value arrives from
     a previous iteration). *)
let placement_order dfg (r : Analysis.recurrences) topo =
  let critical = r.Analysis.critical in
  let carried_producers id =
    List.filter_map
      (fun (e : Graph.edge) -> if e.distance > 0 then Some e.src else None)
      (Graph.predecessors dfg id)
  in
  let share_cycle a b =
    List.exists
      (fun (c : Analysis.cycle) -> List.mem a c.members && List.mem b c.members)
      r.Analysis.cycles
  in
  let deferred id =
    (Graph.node dfg id).op = Op.Phi
    && carried_producers id <> []
    && (not (List.mem id critical))
    (* deferral is only safe when every consumer lies on the phi's own
       cycle: off-cycle consumers placed first would pin the phi from
       several scattered tiles at once *)
    && List.for_all
         (fun (e : Graph.edge) -> e.distance > 0 || share_cycle id e.dst)
         (Graph.successors dfg id)
  in
  let critical_first = List.filter (fun id -> List.mem id critical) topo in
  let plain_body =
    List.filter (fun id -> (not (List.mem id critical)) && not (deferred id)) topo
  in
  let insert_after_producers body phi =
    let producers = List.filter (fun p -> List.mem p body) (carried_producers phi) in
    if producers = [] then phi :: body
    else begin
      let rec go remaining = function
        | [] -> [ phi ]
        | id :: rest ->
          let remaining = List.filter (fun p -> p <> id) remaining in
          if remaining = [] then id :: phi :: rest else id :: go remaining rest
      in
      go producers body
    end
  in
  critical_first @ List.fold_left insert_after_producers plain_body (List.filter deferred topo)

(* [dfg] has passed [Graph.validate], so its intra subgraph is acyclic. *)
let context dfg =
  let topo =
    match Graph.intra_topological dfg with
    | Some topo -> topo
    | None -> invalid_arg "Mapper.context: cyclic intra-iteration subgraph"
  in
  let recurrences = Analysis.recurrences dfg in
  let cycle_mates = Array.make (Engine.node_slots dfg) [] in
  List.iter
    (fun (c : Analysis.cycle) ->
      List.iter
        (fun id ->
          if List.length cycle_mates.(id) < List.length c.members then
            cycle_mates.(id) <- c.members)
        c.members)
    recurrences.Analysis.cycles;
  let preds, succs = Engine.adjacency dfg in
  {
    recurrences;
    labeling = lazy (Labeling.plan dfg);
    estimate = Estimate.plan dfg ~cycles:recurrences.Analysis.cycles ~topo;
    cycle_mates;
    preds;
    succs;
    order = placement_order dfg recurrences topo;
  }

(* The request's placement tiles (its sub-fabric minus dead tiles,
   ascending) and memory tiles (the westmost column among them). *)
let fabric (req : request) =
  let tiles =
    let requested =
      match req.tiles with
      | Some ts -> List.sort_uniq compare ts
      | None -> List.init (Cgra.tile_count req.cgra) (fun i -> i)
    in
    List.filter (fun t -> not (List.mem t req.dead_tiles)) requested
  in
  let col_of tile = snd (Cgra.position req.cgra tile) in
  let min_col = List.fold_left (fun acc t -> min acc (col_of t)) max_int tiles in
  (tiles, List.filter (fun t -> col_of t = min_col) tiles)

(* What every attempt of a run shares, or why there is nothing to map. *)
let setup (req : request) dfg =
  match Graph.validate dfg with
  | Error msg -> Error ("invalid DFG: " ^ msg)
  | Ok () when Graph.node_count dfg = 0 -> Error "empty DFG"
  | Ok () ->
    let tiles, memory_tiles = fabric req in
    if tiles = [] then
      Error
        (if req.dead_tiles = [] then "empty tile set"
         else "empty tile set (every tile of the sub-fabric is faulted)")
    else Ok (tiles, memory_tiles, context dfg)

(* A fresh attempt state at [ii] and [margin]: labels, committed
   islands, schedule estimate and an empty MRRG; nothing placed. *)
let attempt_state ~scratch ~candidates ~stats ~ctx (req : request) dfg ~tiles
    ~memory_tiles ~ii ~margin =
  let labels =
    match req.strategy with
    | Cost.Conventional -> List.map (fun id -> (id, Dvfs.Normal)) (Graph.node_ids dfg)
    | Cost.Dvfs_aware ->
      Labeling.apply ~floor:req.label_floor ~guard:req.label_guard
        (Lazy.force ctx.labeling) ~cgra:req.cgra ~tiles ~ii
  in
  let committed =
    if not req.commit_islands then None
    else begin
      (* island quota per level from the labels: how many islands'
         worth of tile-time each level's nodes need (a slowed node
         occupies multiplier-many slots); at least one island per
         level that has any demand, faster levels served first *)
      let islands = List.sort_uniq compare (List.map (Cgra.island_of req.cgra) tiles) in
      let island_slots =
        match islands with
        | [] -> 1
        | i :: _ -> List.length (Cgra.island_tiles req.cgra i) * ii
      in
      let demand level =
        List.fold_left
          (fun acc (_, l) -> if l = level then acc + Dvfs.multiplier level else acc)
          0 labels
      in
      let want level =
        let d = demand level in
        if d = 0 then 0 else max 1 ((d + island_slots - 1) / island_slots)
      in
      let table = Hashtbl.create 16 in
      (* Slowed islands are allocated minimally, from the end of the
         island list (away from the SPM column); everything left is
         Normal — surplus normal islands cost nothing (the critical
         path needs room, and idle ones are power-gated anyway),
         whereas a starved normal quota would fragment the critical
         cycle across islands and destroy the II. *)
      let rec take_from_end islands levels =
        match levels with
        | [] -> List.iter (fun i -> Hashtbl.replace table i Dvfs.Normal) islands
        | level :: faster ->
          let n = min (want level) (max 0 (List.length islands - 1)) in
          let cut = List.length islands - n in
          let keep = List.filteri (fun i _ -> i < cut) islands in
          let taken = List.filteri (fun i _ -> i >= cut) islands in
          List.iter (fun i -> Hashtbl.replace table i level) taken;
          take_from_end keep faster
      in
      take_from_end islands [ Dvfs.Rest; Dvfs.Relax ];
      Some table
    end
  in
  let slots = Engine.node_slots dfg in
  ( labels,
    {
      Engine.dfg;
      req;
      tiles;
      memory_tiles;
      ii;
      labels =
        (let table = Array.make slots Dvfs.Normal in
         List.iter (fun (id, level) -> table.(id) <- level) labels;
         table);
      estimate = Estimate.build ctx.estimate ~ii ~margin;
      cycle_mates = ctx.cycle_mates;
      preds = ctx.preds;
      succs = ctx.succs;
      geometry = Router.geometry scratch req.cgra;
      mrrg = Mrrg.create ~tiles ~dead_links:req.dead_links req.cgra ~ii;
      place_tile = Array.make slots (-1);
      place_time = Array.make slots 0;
      routes = [];
      island_level = Array.make (Cgra.island_count req.cgra) None;
      committed;
      scratch;
      candidates;
      stats;
    } )

let attempt req dfg ~ii ~margin =
  match setup req dfg with
  | Error msg -> invalid_arg ("Mapper.attempt: " ^ msg)
  | Ok (tiles, memory_tiles, ctx) ->
    let _, state =
      attempt_state ~scratch:(Router.create_scratch ()) ~candidates:(Engine.create_candidates ())
        ~stats:(Telemetry.create ()) ~ctx req dfg ~tiles ~memory_tiles ~ii ~margin
    in
    (state, ctx.order)

let attempt_ii ~scratch ~candidates ~stats ~ctx (req : request) dfg ~tiles ~memory_tiles ~ii
    ~margin =
  let labels, state =
    attempt_state ~scratch ~candidates ~stats ~ctx req dfg ~tiles ~memory_tiles ~ii ~margin
  in
  match place_and_route state ctx.order with
  | Error _ as e -> e
  | Ok () ->
    Ok
      {
        Mapping.dfg;
        cgra = req.cgra;
        ii;
        tiles;
        memory_tiles;
        placements = Engine.placements state;
        routes = state.Engine.routes;
        labels;
        island_levels = List.map (fun island -> (island, Dvfs.Normal)) (Cgra.islands req.cgra);
      }

(* The attempts at one II, in order: each cost model with each margin
   of its ladder, tagged with the margin's ladder position.  The
   DVFS-aware cost model must never cost II (the paper reports no
   performance loss for 2x2 islands): when its biases make an II
   infeasible, the conventional cost model retries the same II — the
   post-pass level assignment still lowers whatever aligns.  The
   committed-islands study and the fallback ablation measure precisely
   what the DVFS-aware cost model costs, so they get no fallback.
   Every margin of a ladder the estimate ignores builds the same
   attempt, which fails the same way, so only the first is tried. *)
let ii_attempts ctx (req : request) =
  let models =
    match req.strategy with
    | Cost.Dvfs_aware when req.knobs.Cost.conventional_fallback && not req.commit_islands ->
      [ req; { req with strategy = Cost.Conventional } ]
    | Cost.Conventional | Cost.Dvfs_aware -> [ req ]
  in
  List.concat_map
    (fun (req : request) ->
      let ladder = if req.commit_islands then Cost.committed_margins else Cost.asap_margins in
      let ladder = if Estimate.uses_margin ctx.estimate then ladder else [ List.hd ladder ] in
      List.mapi (fun position margin -> (req, position, margin)) ladder)
    models

let map ?stats (req : request) dfg =
  let t = Telemetry.create () in
  let scratch = Router.create_scratch () in
  let candidates = Engine.create_candidates () in
  let t0 = Clock.now () in
  let compute () =
    match setup req dfg with
    | Error _ as e -> e
    | Ok (tiles, memory_tiles, ctx) ->
      let attempts = ii_attempts ctx req in
      let rec first_mapping ~ii last_err = function
        | [] -> Error last_err
        | (req, position, margin) :: rest -> (
          t.Telemetry.attempts <- t.Telemetry.attempts + 1;
          t.Telemetry.margin_position <- position;
          match
            attempt_ii ~scratch ~candidates ~stats:t ~ctx req dfg ~tiles ~memory_tiles ~ii
              ~margin
          with
          | Ok mapping -> Ok mapping
          | Error msg -> first_mapping ~ii msg rest)
      in
      let at_ii ii last_err =
        let ii_t0 = Clock.now () in
        let outcome = first_mapping ~ii last_err attempts in
        Telemetry.add_ii_time t ~ii (Clock.now () -. ii_t0);
        Obs.counter ~cat:"mapper" ~name:"telemetry" (fun () ->
            [
              ("attempts", float_of_int t.Telemetry.attempts);
              ("placements", float_of_int t.Telemetry.placements_tried);
              ("route_calls", float_of_int t.Telemetry.route_calls);
              ("expansions", float_of_int t.Telemetry.expansions);
            ]);
        outcome
      in
      (* Algorithm 2's ladder: from max(RecMII, ResMII) up to max_ii *)
      let rec search ii last_err =
        if req.cancel () then
          Error (Printf.sprintf "deadline exceeded at II=%d (last: %s)" ii last_err)
        else if ii > req.max_ii then
          Error (Printf.sprintf "no mapping up to II=%d (last: %s)" req.max_ii last_err)
        else
          match
            Obs.span
              ~args:(fun () -> [ ("ii", Obs.Int ii) ])
              ~result:(function
                | Ok _ -> [ ("ok", Obs.Bool true) ]
                | Error msg -> [ ("error", Obs.Str msg) ])
              ~cat:"mapper" ~name:"ii"
              (fun () -> at_ii ii last_err)
          with
          | Ok mapping -> Ok mapping
          | Error msg ->
            t.Telemetry.ii_bumps <- t.Telemetry.ii_bumps + 1;
            Obs.instant
              ~args:(fun () -> [ ("from_ii", Obs.Int ii); ("reason", Obs.Str msg) ])
              ~cat:"mapper" ~name:"ii_bump" ();
            search (ii + 1) msg
      in
      search
        (max ctx.recurrences.Analysis.rec_mii (Analysis.res_mii dfg ~tiles:(List.length tiles)))
        "none"
  in
  let result =
    Obs.span
      ~args:(fun () ->
        [
          ("nodes", Obs.Int (Graph.node_count dfg));
          ("backend", Obs.Str (Backend.to_string req.backend));
        ])
      ~result:(function
        | Ok m -> [ ("ii", Obs.Int m.Mapping.ii) ]
        | Error msg -> [ ("error", Obs.Str msg) ])
      ~cat:"mapper" ~name:"map" compute
  in
  t.Telemetry.wall_s <- Clock.now () -. t0;
  (match stats with Some sink -> Telemetry.merge ~into:sink t | None -> ());
  Iced_obs.Metrics.incr "mapper.runs";
  Iced_obs.Metrics.incr ~by:t.Telemetry.attempts "mapper.attempts";
  Iced_obs.Metrics.incr ~by:t.Telemetry.route_calls "mapper.route_calls";
  Iced_obs.Metrics.observe "mapper.wall_s" t.Telemetry.wall_s;
  result

let map_exn ?stats req dfg =
  match map ?stats req dfg with
  | Ok m -> m
  | Error msg -> failwith ("Mapper.map: " ^ msg)
