open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg
module Obs = Iced_obs.Trace

type strategy = Cost.strategy = Conventional | Dvfs_aware

type knobs = Cost.knobs = {
  island_affinity : bool;
  packing : bool;
  phase_alignment : bool;
  conventional_fallback : bool;
}

type request = Engine.request = {
  cgra : Cgra.t;
  strategy : strategy;
  backend : Backend.t;
  tiles : int list option;
  memory_tiles : int list option;
  label_floor : Dvfs.level;
  label_guard : int;
  max_ii : int;
  knobs : knobs;
  cancel : unit -> bool;
  dead_tiles : int list;
  dead_links : (int * Dir.t) list;
  commit_islands : bool;
}

let request = Engine.request

(* Run the request's placer/router pair over a prepared attempt state.
   The default pair is special: greedy placement and incremental
   routing are fused (each node's deps are routed as it is placed, and
   unroutable placements are undone candidate by candidate) — that
   exact interleaving is what the golden corpus pins.  Every other
   pair decouples the phases: place everything, rebuild the island
   bookkeeping, then route the complete placement. *)
let place_and_route (state : Engine.state) order =
  match (state.req.backend.Backend.placer, state.req.backend.Backend.router) with
  | Backend.Greedy, Backend.Incremental -> Greedy.place_all ~route:true state order
  | placer, router -> (
    let placed =
      match placer with
      | Backend.Greedy -> Greedy.place_all ~route:false state order
      | Backend.Annealing p -> Anneal.place p state order
    in
    match placed with
    | Error _ as e -> e
    | Ok () ->
      Engine.rebuild_island_levels state;
      (match router with
      | Backend.Incremental -> Engine.route_complete state
      | Backend.Negotiated p -> Pathfinder.route_all p state))

let attempt_ii ~scratch ~stats req dfg ~tiles ~memory_tiles ~ii ~margin =
  let labels =
    match req.strategy with
    | Conventional -> List.map (fun id -> (id, Dvfs.Normal)) (Graph.node_ids dfg)
    | Dvfs_aware ->
      Labeling.label ~floor:req.label_floor ~guard:req.label_guard dfg ~cgra:req.cgra ~tiles
        ~ii
  in
  match Graph.intra_topological dfg with
  | None -> Error "cyclic intra-iteration subgraph"
  | Some topo ->
    let committed =
      if not req.commit_islands then None
      else begin
        (* island quota per level from the labels: how many islands'
           worth of tile-time each level's nodes need (a slowed node
           occupies multiplier-many slots); at least one island per
           level that has any demand, faster levels served first *)
        let islands =
          List.sort_uniq compare (List.map (Cgra.island_of req.cgra) tiles)
        in
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
    let state =
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
        estimate = Estimate.build dfg ~ii ~margin ~topo;
        cycle_mates =
          (let table = Array.make slots [] in
           List.iter
             (fun (c : Analysis.cycle) ->
               List.iter
                 (fun id ->
                   if List.length table.(id) < List.length c.members then
                     table.(id) <- c.members)
                 c.members)
             (Analysis.recurrence_cycles dfg);
           table);
        mrrg = Mrrg.create ~tiles ~dead_links:req.dead_links req.cgra ~ii;
        place_tile = Array.make slots (-1);
        place_time = Array.make slots 0;
        routes = [];
        island_level = Array.make (Cgra.island_count req.cgra) None;
        committed;
        scratch;
        stats;
      }
    in
    (* Placement order.  Two rules, both standard in modulo
       scheduling:
       - nodes on the tightest recurrence cycles go first (a cycle of
         length L must close within II * distance, so its members must
         grab adjacent slots before unconstrained nodes squat on them);
       - every other phi is deferred until just after its carried
         producers: its window [t_prod + 1 - d*II, t_consumer - 1] is
         then exact, with no reliance on ASAP guesses.  Consumers placed
         before such a phi see no hard bound from it (the phi's value
         arrives from a previous iteration). *)
    let critical = Analysis.critical_nodes dfg in
    let carried_producers id =
      List.filter_map
        (fun (e : Graph.edge) -> if e.distance > 0 then Some e.src else None)
        (Graph.predecessors dfg id)
    in
    let cycles = Analysis.recurrence_cycles dfg in
    let share_cycle a b =
      List.exists
        (fun (c : Analysis.cycle) -> List.mem a c.members && List.mem b c.members)
        cycles
    in
    let deferred id =
      (Graph.node dfg id).op = Op.Phi
      && carried_producers id <> []
      && (not (List.mem id critical))
      (* deferral is only safe when every consumer lies on the phi's
         own cycle: off-cycle consumers placed first would pin the phi
         from several scattered tiles at once *)
      && List.for_all
           (fun (e : Graph.edge) -> e.distance > 0 || share_cycle id e.dst)
           (Graph.successors dfg id)
    in
    let critical_first = List.filter (fun id -> List.mem id critical) topo in
    let plain_body =
      List.filter (fun id -> (not (List.mem id critical)) && not (deferred id)) topo
    in
    let insert_after_producers body phi =
      let producers =
        List.filter (fun p -> List.mem p body) (carried_producers phi)
      in
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
    let order =
      critical_first
      @ List.fold_left insert_after_producers plain_body (List.filter deferred topo)
    in
    (match place_and_route state order with
    | Error _ as e -> e
    | Ok () ->
      let placements = Engine.placements state in
      Ok
        {
          Mapping.dfg;
          cgra = req.cgra;
          ii;
          tiles;
          memory_tiles;
          placements;
          routes = state.Engine.routes;
          labels;
          island_levels =
            List.map (fun island -> (island, Dvfs.Normal)) (Cgra.islands req.cgra);
        })

let run ?stats (req : request) dfg =
  let t = Telemetry.create () in
  let scratch = Router.create_scratch () in
  let t0 = Unix.gettimeofday () in
  let compute () =
    match Graph.validate dfg with
    | Error msg -> Error ("invalid DFG: " ^ msg)
    | Ok () ->
      if Graph.node_count dfg = 0 then Error "empty DFG"
      else begin
        let tiles =
          let requested =
            match req.tiles with
            | Some ts -> List.sort_uniq compare ts
            | None -> List.init (Cgra.tile_count req.cgra) (fun i -> i)
          in
          List.filter (fun t -> not (List.mem t req.dead_tiles)) requested
        in
        if tiles = [] then
          Error
            (if req.dead_tiles = [] then "empty tile set"
             else "empty tile set (every tile of the sub-fabric is faulted)")
        else begin
          let memory_tiles =
            match req.memory_tiles with
            | Some ts -> List.filter (fun t -> not (List.mem t req.dead_tiles)) ts
            | None ->
              let col_of tile = snd (Cgra.position req.cgra tile) in
              let min_col = List.fold_left (fun acc t -> min acc (col_of t)) max_int tiles in
              List.filter (fun t -> col_of t = min_col) tiles
          in
          let start_ii = Analysis.min_ii dfg ~tiles:(List.length tiles) in
          let rec search ii last_err =
            if req.cancel () then
              Error (Printf.sprintf "deadline exceeded at II=%d (last: %s)" ii last_err)
            else if ii > req.max_ii then
              Error
                (Printf.sprintf "no mapping up to II=%d (last: %s)" req.max_ii last_err)
            else begin
              let attempt_block () =
              let ii_t0 = Unix.gettimeofday () in
              let rec margins req last_err position = function
                | [] -> Error last_err
                | margin :: rest -> (
                  t.Telemetry.attempts <- t.Telemetry.attempts + 1;
                  t.Telemetry.margin_position <- position;
                  match
                    attempt_ii ~scratch ~stats:t req dfg ~tiles ~memory_tiles ~ii ~margin
                  with
                  | Ok mapping -> Ok mapping
                  | Error msg -> margins req msg (position + 1) rest)
              in
              let attempts =
                (* The DVFS-aware cost model must never cost II (the paper
                   reports no performance loss for 2x2 islands): when its
                   biases make an II infeasible, fall back to the
                   conventional cost model at the same II — the post-pass
                   level assignment still lowers whatever aligns. *)
                match req.strategy with
                | Conventional -> [ req ]
                | Dvfs_aware when req.commit_islands || not req.knobs.conventional_fallback ->
                  (* the committed-islands study (and the fallback
                     ablation) measure precisely what the DVFS-aware cost
                     model costs: no fallback *)
                  [ req ]
                | Dvfs_aware -> [ req; { req with strategy = Conventional } ]
              in
              let rec try_attempts last_err = function
                | [] -> Error last_err
                | req :: rest -> (
                  match
                    margins req last_err 0
                      (if req.commit_islands then Cost.committed_margins
                       else Cost.asap_margins)
                  with
                  | Ok mapping -> Ok mapping
                  | Error msg -> try_attempts msg rest)
              in
              let outcome = try_attempts last_err attempts in
              Telemetry.add_ii_time t ~ii (Unix.gettimeofday () -. ii_t0);
              outcome
              in
              let outcome =
                if not (Obs.enabled ()) then attempt_block ()
                else
                  Obs.with_span
                    ~args:[ ("ii", Obs.Int ii) ]
                    ~cat:"mapper" ~name:"ii"
                    (fun () ->
                      let o = attempt_block () in
                      (match o with
                      | Ok _ -> Obs.span_arg "ok" (Obs.Bool true)
                      | Error msg -> Obs.span_arg "error" (Obs.Str msg));
                      Obs.counter ~cat:"mapper" ~name:"telemetry"
                        [
                          ("attempts", float_of_int t.Telemetry.attempts);
                          ("placements", float_of_int t.Telemetry.placements_tried);
                          ("route_calls", float_of_int t.Telemetry.route_calls);
                          ("expansions", float_of_int t.Telemetry.expansions);
                        ];
                      o)
              in
              match outcome with
              | Ok mapping -> Ok mapping
              | Error msg ->
                t.Telemetry.ii_bumps <- t.Telemetry.ii_bumps + 1;
                if Obs.enabled () then
                  Obs.instant
                    ~args:[ ("from_ii", Obs.Int ii); ("reason", Obs.Str msg) ]
                    ~cat:"mapper" ~name:"ii_bump" ();
                search (ii + 1) msg
            end
          in
          search start_ii "none"
        end
      end
  in
  let result =
    if not (Obs.enabled ()) then compute ()
    else
      Obs.with_span
        ~args:
          [
            ("nodes", Obs.Int (Graph.node_count dfg));
            ("backend", Obs.Str (Backend.to_string req.backend));
          ]
        ~cat:"mapper" ~name:"map"
        (fun () ->
          let r = compute () in
          (match r with
          | Ok m -> Obs.span_arg "ii" (Obs.Int m.Mapping.ii)
          | Error msg -> Obs.span_arg "error" (Obs.Str msg));
          r)
  in
  t.Telemetry.wall_s <- Unix.gettimeofday () -. t0;
  (match stats with Some sink -> Telemetry.merge ~into:sink t | None -> ());
  Iced_obs.Metrics.incr "mapper.runs";
  Iced_obs.Metrics.incr ~by:t.Telemetry.attempts "mapper.attempts";
  Iced_obs.Metrics.incr ~by:t.Telemetry.route_calls "mapper.route_calls";
  Iced_obs.Metrics.observe "mapper.wall_s" t.Telemetry.wall_s;
  result
