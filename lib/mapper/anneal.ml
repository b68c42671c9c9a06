open Iced_arch
open Iced_dfg
module Obs = Iced_obs.Trace
module Rng = Iced_util.Rng
open Engine

let cost_wait = Cost.default.Cost.wait

(* Cost charged per cycle by which an edge's deadline is infeasible
   (producer + distance cannot reach the consumer in time).  Large
   enough that annealing always prefers restoring feasibility over any
   wirelength saving, so infeasible intermediate states are transient. *)
let deficit_cost = 5_000

(* Estimated cost of one dependence given explicit endpoint
   coordinates: wirelength at router prices plus wait slack (mirroring
   the terms of {!Engine.cheap_cost}), or a steep penalty per missing
   cycle when the deadline is unmeetable. *)
let edge_cost state (e : Graph.edge) ~src_tile ~src_time ~dst_tile ~dst_time =
  let dist = Cgra.manhattan state.req.cgra src_tile dst_tile in
  let slack = dst_time + edge_slack state e - (src_time + dist + 1) in
  if slack < 0 then (Router.hop_cost * dist) + (deficit_cost * -slack)
  else (Router.hop_cost * dist) + (cost_wait * slack)

(* Total cost of [node]'s incident dependences with [node] at
   [(tile, time)] and every other endpoint at its current placement. *)
let incident state node tile time =
  let tile_of id = if id = node then tile else state.place_tile.(id) in
  let time_of id = if id = node then time else state.place_time.(id) in
  let pred_cost =
    List.fold_left
      (fun acc (e : Graph.edge) ->
        acc
        + edge_cost state e ~src_tile:(tile_of e.src) ~src_time:(time_of e.src)
            ~dst_tile:tile ~dst_time:time)
      0
      (Graph.predecessors state.dfg node)
  in
  List.fold_left
    (fun acc (e : Graph.edge) ->
      acc
      + edge_cost state e ~src_tile:tile ~src_time:time ~dst_tile:(tile_of e.dst)
          ~dst_time:(time_of e.dst))
    pred_cost
    (Graph.successors state.dfg node)

let place_untraced (p : Backend.sa_params) state order =
  (* Seed the annealer with a feasible routing-blind greedy placement:
     FU slots and memory constraints are satisfied from move zero, so
     every SA move preserves them by construction. *)
  match Greedy.place_all ~route:false state order with
  | Error _ as e -> e
  | Ok () ->
    let rng = Rng.create p.seed in
    let nodes = Array.of_list (Graph.node_ids state.dfg) in
    let eligible = Array.make (Array.length state.place_tile) [||] in
    Array.iter
      (fun node ->
        let op = (Graph.node state.dfg node).op in
        let memory_ok tile =
          (not (Op.needs_memory op)) || List.mem tile state.memory_tiles
        in
        let tiles =
          List.filter
            (fun tile ->
              memory_ok tile
              &&
              match committed_level state tile with
              | Some level -> Dvfs.at_most (label_of state node) level
              | None -> true)
            state.tiles
        in
        eligible.(node) <- Array.of_list tiles)
      nodes;
    let stats = state.stats in
    let accept_move delta t =
      delta <= 0 || Rng.float rng 1.0 < exp (-.float_of_int delta /. t)
    in
    (* One seeded move: relocate a uniform node to a uniform eligible
       (tile, time-window slot), Metropolis-accepted at temperature
       [t].  Returns whether the move was accepted. *)
    let attempt_move t =
      let node = nodes.(Rng.int rng (Array.length nodes)) in
      let old_tile = state.place_tile.(node) and old_time = state.place_time.(node) in
      let tiles = eligible.(node) in
      if Array.length tiles = 0 then false
      else begin
        let tile = tiles.(Rng.int rng (Array.length tiles)) in
        let est, lst = time_window state node tile in
        let upper = min (est + state.ii - 1) lst in
        if upper < est then false
        else begin
          let time = est + Rng.int rng (upper - est + 1) in
          if tile = old_tile && time = old_time then false
          else begin
            release_fu state old_tile old_time;
            match reserve_fu state node tile time with
            | Error _ ->
              (match reserve_fu state node old_tile old_time with
              | Ok () -> ()
              | Error msg -> failwith ("Anneal: lost home slot: " ^ msg));
              false
            | Ok () ->
              let delta =
                incident state node tile time - incident state node old_tile old_time
              in
              if accept_move delta t then begin
                Engine.place state node tile time;
                true
              end
              else begin
                release_fu state tile time;
                (match reserve_fu state node old_tile old_time with
                | Ok () -> ()
                | Error msg -> failwith ("Anneal: lost home slot: " ^ msg));
                false
              end
          end
        end
      end
    in
    (* DefaultSAWarm / DefaultSACool: multiply the temperature up until
       a batch's acceptance ratio reaches [warm_target], then cool it
       multiplicatively until it drops below [t_min] or the move budget
       runs out. *)
    let t = ref p.t_init in
    let warming = ref true in
    let total = ref 0 in
    let stop = ref false in
    while (not !stop) && !total < p.moves do
      let accepted = ref 0 in
      let batch = min p.batch (p.moves - !total) in
      for _ = 1 to batch do
        incr total;
        if attempt_move !t then begin
          incr accepted;
          stats.Telemetry.sa_moves_accepted <- stats.Telemetry.sa_moves_accepted + 1
        end
        else stats.Telemetry.sa_moves_rejected <- stats.Telemetry.sa_moves_rejected + 1
      done;
      stats.Telemetry.sa_temp_steps <- stats.Telemetry.sa_temp_steps + 1;
      let ratio = float_of_int !accepted /. float_of_int batch in
      if !warming then begin
        if ratio >= p.warm_target || !t > 1e7 then warming := false
        else t := !t *. p.warm_mult
      end
      else begin
        t := !t *. p.cool;
        if !t < p.t_min then stop := true
      end
    done;
    Ok ()

let place p state order =
  if not (Obs.enabled ()) then place_untraced p state order
  else
    Obs.with_span
      ~args:[ ("seed", Obs.Int p.Backend.seed) ]
      ~cat:"mapper" ~name:"sa"
      (fun () ->
        let r = place_untraced p state order in
        Obs.span_arg "accepted" (Obs.Int state.stats.Telemetry.sa_moves_accepted);
        Obs.span_arg "temp_steps" (Obs.Int state.stats.Telemetry.sa_temp_steps);
        (match r with
        | Ok () -> ()
        | Error msg -> Obs.span_arg "error" (Obs.Str msg));
        r)
