open Iced_arch
open Iced_dfg
module Obs = Iced_obs.Trace
module Rng = Iced_util.Rng
open Engine

(* Cost charged per cycle by which an edge's deadline is infeasible
   (producer + distance cannot reach the consumer in time).  Large
   enough that annealing always prefers restoring feasibility over any
   wirelength saving, so infeasible intermediate states are transient. *)
let deficit_cost = 5_000

(* Estimated cost of one dependence spanning [dist] hops whose consumer
   starts [margin] cycles after the producer's value can first arrive:
   wirelength at router prices plus wait slack (mirroring the hop and
   wait terms of the placement cost that {!Engine.collect_candidates}
   and {!Engine.pop_candidate} order the greedy placer's slots by), or
   a steep penalty per missing cycle when the deadline is unmeetable. *)
let edge_cost ~dist ~margin =
  if margin < 0 then (Router.hop_cost * dist) + (deficit_cost * -margin)
  else (Router.hop_cost * dist) + (Cost.wait * margin)

(* Total cost of [node]'s incident dependences with [node] at
   [(tile, time)] and every other endpoint at its current placement.
   Never negative, so the move loop can mark a stale cost with -1. *)
let incident state node tile time =
  let geometry = state.geometry and preds = state.preds and succs = state.succs in
  let ii = state.ii in
  let cost = ref 0 in
  for i = preds.first.(node) to preds.first.(node + 1) - 1 do
    let src = preds.ends.(i) in
    let src_tile = if src = node then tile else state.place_tile.(src) in
    let src_time = if src = node then time else state.place_time.(src) in
    let dist = Cgra.hops geometry src_tile tile in
    let slack = preds.periods.(i) * ii in
    cost := !cost + edge_cost ~dist ~margin:(time + slack - (src_time + dist + 1))
  done;
  for i = succs.first.(node) to succs.first.(node + 1) - 1 do
    let dst = succs.ends.(i) in
    let dst_tile = if dst = node then tile else state.place_tile.(dst) in
    let dst_time = if dst = node then time else state.place_time.(dst) in
    let dist = Cgra.hops geometry tile dst_tile in
    let slack = succs.periods.(i) * ii in
    cost := !cost + edge_cost ~dist ~margin:(dst_time + slack - (time + dist + 1))
  done;
  !cost

(* The annealing schedule (Mapper2.jl's [SAStruct]/[DefaultSAWarm]/
   [DefaultSACool]): a move budget spent in batches of [batch] moves per
   temperature step, warming and cooling as the loop below describes. *)
let moves = 20_000
let batch = 64
let t_init = 64.0
let t_min = 0.05
let warm_target = 0.9
let warm_mult = 1.5
let cool = 0.92

let place_untraced ~seed state order =
  (* Seed the annealer with a feasible routing-blind greedy placement:
     FU slots and memory constraints are satisfied from move zero, so
     every SA move preserves them by construction. *)
  match Greedy.place_all ~route:false state order with
  | Error _ as e -> e
  | Ok () ->
    let rng = Rng.create seed in
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
    let stats = state.stats and preds = state.preds and succs = state.succs in
    (* Each node's incident cost at its current placement, or -1 once
       it or a neighbour has moved since the cost was taken. *)
    let cost = Array.make (Array.length state.place_tile) (-1) in
    let current_cost node =
      if cost.(node) < 0 then
        cost.(node) <- incident state node state.place_tile.(node) state.place_time.(node);
      cost.(node)
    in
    let moved node after =
      for i = preds.first.(node) to preds.first.(node + 1) - 1 do
        cost.(preds.ends.(i)) <- -1
      done;
      for i = succs.first.(node) to succs.first.(node + 1) - 1 do
        cost.(succs.ends.(i)) <- -1
      done;
      cost.(node) <- after
    in
    let accept_move delta t =
      delta <= 0 || Rng.float rng 1.0 < exp (-.float_of_int delta /. t)
    in
    (* One seeded move: relocate a uniform node to a uniform eligible
       (tile, time-window slot), Metropolis-accepted at temperature
       [t].  The target FU slots are only tested (free, or the node's
       own); the MRRG is written when the move is accepted.  Returns
       whether it was. *)
    let attempt_move t =
      let node = nodes.(Rng.int rng (Array.length nodes)) in
      let tiles = eligible.(node) in
      if Array.length tiles = 0 then false
      else begin
        let tile = tiles.(Rng.int rng (Array.length tiles)) in
        let window = time_window state node tile in
        let est = window.est in
        let upper = min (est + state.ii - 1) window.lst in
        if upper < est then false
        else begin
          let time = est + Rng.int rng (upper - est + 1) in
          let old_tile = state.place_tile.(node) and old_time = state.place_time.(node) in
          if (tile = old_tile && time = old_time) || not (fu_fits state node tile time) then false
          else begin
            let after = incident state node tile time in
            if accept_move (after - current_cost node) t then begin
              release_fu state old_tile old_time;
              (match reserve_fu state node tile time with
              | Ok () -> ()
              | Error msg -> failwith ("Anneal: tested slot refused: " ^ msg));
              Engine.place state node tile time;
              moved node after;
              true
            end
            else false
          end
        end
      end
    in
    (* DefaultSAWarm / DefaultSACool: multiply the temperature up until
       a batch's acceptance ratio reaches [warm_target], then cool it
       multiplicatively until it drops below [t_min] or the move budget
       runs out. *)
    let t = ref t_init in
    let warming = ref true in
    let total = ref 0 in
    let stop = ref false in
    while (not !stop) && !total < moves do
      let accepted = ref 0 in
      let batch = min batch (moves - !total) in
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
        if ratio >= warm_target || !t > 1e7 then warming := false
        else t := !t *. warm_mult
      end
      else begin
        t := !t *. cool;
        if !t < t_min then stop := true
      end
    done;
    Ok ()

let place ~seed state order =
  Obs.span
    ~args:(fun () -> [ ("seed", Obs.Int seed) ])
    ~result:(fun r ->
      ("accepted", Obs.Int state.stats.Telemetry.sa_moves_accepted)
      :: ("temp_steps", Obs.Int state.stats.Telemetry.sa_temp_steps)
      :: (match r with Ok () -> [] | Error msg -> [ ("error", Obs.Str msg) ]))
    ~cat:"mapper" ~name:"sa"
    (fun () -> place_untraced ~seed state order)
