open Iced_arch
open Iced_dfg
module Obs = Iced_obs.Trace
open Engine

(* [route = true] is the legacy fused pair: each node's incident deps
   are routed (and their ports reserved) the moment it is placed, and a
   placement that cannot route is undone and the next candidate tried.
   [route = false] places only (FU reservations + island bookkeeping),
   leaving every dependence for a whole-placement router backend. *)
let place_node_untraced ~route state node =
  let cgra = state.req.cgra in
  let tiles =
    if Op.needs_memory (Graph.node state.dfg node).op then state.memory_tiles else state.tiles
  in
  (* Commit mode steers a node onto islands of exactly its label's
     level first, falling back to any island at least as fast when the
     exact set is empty or yields no feasible placement (e.g. a
     rest-labeled operand of a critical node whose deadline no distant
     rest island can meet). *)
  let tile_sets =
    match state.committed with
    | None -> [ tiles ]
    | Some _ ->
      let label = label_of state node in
      let fallback =
        List.filter
          (fun tile ->
            match committed_level state tile with
            | Some level -> Dvfs.at_most label level
            | None -> true)
          tiles
      in
      let exact = List.filter (fun tile -> committed_level state tile = Some label) tiles in
      if exact = [] then [ fallback ] else [ exact; fallback ]
  in
  let note_island tile = note_island state (Cgra.island_of cgra tile) (label_of state node) in
  let try_tiles eligible_tiles =
    collect_candidates state node eligible_tiles;
    let max_attempts = 100 in
    let describe_windows () =
      let sample =
        List.filteri (fun i _ -> i < 3) eligible_tiles
        |> List.map (fun tile ->
               let { est; lst } = time_window state node tile in
               Printf.sprintf "t%d:[%d,%s]" tile est
                 (if lst = max_int then "inf" else string_of_int lst))
      in
      let neighbours =
        let placed id =
          if is_placed state id then
            Printf.sprintf "n%d@t%d,c%d" id state.place_tile.(id) state.place_time.(id)
          else Printf.sprintf "n%d@?" id
        in
        let preds =
          List.map (fun (e : Graph.edge) -> placed e.src) (Graph.predecessors state.dfg node)
        in
        let succs =
          List.map (fun (e : Graph.edge) -> placed e.dst) (Graph.successors state.dfg node)
        in
        Printf.sprintf "preds[%s] succs[%s]" (String.concat " " preds)
          (String.concat " " succs)
      in
      String.concat " " sample ^ " " ^ neighbours
    in
    let rec attempt n =
      match pop_candidate state with
      | None ->
        Error
          (Printf.sprintf "node n%d: no feasible placement at II=%d (windows %s)" node
             state.ii (describe_windows ()))
      | Some _ when n >= max_attempts ->
        Error (Printf.sprintf "node n%d: placement attempts exhausted at II=%d" node state.ii)
      | Some (tile, time) -> (
        let s = state.stats in
        s.Telemetry.placements_tried <- s.Telemetry.placements_tried + 1;
        (* in commit mode a slowed tile's op covers multiplier-many
           modulo slots *)
        match reserve_fu state node tile time with
        | Error _ -> attempt (n + 1)
        | Ok () ->
          if not route then begin
            place state node tile time;
            note_island tile;
            Ok ()
          end
          else (
            match route_incident state node tile time with
            | Ok routes ->
              place state node tile time;
              state.routes <- routes @ state.routes;
              note_island tile;
              Ok ()
            | Error _ ->
              release_fu state tile time;
              attempt (n + 1)))
    in
    attempt 0
  in
  let rec first_success last_err = function
    | [] -> Error last_err
    | tiles :: rest -> (
      match try_tiles tiles with
      | Ok () -> Ok ()
      | Error msg -> ( match rest with [] -> Error msg | _ -> first_success msg rest))
  in
  first_success "no tile sets" tile_sets

let place_node ~route state node =
  Obs.span
    ~args:(fun () -> [ ("node", Obs.Int node) ])
    ~result:(function Ok () -> [] | Error msg -> [ ("error", Obs.Str msg) ])
    ~cat:"mapper" ~name:"place"
    (fun () -> place_node_untraced ~route state node)

let place_all ~route state order =
  let rec place = function
    | [] -> Ok ()
    | node :: rest -> (
      match place_node ~route state node with
      | Ok () -> place rest
      | Error msg -> Error msg)
  in
  place order
