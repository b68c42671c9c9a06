open Iced_arch
open Iced_dfg
module Mrrg = Iced_mrrg.Mrrg
module Obs = Iced_obs.Trace
module Clock = Iced_obs.Clock
module Solver = Iced_sat.Solver

type verdict =
  | Optimal of int
  | Infeasible
  | Unknown of { first_undecided : int; feasible_at : int option }

type ii_outcome = Ii_feasible | Ii_refuted | Ii_budget

type report = {
  verdict : verdict;
  witness : Mapping.t option;
  per_ii : (int * ii_outcome) list;
  start_ii : int;
  max_ii : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  route_blocks : int;
  vars : int;
  clauses : int;
}

let verdict_of ~first_undecided ~feasible_at =
  match (first_undecided, feasible_at) with
  | None, Some ii -> Optimal ii
  | None, None -> Infeasible
  | Some k, fa -> Unknown { first_undecided = k; feasible_at = fa }

(* Realize a decoded placement-and-schedule as a full mapping by
   reserving FUs and routing every cross-tile edge with the real
   router (tightest deadlines first), exactly the resource model
   {!Validate.check} checks against. *)
let route_model ?stats cgra g ~ii placements =
  let mrrg = Mrrg.create cgra ~ii in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (n, pt) -> Hashtbl.replace tbl n pt) placements;
  let reserve_ok =
    List.for_all
      (fun (n, (tile, time)) ->
        match Mrrg.reserve mrrg ~tile ~time Mrrg.Fu (Mrrg.Op_node n) with
        | Ok () -> true
        | Error _ -> false)
      placements
  in
  if not reserve_ok then Error "double-booked FU"
  else begin
    let edges =
      Graph.edges g
      |> List.filter_map (fun (e : Graph.edge) ->
             let src_tile, src_time = Hashtbl.find tbl e.src in
             let dst_tile, dst_time = Hashtbl.find tbl e.dst in
             if src_tile = dst_tile then None
             else
               let deadline = dst_time + Mapping.edge_slack g ~ii e - 1 in
               let laxity =
                 deadline - (src_time + Cgra.manhattan cgra src_tile dst_tile)
               in
               Some (laxity, e, src_tile, src_time, dst_tile, deadline))
      |> List.sort
           (fun (la, (a : Graph.edge), _, _, _, _)
                (lb, (b : Graph.edge), _, _, _, _) ->
             compare
               (la, a.src, a.dst, a.distance)
               (lb, b.src, b.dst, b.distance))
    in
    let scratch = Router.create_scratch () in
    let rec route_all acc = function
      | [] -> Ok (List.rev acc)
      | (_, e, src_tile, src_time, dst_tile, deadline) :: rest -> (
        match
          Router.route ~scratch ?stats mrrg ~edge:e ~src_tile ~src_time ~dst_tile
            ~deadline
        with
        | Ok (hops, _) ->
          route_all ({ Mapping.edge = e; hops } :: acc) rest
        | Error msg -> Error msg)
    in
    match route_all [] edges with
    | Error _ as e -> e
    | Ok routes ->
      let mapping =
        {
          Mapping.dfg = g;
          cgra;
          ii;
          tiles = List.init (Cgra.tile_count cgra) (fun i -> i);
          memory_tiles = Cgra.memory_tiles cgra;
          placements;
          routes;
          labels =
            List.map (fun id -> (id, Dvfs.Normal)) (Graph.node_ids g);
          island_levels =
            List.map (fun i -> (i, Dvfs.Normal)) (Cgra.islands cgra);
        }
      in
      (* The witness must stand on its own: re-check it end to end. *)
      (match Validate.check mapping with
      | Ok () -> Ok mapping
      | Error msgs ->
        Error ("witness validation: " ^ String.concat "; " msgs))
  end

type cegar = {
  mutable route_blocks : int;
  mutable vars : int;
  mutable clauses : int;
}

(* Each routing failure refines the CNF by one blocked model.  On
   kernels whose port congestion the relaxation cannot see, refuting a
   placement costs almost no conflicts, so the conflict budget alone
   would let the loop churn through tens of thousands of near-identical
   models; rounds are therefore capped separately, per stage: the wide
   CNF, whose outcome is final, gets [max_route_blocks_per_ii] rounds,
   and the narrow one, which only looks for a witness first, gets
   [narrow_route_blocks] before handing the II on. *)
let max_route_blocks_per_ii = 1_000
let narrow_route_blocks = 32

let no_stats =
  { Solver.conflicts = 0; decisions = 0; propagations = 0; restarts = 0; learned = 0 }

let add_stats (a : Solver.stats) (b : Solver.stats) =
  {
    Solver.conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
    learned = a.learned + b.learned;
  }

(* One stage: build the CNF under [rule], then alternate solving and
   routing until a model routes, the CNF is refuted, the conflict
   budget is spent or [max_blocks] models were blocked. *)
let run_stage ?stats cgra g ~ii ~budget ~seed ~rule ~max_blocks (c : cegar) =
  let built =
    Obs.span
      ~result:(fun r ->
        ( "window",
          Obs.Str (match rule with Encode.Wide -> "wide" | Encode.Narrow -> "narrow") )
        ::
        (match r with
        | Ok enc ->
          let s = Encode.solver enc in
          [ ("vars", Obs.Int (Solver.var_count s)); ("clauses", Obs.Int (Solver.clause_count s)) ]
        | Error msg -> [ ("error", Obs.Str msg) ]))
      ~cat:"exact" ~name:"encode"
      (fun () -> Encode.build cgra g ~ii ~rule)
  in
  match built with
  | Error _ ->
    (* structurally too large to encode: undecided, like a budget *)
    (`Budget, no_stats)
  | Ok enc ->
    let s = Encode.solver enc in
    let start_conflicts = (Solver.stats s).Solver.conflicts in
    let rec loop blocks =
      let spent = (Solver.stats s).Solver.conflicts - start_conflicts in
      let remaining = budget - spent in
      if remaining <= 0 || blocks >= max_blocks then `Budget
      else
        let before = (Solver.stats s).Solver.conflicts in
        match
          Obs.span
            ~result:(fun o ->
              [
                ( "outcome",
                  Obs.Str
                    (match o with
                    | Solver.Sat -> "sat"
                    | Solver.Unsat -> "unsat"
                    | Solver.Unknown -> "unknown") );
                ("conflicts", Obs.Int ((Solver.stats s).Solver.conflicts - before));
              ])
            ~cat:"exact" ~name:"solve"
            (fun () -> Solver.solve ~budget:remaining ~seed s)
        with
        | Solver.Unsat -> `Refuted
        | Solver.Unknown -> `Budget
        | Solver.Sat -> (
          let placements = Encode.decode enc in
          match route_model ?stats cgra g ~ii placements with
          | Ok mapping -> `Feasible mapping
          | Error _ ->
            c.route_blocks <- c.route_blocks + 1;
            Encode.block enc placements;
            loop (blocks + 1))
    in
    let outcome = loop 0 in
    c.vars <- max c.vars (Solver.var_count s);
    c.clauses <- max c.clauses (Solver.clause_count s);
    (match stats with
    | Some (t : Telemetry.t) ->
      let st = Solver.stats s in
      t.Telemetry.sat_conflicts <-
        t.Telemetry.sat_conflicts + st.Solver.conflicts;
      t.Telemetry.sat_decisions <-
        t.Telemetry.sat_decisions + st.Solver.decisions;
      t.Telemetry.sat_propagations <-
        t.Telemetry.sat_propagations + st.Solver.propagations
    | None -> ());
    (outcome, Solver.stats s)

(* Decide one II in two stages.  The narrow CNF only looks for a
   witness: it is accepted when a model routes and validates, and any
   other end (UNSAT, the round cap, the budget) hands the II to the
   wide CNF with the full budget again, whose outcome is final.  So
   every refutation comes from the wide CNF, and a narrow witness is a
   mapping like any other. *)
let decide_ii ?stats cgra g ~ii ~budget ~seed c =
  match
    run_stage ?stats cgra g ~ii ~budget ~seed ~rule:Encode.Narrow
      ~max_blocks:narrow_route_blocks c
  with
  | (`Feasible _, _) as found -> found
  | (`Refuted | `Budget), narrow ->
    let outcome, wide =
      run_stage ?stats cgra g ~ii ~budget ~seed ~rule:Encode.Wide
        ~max_blocks:max_route_blocks_per_ii c
    in
    (outcome, add_stats narrow wide)

(* The default backend's mapping, once it validates, is a witness at
   its II, so only the IIs below it need a CNF.  Its counters go into
   [stats] but not its wall time, which certify's own already covers. *)
let heuristic_witness ?stats cgra g ~max_ii =
  let t = Telemetry.create () in
  let mapped = Mapper.map ~stats:t (Mapper.request ~max_ii cgra) g in
  (match stats with
  | Some sink ->
    t.Telemetry.wall_s <- 0.0;
    Telemetry.merge ~into:sink t
  | None -> ());
  match mapped with
  | Ok m when Validate.check m = Ok () -> Some m
  | Ok _ | Error _ -> None

let certify ?(max_ii = 16) ?(budget_conflicts = 100_000) ?(seed = 0) ?stats
    cgra g =
  let t0 = Clock.now () in
  let c = { route_blocks = 0; vars = 0; clauses = 0 } in
  let conflicts = ref 0
  and decisions = ref 0
  and propagations = ref 0
  and restarts = ref 0 in
  let start_ii =
    if Graph.node_count g = 0 then 1
    else Analysis.min_ii g ~tiles:(Cgra.tile_count cgra)
  in
  let finish ~verdict ~witness ~per_ii =
    {
      verdict;
      witness;
      per_ii = List.rev per_ii;
      start_ii;
      max_ii;
      conflicts = !conflicts;
      decisions = !decisions;
      propagations = !propagations;
      restarts = !restarts;
      route_blocks = c.route_blocks;
      vars = c.vars;
      clauses = c.clauses;
    }
  in
  let compute () =
    match Graph.validate g with
    | Error _ -> finish ~verdict:Infeasible ~witness:None ~per_ii:[]
    | Ok () ->
      if Graph.node_count g = 0 then
        finish ~verdict:Infeasible ~witness:None ~per_ii:[]
      else begin
        let bound =
          if start_ii <= max_ii then heuristic_witness ?stats cgra g ~max_ii else None
        in
        let feasible ii mapping first_undecided per_ii =
          let verdict = verdict_of ~first_undecided ~feasible_at:(Some ii) in
          let witness = match verdict with Optimal _ -> Some mapping | _ -> None in
          finish ~verdict ~witness ~per_ii:((ii, Ii_feasible) :: per_ii)
        in
        let rec try_ii ii first_undecided per_ii =
          match bound with
          | Some m when ii = m.Mapping.ii -> feasible ii m first_undecided per_ii
          | _ when ii > max_ii ->
            finish
              ~verdict:(verdict_of ~first_undecided ~feasible_at:None)
              ~witness:None ~per_ii
          | _ -> begin
            let outcome, (st : Solver.stats) =
              Obs.span
                ~args:(fun () -> [ ("ii", Obs.Int ii) ])
                ~result:(fun (o, (st : Solver.stats)) ->
                  [
                    ("conflicts", Obs.Int st.conflicts);
                    ( "outcome",
                      Obs.Str
                        (match o with
                        | `Feasible _ -> "feasible"
                        | `Refuted -> "refuted"
                        | `Budget -> "budget") );
                  ])
                ~cat:"exact" ~name:"ii"
                (fun () -> decide_ii ?stats cgra g ~ii ~budget:budget_conflicts ~seed c)
            in
            conflicts := !conflicts + st.Solver.conflicts;
            decisions := !decisions + st.Solver.decisions;
            propagations := !propagations + st.Solver.propagations;
            restarts := !restarts + st.Solver.restarts;
            match outcome with
            | `Feasible mapping -> feasible ii mapping first_undecided per_ii
            | `Refuted ->
              try_ii (ii + 1) first_undecided ((ii, Ii_refuted) :: per_ii)
            | `Budget ->
              try_ii (ii + 1)
                (match first_undecided with None -> Some ii | some -> some)
                ((ii, Ii_budget) :: per_ii)
          end
        in
        try_ii start_ii None []
      end
  in
  let report =
    Obs.span
      ~args:(fun () -> [ ("nodes", Obs.Int (Graph.node_count g)) ])
      ~result:(fun r ->
        [
          (match r.verdict with
          | Optimal ii -> ("optimal_ii", Obs.Int ii)
          | Infeasible -> ("verdict", Obs.Str "infeasible")
          | Unknown { first_undecided; _ } -> ("first_undecided", Obs.Int first_undecided));
          ("conflicts", Obs.Int r.conflicts);
        ])
      ~cat:"exact" ~name:"certify" compute
  in
  (match stats with
  | Some (t : Telemetry.t) ->
    t.Telemetry.wall_s <- t.Telemetry.wall_s +. (Clock.now () -. t0)
  | None -> ());
  Iced_obs.Metrics.incr "exact.certify_runs";
  Iced_obs.Metrics.incr ~by:report.conflicts "exact.sat_conflicts";
  report
