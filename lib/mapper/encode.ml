open Iced_arch
open Iced_dfg
module Solver = Iced_sat.Solver
module Card = Iced_sat.Card

type rule = Wide | Narrow

(* Per-node variable block.  [dom] lists the allowed tiles; [x.(i)]
   chooses [dom.(i)].  The schedule window is [lo .. hi - 1]:
   [s.(t - lo)] says "executes at absolute cycle t", [ge.(t - lo)]
   says "executes at cycle t or later" (order encoding), and
   [slot.(k)] says "executes in modulo slot k". *)
type node_vars = {
  dom : int array;
  x : int array;
  lo : int;
  hi : int;
  s : int array;
  ge : int array;
  slot : int array;
}

type t = {
  solver : Solver.t;
  ii : int;
  order : int list;
  vars : (int, node_vars) Hashtbl.t;
}

let solver t = t.solver

let window t n =
  let nv = Hashtbl.find t.vars n in
  (nv.lo, nv.hi)

(* Cap on the schedule horizon (and so on encoding size).  Kernels the
   oracle targets sit far below it; past the cap we decline to encode
   and the caller reports the II undecided rather than building a CNF
   with hundreds of thousands of clauses. *)
let max_horizon = 512

(* [n] and every node with a path to [n] over any edge, carried ones
   included. *)
let ancestors g n =
  let seen = Hashtbl.create 16 in
  let rec visit m =
    if not (Hashtbl.mem seen m) then begin
      Hashtbl.replace seen m ();
      List.iter (fun (e : Graph.edge) -> visit e.src) (Graph.predecessors g m)
    end
  in
  visit n;
  seen

let build cgra g ~ii ~rule =
  match Graph.intra_topological g with
  | None -> Error "intra-iteration dependences form a cycle"
  | Some order ->
    let edges =
      List.sort
        (fun (a : Graph.edge) (b : Graph.edge) ->
          compare (a.src, a.dst, a.distance) (b.src, b.dst, b.distance))
        (Graph.edges g)
    in
    let diameter = cgra.Cgra.rows - 1 + (cgra.Cgra.cols - 1) in
    let weight e = max 0 (1 + diameter - Mapping.edge_slack g ~ii e) in
    (* Least-solution bound: in the latency constraint graph
       (t_v - t_u >= 1 + manhattan - slack per edge) every feasible
       tile assignment admits the least schedule, whose values are
       bounded by the sum of positive edge weights — cycles all have
       non-positive weight or the instance is infeasible anyway. *)
    let sum_weights keep =
      List.fold_left (fun acc e -> if keep e then acc + weight e else acc) 1 edges
    in
    let floor = ii + diameter + 1 in
    let horizon = max (sum_weights (fun _ -> true)) floor in
    if horizon > max_horizon then
      Error
        (Printf.sprintf "schedule horizon %d exceeds the %d cap" horizon
           max_horizon)
    else begin
      (* The narrow bound sums only the weights of edges among the
         node's ancestors (an edge into an ancestor starts at one), the
         part of the constraint graph its least time depends on. *)
      let hi_of n =
        match rule with
        | Wide -> horizon
        | Narrow ->
          let anc = ancestors g n in
          min horizon
            (max floor (sum_weights (fun (e : Graph.edge) -> Hashtbl.mem anc e.dst)))
      in
      let s = Solver.create () in
      let tiles = Array.init (Cgra.tile_count cgra) (fun i -> i) in
      let memory_tiles = Array.of_list (Cgra.memory_tiles cgra) in
      (* intra-iteration ASAP lower bounds *)
      let lo_tbl = Hashtbl.create 16 in
      List.iter
        (fun n ->
          let lo =
            List.fold_left
              (fun acc (e : Graph.edge) ->
                if e.distance = 0 then
                  match Hashtbl.find_opt lo_tbl e.src with
                  | Some l -> max acc (l + 1)
                  | None -> acc
                else acc)
              0 (Graph.predecessors g n)
          in
          Hashtbl.replace lo_tbl n lo)
        order;
      let vars = Hashtbl.create 16 in
      List.iter
        (fun n ->
          let dom =
            if Op.needs_memory (Graph.node g n).op then memory_tiles
            else tiles
          in
          let lo = Hashtbl.find lo_tbl n and hi = hi_of n in
          let w = max 0 (hi - lo) in
          let x = Array.map (fun _ -> Solver.new_var s) dom in
          let sv = Array.init w (fun _ -> Solver.new_var s) in
          let ge = Array.init w (fun _ -> Solver.new_var s) in
          let slot = Array.init ii (fun _ -> Solver.new_var s) in
          Hashtbl.replace vars n { dom; x; lo; hi; s = sv; ge; slot };
          (* one tile, one cycle *)
          Card.exactly_one s (Array.to_list (Array.map Solver.pos x));
          Card.exactly_one s (Array.to_list (Array.map Solver.pos sv));
          (* order encoding: ge is a monotone staircase anchored at lo *)
          if w > 0 then Solver.add_clause s [ Solver.pos ge.(0) ];
          for i = 0 to w - 2 do
            Solver.add_clause s [ Solver.neg ge.(i + 1); Solver.pos ge.(i) ]
          done;
          for i = 0 to w - 1 do
            if i > 0 then
              Solver.add_clause s [ Solver.neg sv.(i); Solver.pos ge.(i) ];
            if i < w - 1 then
              Solver.add_clause s [ Solver.neg sv.(i); Solver.neg ge.(i + 1) ];
            (* channel cycle -> modulo slot *)
            Solver.add_clause s
              [ Solver.neg sv.(i); Solver.pos slot.((lo + i) mod ii) ]
          done)
        order;
      (* FU exclusivity: no two nodes on one tile in one modulo slot *)
      let rec pairs = function
        | [] -> ()
        | m :: rest ->
          let mv = Hashtbl.find vars m in
          List.iter
            (fun n ->
              let nv = Hashtbl.find vars n in
              for mi = 0 to Array.length mv.dom - 1 do
                for ni = 0 to Array.length nv.dom - 1 do
                  if mv.dom.(mi) = nv.dom.(ni) then
                    for k = 0 to ii - 1 do
                      Solver.add_clause s
                        [
                          Solver.neg mv.x.(mi);
                          Solver.neg nv.x.(ni);
                          Solver.neg mv.slot.(k);
                          Solver.neg nv.slot.(k);
                        ]
                    done
                done
              done)
            rest;
          pairs rest
      in
      pairs order;
      (* Per-edge latency: t_v >= t_u + 1 + manhattan(u, v) - slack.
         The distance enters through order-encoded bounds DGE(e, d)
         ("endpoints at manhattan >= d"), implied by each tile pair and
         appearing only negatively below, so models never overstate
         distances. *)
      List.iter
        (fun (e : Graph.edge) ->
          let uv = Hashtbl.find vars e.src and vv = Hashtbl.find vars e.dst in
          let slack = Mapping.edge_slack g ~ii e in
          let dge =
            if e.src = e.dst then [||]
            else Array.init diameter (fun _ -> Solver.new_var s)
            (* dge.(i) = "manhattan >= i + 1" *)
          in
          if e.src <> e.dst then begin
            for i = 1 to diameter - 1 do
              Solver.add_clause s [ Solver.neg dge.(i); Solver.pos dge.(i - 1) ]
            done;
            for ui = 0 to Array.length uv.dom - 1 do
              for vi = 0 to Array.length vv.dom - 1 do
                let d = Cgra.manhattan cgra uv.dom.(ui) vv.dom.(vi) in
                if d >= 1 then
                  Solver.add_clause s
                    [ Solver.neg uv.x.(ui); Solver.neg vv.x.(vi); Solver.pos dge.(d - 1) ]
              done
            done
          end;
          (* S(u, t) (and DGE(e, d) for d >= 1) forces GE(v, t + 1 + d
             - slack), or is false outright when that reaches v's upper
             bound *)
          for d = 0 to Array.length dge do
            for i = 0 to Array.length uv.s - 1 do
              let bound = uv.lo + i + 1 + d - slack in
              if bound > vv.lo then begin
                let su = Solver.neg uv.s.(i) in
                if d = 0 then
                  if bound < vv.hi then
                    Solver.add_clause s [ su; Solver.pos vv.ge.(bound - vv.lo) ]
                  else Solver.add_clause s [ su ]
                else
                  let far = Solver.neg dge.(d - 1) in
                  if bound < vv.hi then
                    Solver.add_clause s [ far; su; Solver.pos vv.ge.(bound - vv.lo) ]
                  else Solver.add_clause s [ far; su ]
              end
            done
          done)
        edges;
      Ok { solver = s; ii; order; vars }
    end

let decode t =
  List.map
    (fun n ->
      let nv = Hashtbl.find t.vars n in
      let tile = ref (-1) and time = ref (-1) in
      Array.iteri
        (fun i v -> if Solver.value t.solver v then tile := nv.dom.(i))
        nv.x;
      Array.iteri
        (fun i v -> if !time < 0 && Solver.value t.solver v then time := nv.lo + i)
        nv.s;
      (n, (!tile, !time)))
    t.order
  |> List.sort compare

(* [X(n, tile)], or [None] when [tile] is outside [n]'s domain *)
let tile_var nv tile =
  let xi = ref None in
  Array.iteri (fun i tl -> if tl = tile then xi := Some nv.x.(i)) nv.dom;
  !xi

let block t placements =
  let lits =
    List.concat_map
      (fun (n, (tile, time)) ->
        let nv = Hashtbl.find t.vars n in
        [ Solver.neg (Option.get (tile_var nv tile)); Solver.neg nv.s.(time - nv.lo) ])
      placements
  in
  Solver.add_clause t.solver lits

let assume t placements =
  List.iter
    (fun (n, (tile, time)) ->
      let nv = Hashtbl.find t.vars n in
      let unit lits = Solver.add_clause t.solver lits in
      unit (match tile_var nv tile with Some x -> [ Solver.pos x ] | None -> []);
      unit [ Solver.pos nv.slot.(((time mod t.ii) + t.ii) mod t.ii) ];
      if time >= nv.lo && time < nv.hi then unit [ Solver.pos nv.s.(time - nv.lo) ])
    placements
