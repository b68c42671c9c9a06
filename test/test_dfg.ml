(* Tests for Iced_dfg: graph structure, analyses, and transforms. *)

open Iced_dfg

(* A minimal accumulator loop: phi -> add -> phi (carried), add <- load. *)
let acc_loop () =
  let g = Graph.empty in
  let g, phi = Graph.add_node ~label:"phi" g Op.Phi in
  let g, ld = Graph.add_node ~label:"ld" g Op.Load in
  let g, add = Graph.add_node ~label:"add" g Op.Add in
  let g = Graph.add_edge g phi add in
  let g = Graph.add_edge g ld add in
  let g = Graph.add_edge ~distance:1 g add phi in
  (g, phi, ld, add)

(* ---------------- Graph ---------------- *)

let test_graph_basics () =
  let g, phi, ld, add = acc_loop () in
  Alcotest.(check int) "nodes" 3 (Graph.node_count g);
  Alcotest.(check int) "edges" 3 (Graph.edge_count g);
  Alcotest.(check bool) "mem" true (Graph.mem_node g phi);
  Alcotest.(check int) "preds of add" 2 (List.length (Graph.predecessors g add));
  Alcotest.(check int) "intra preds of phi" 0 (List.length (Graph.intra_predecessors g phi));
  Alcotest.(check (list int)) "intra succ of ld" [ add ] (Graph.intra_successors g ld)

let test_graph_duplicate_edge () =
  let g, phi, _, add = acc_loop () in
  let before = Graph.edge_count g in
  let g = Graph.add_edge g phi add in
  Alcotest.(check int) "dedup" before (Graph.edge_count g)

let test_graph_remove_node () =
  let g, _, ld, add = acc_loop () in
  let g = Graph.remove_node g ld in
  Alcotest.(check int) "nodes" 2 (Graph.node_count g);
  Alcotest.(check bool) "no dangling edges" true
    (List.for_all (fun (e : Graph.edge) -> e.src <> ld && e.dst <> ld) (Graph.edges g));
  Alcotest.(check int) "add lost a pred" 1 (List.length (Graph.predecessors g add))

let test_graph_invalid_edges () =
  let g, phi, _, _ = acc_loop () in
  Alcotest.check_raises "unknown dst" (Invalid_argument "Graph.add_edge: unknown dst")
    (fun () -> ignore (Graph.add_edge g phi 999));
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Graph.add_edge: negative distance") (fun () ->
      ignore (Graph.add_edge ~distance:(-1) g phi phi))

let test_graph_validate_ok () =
  let g, _, _, _ = acc_loop () in
  match Graph.validate g with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "expected valid: %s" msg

let test_graph_validate_cyclic () =
  let g = Graph.empty in
  let g, a = Graph.add_node g Op.Add in
  let g, b = Graph.add_node g Op.Add in
  let g = Graph.add_edge g a b in
  let g = Graph.add_edge g b a in
  match Graph.validate g with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "intra cycle must be rejected"

let test_graph_topological () =
  let g, phi, ld, add = acc_loop () in
  match Graph.intra_topological g with
  | None -> Alcotest.fail "expected order"
  | Some order ->
    let pos x = Option.get (List.find_index (fun y -> y = x) order) in
    Alcotest.(check bool) "phi before add" true (pos phi < pos add);
    Alcotest.(check bool) "ld before add" true (pos ld < pos add)

(* ---------------- Analysis ---------------- *)

let test_rec_mii () =
  let g, _, _, _ = acc_loop () in
  Alcotest.(check int) "acc cycle len 2" 2 (Analysis.rec_mii g)

let test_rec_mii_distance () =
  (* a length-4 cycle with distance 2 only needs II 2 *)
  let g = Graph.empty in
  let g, a = Graph.add_node g Op.Phi in
  let g, b = Graph.add_node g Op.Add in
  let g, c = Graph.add_node g Op.Add in
  let g, d = Graph.add_node g Op.Add in
  let g = Graph.add_edge g a b in
  let g = Graph.add_edge g b c in
  let g = Graph.add_edge g c d in
  let g = Graph.add_edge ~distance:2 g d a in
  Alcotest.(check int) "ceil(4/2)" 2 (Analysis.rec_mii g)

let test_rec_mii_acyclic () =
  let g = Graph.empty in
  let g, a = Graph.add_node g Op.Load in
  let g, b = Graph.add_node g Op.Add in
  let g = Graph.add_edge g a b in
  Alcotest.(check int) "acyclic = 1" 1 (Analysis.rec_mii g);
  Alcotest.(check int) "no cycles" 0 (List.length (Analysis.recurrence_cycles g))

let test_res_mii () =
  let g, _, _, _ = acc_loop () in
  Alcotest.(check int) "3 nodes 2 tiles" 2 (Analysis.res_mii g ~tiles:2);
  Alcotest.(check int) "3 nodes 16 tiles" 1 (Analysis.res_mii g ~tiles:16)

let test_critical_nodes () =
  let g, phi, ld, add = acc_loop () in
  let critical = Analysis.critical_nodes g in
  Alcotest.(check bool) "phi critical" true (List.mem phi critical);
  Alcotest.(check bool) "add critical" true (List.mem add critical);
  Alcotest.(check bool) "load not critical" false (List.mem ld critical)

let test_secondary_cycles () =
  (* long cycle of 4 + short cycle of 2: short is <= half -> secondary *)
  let g = Graph.empty in
  let g, a = Graph.add_node g Op.Phi in
  let g, b = Graph.add_node g Op.Add in
  let g, c = Graph.add_node g Op.Add in
  let g, d = Graph.add_node g Op.Add in
  let g = Graph.add_edge g a b in
  let g = Graph.add_edge g b c in
  let g = Graph.add_edge g c d in
  let g = Graph.add_edge ~distance:1 g d a in
  let g, p2 = Graph.add_node g Op.Phi in
  let g, q2 = Graph.add_node g Op.Add in
  let g = Graph.add_edge g p2 q2 in
  let g = Graph.add_edge ~distance:1 g q2 p2 in
  let secondary = Analysis.secondary_cycle_nodes g in
  Alcotest.(check bool) "p2 secondary" true (List.mem p2 secondary);
  Alcotest.(check bool) "a not secondary" false (List.mem a secondary)

let test_asap_alap () =
  let g, phi, ld, add = acc_loop () in
  let asap = Analysis.asap g and alap = Analysis.alap g in
  Alcotest.(check int) "asap phi" 0 (List.assoc phi asap);
  Alcotest.(check int) "asap add" 1 (List.assoc add asap);
  Alcotest.(check int) "alap ld" 0 (List.assoc ld alap);
  Alcotest.(check int) "depth" 2 (Analysis.depth g);
  List.iter
    (fun (id, a) ->
      if List.assoc id alap < a then Alcotest.failf "alap < asap for n%d" id)
    asap

(* ---------------- Transform ---------------- *)

let unroll2 ?(shared = []) ?(serial = []) g =
  Transform.unroll g ~spec:{ Transform.factor = 2; shared; serial_phis = serial }

let test_unroll_identity () =
  let g, _, _, _ = acc_loop () in
  let g1 = Transform.unroll g ~spec:{ Transform.factor = 1; shared = []; serial_phis = [] } in
  Alcotest.(check int) "factor 1 keeps nodes" (Graph.node_count g) (Graph.node_count g1)

let test_unroll_parallel_counts () =
  let g, _, _, _ = acc_loop () in
  (* parallel phi duplication: every node doubled *)
  let g2 = unroll2 g in
  Alcotest.(check int) "nodes doubled" 6 (Graph.node_count g2);
  Alcotest.(check int) "RecMII flat" 2 (Analysis.rec_mii g2)

let test_unroll_serial_counts () =
  let g, phi, _, _ = acc_loop () in
  let g2 = unroll2 ~serial:[ phi ] g in
  (* serial: phi elided once -> 2*3 - 1 nodes, cycle length 2*2-1 = 3 *)
  Alcotest.(check int) "nodes" 5 (Graph.node_count g2);
  Alcotest.(check int) "RecMII grows" 3 (Analysis.rec_mii g2)

let test_unroll_shared () =
  let g, phi, ld, _ = acc_loop () in
  let g2 = unroll2 ~shared:[ ld ] g in
  Alcotest.(check int) "shared load once" 5 (Graph.node_count g2);
  ignore phi

let test_unroll_validates () =
  let g, _, _, _ = acc_loop () in
  match Graph.validate (unroll2 g) with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "unrolled graph invalid: %s" msg

let test_unroll_bad_factor () =
  let g, _, _, _ = acc_loop () in
  Alcotest.check_raises "factor 0" (Invalid_argument "Transform.unroll: factor < 1")
    (fun () ->
      ignore (Transform.unroll g ~spec:{ Transform.factor = 0; shared = []; serial_phis = [] }))

let test_dce () =
  let g = Graph.empty in
  let g, ld = Graph.add_node g Op.Load in
  let g, dead = Graph.add_node g Op.Add in
  let g, st = Graph.add_node g Op.Store in
  let g = Graph.add_edge g ld st in
  let g = Graph.add_edge g ld dead in
  let g' = Transform.dead_code_eliminate g ~keep:[] in
  Alcotest.(check bool) "store kept" true (Graph.mem_node g' st);
  Alcotest.(check bool) "load kept (feeds store)" true (Graph.mem_node g' ld);
  Alcotest.(check bool) "dead removed" false (Graph.mem_node g' dead)

let test_dot_export () =
  let g, _, _, _ = acc_loop () in
  let dot = Dot.to_string g in
  Alcotest.(check bool) "digraph" true (String.length dot > 20);
  let contains_dashed =
    let needle = "style=dashed" in
    let rec scan i =
      i + String.length needle <= String.length dot
      && (String.sub dot i (String.length needle) = needle || scan (i + 1))
    in
    scan 0
  in
  Alcotest.(check bool) "has dashed carried edge" true contains_dashed

(* Random DAG + accumulator property: unrolled graphs always validate
   and RecMII never decreases. *)
let random_loop_gen =
  QCheck.Gen.(3 -- 12 >>= fun n -> small_nat >>= fun seed -> return (n, seed))

let build_random_loop (n, seed) =
  let rng = Iced_util.Rng.create seed in
  let g = Graph.empty in
  let g, phi = Graph.add_node g Op.Phi in
  let g, nodes =
    List.fold_left
      (fun (g, acc) _ ->
        let op = Iced_util.Rng.choose rng [ Op.Add; Op.Mul; Op.Sub; Op.Xor ] in
        let g, id = Graph.add_node g op in
        (* connect to a random earlier node to stay a DAG *)
        let src = Iced_util.Rng.choose rng (phi :: acc) in
        let g = Graph.add_edge g src id in
        (g, id :: acc))
      (g, []) (List.init n (fun i -> i))
  in
  let last = List.hd nodes in
  let g = Graph.add_edge ~distance:1 g last phi in
  (g, phi)

let prop_unroll_preserves_validity =
  QCheck.Test.make ~name:"unroll of random loop validates, RecMII monotone" ~count:100
    (QCheck.make random_loop_gen)
    (fun input ->
      let g, phi = build_random_loop input in
      match Graph.validate g with
      | Error _ -> QCheck.assume_fail ()
      | Ok () ->
        let base = Analysis.rec_mii g in
        let parallel = unroll2 g in
        let serial = unroll2 ~serial:[ phi ] g in
        Graph.validate parallel = Ok ()
        && Graph.validate serial = Ok ()
        && Analysis.rec_mii parallel >= 1
        && Analysis.rec_mii serial >= base)

(* The per-field definitions [Analysis.recurrences] replaced, each
   rebuilt from its own cycle enumeration. *)
let reference_recurrences g =
  let critical_of cycles =
    let mii = List.fold_left (fun acc c -> max acc (Analysis.cycle_mii c)) 1 cycles in
    cycles
    |> List.filter (fun c -> Analysis.cycle_mii c = mii)
    |> List.concat_map (fun c -> c.Analysis.members)
    |> List.sort_uniq compare
  in
  let secondary_of cycles =
    match cycles with
    | [] -> []
    | _ ->
      let longest = List.fold_left (fun acc c -> max acc c.Analysis.length) 0 cycles in
      let critical = critical_of (Analysis.recurrence_cycles g) in
      cycles
      |> List.filter (fun c -> c.Analysis.length * 2 <= longest)
      |> List.concat_map (fun c -> c.Analysis.members)
      |> List.filter (fun id -> not (List.mem id critical))
      |> List.sort_uniq compare
  in
  {
    Analysis.cycles = Analysis.recurrence_cycles g;
    rec_mii = Analysis.rec_mii g;
    critical = critical_of (Analysis.recurrence_cycles g);
    secondary = secondary_of (Analysis.recurrence_cycles g);
  }

let table1_graphs () =
  List.concat_map
    (fun (k : Iced_kernels.Kernel.t) ->
      List.map
        (fun factor ->
          (Printf.sprintf "%s uf%d" k.name factor, Iced_kernels.Kernel.dfg_at k ~factor))
        [ 1; 2 ])
    Iced_kernels.Registry.all

let test_recurrences_table1 () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " recurrences") true
        (Analysis.recurrences g = reference_recurrences g))
    (table1_graphs ())

let prop_recurrences_random_loops =
  QCheck.Test.make ~name:"recurrences of random loops match the per-field definitions"
    ~count:100 (QCheck.make random_loop_gen) (fun input ->
      let g, _ = build_random_loop input in
      Analysis.recurrences g = reference_recurrences g)

(* [Graph.edges] as it was first written: each source's edges appended
   in increasing source order, quadratic in the edge count. *)
let appended_edges g =
  List.fold_left (fun acc id -> acc @ Graph.successors g id) [] (Graph.node_ids g)

let test_edges_order () =
  let synthetic =
    List.concat_map
      (fun name ->
        let k = Option.get (Iced_kernels.Registry.by_name name) in
        List.map
          (fun factor ->
            (Printf.sprintf "%s uf%d" name factor, Iced_kernels.Kernel.dfg_at k ~factor))
          [ 1; 2 ])
      [ "rand40x1"; "rand60x2"; "rand80x3"; "rand100x1"; "rand120x3" ]
  in
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " edge order") true (Graph.edges g = appended_edges g))
    (table1_graphs () @ synthetic)

(* ---------------- The per-domain analysis entry ---------------- *)

let synthetic_graphs () =
  List.concat_map
    (fun name ->
      let k = Option.get (Iced_kernels.Registry.by_name name) in
      List.map
        (fun factor ->
          (Printf.sprintf "%s uf%d" name factor, Iced_kernels.Kernel.dfg_at k ~factor))
        [ 1; 2 ])
    [ "rand40x1"; "rand60x2" ]

(* Every analysis of one graph, read back to back. *)
let analyses g =
  ( Analysis.recurrence_cycles g,
    Analysis.recurrences g,
    Analysis.min_ii g ~tiles:4,
    Analysis.asap g,
    Analysis.alap g,
    Analysis.depth g )

let test_entry_shared () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " recurrences shared") true
        (Analysis.recurrences g == Analysis.recurrences g))
    (table1_graphs ())

(* Each analysis read for every graph in turn, so every call finds
   another graph's entry, gives what reading one graph's analyses back
   to back gives. *)
let test_entry_interleaved () =
  let graphs = List.map snd (table1_graphs ()) in
  let each f = List.map f graphs in
  let cycles = each Analysis.recurrence_cycles in
  let recurrences = each Analysis.recurrences in
  let min_ii = each (Analysis.min_ii ~tiles:4) in
  let asap = each Analysis.asap in
  let alap = each Analysis.alap in
  let depth = each Analysis.depth in
  List.iteri
    (fun i g ->
      Alcotest.(check bool) (Printf.sprintf "graph %d" i) true
        (analyses g
        = ( List.nth cycles i,
            List.nth recurrences i,
            List.nth min_ii i,
            List.nth asap i,
            List.nth alap i,
            List.nth depth i )))
    graphs

(* Two domains analysing the Table I graphs in opposite orders, each
   through its own entry, get the serial results. *)
let test_entry_domains () =
  let graphs = List.map snd (table1_graphs ()) in
  let serial = List.map analyses graphs in
  let spawn order = Domain.spawn (fun () -> List.map analyses order) in
  let forward = spawn graphs and backward = spawn (List.rev graphs) in
  Alcotest.(check bool) "forward" true (Domain.join forward = serial);
  Alcotest.(check bool) "backward" true (List.rev (Domain.join backward) = serial)

(* The Hashtbl definitions of ASAP, ALAP and depth that the entry's
   arrays replaced, kept as their reference. *)
let reference_asap g =
  match Graph.intra_topological g with
  | None -> invalid_arg "Analysis.asap: cyclic intra subgraph"
  | Some order ->
    let level = Hashtbl.create 64 in
    List.iter
      (fun id ->
        let preds = Graph.intra_predecessors g id in
        let lvl =
          List.fold_left (fun acc p -> max acc (Hashtbl.find level p + 1)) 0 preds
        in
        Hashtbl.replace level id lvl)
      order;
    List.map (fun id -> (id, Hashtbl.find level id)) (Graph.node_ids g)

let reference_depth g =
  match reference_asap g with
  | [] -> 0
  | levels -> 1 + List.fold_left (fun acc (_, l) -> max acc l) 0 levels

let reference_alap g =
  match Graph.intra_topological g with
  | None -> invalid_arg "Analysis.alap: cyclic intra subgraph"
  | Some order ->
    let max_level = reference_depth g - 1 in
    let level = Hashtbl.create 64 in
    List.iter
      (fun id ->
        let succs = Graph.intra_successors g id in
        let lvl =
          List.fold_left (fun acc s -> min acc (Hashtbl.find level s - 1)) max_level succs
        in
        Hashtbl.replace level id lvl)
      (List.rev order);
    List.map (fun id -> (id, Hashtbl.find level id)) (Graph.node_ids g)

let test_levels_reference () =
  List.iter
    (fun (name, g) ->
      let levels = Alcotest.(list (pair int int)) in
      Alcotest.check levels (name ^ " asap") (reference_asap g) (Analysis.asap g);
      Alcotest.check levels (name ^ " alap") (reference_alap g) (Analysis.alap g);
      Alcotest.(check int) (name ^ " depth") (reference_depth g) (Analysis.depth g))
    ((("empty", Graph.empty) :: table1_graphs ()) @ synthetic_graphs ())

(* Each reader keeps its own message, on a cold entry and a warm one. *)
let test_levels_cyclic () =
  let g = Graph.empty in
  let g, a = Graph.add_node g Op.Add in
  let g, b = Graph.add_node g Op.Add in
  let g = Graph.add_edge (Graph.add_edge g a b) b a in
  let asap_error = Invalid_argument "Analysis.asap: cyclic intra subgraph" in
  let alap_error = Invalid_argument "Analysis.alap: cyclic intra subgraph" in
  Alcotest.check_raises "asap" asap_error (fun () -> ignore (Analysis.asap g));
  Alcotest.check_raises "alap" alap_error (fun () -> ignore (Analysis.alap g));
  Alcotest.check_raises "depth" asap_error (fun () -> ignore (Analysis.depth g));
  ignore (Analysis.recurrences Graph.empty);
  Alcotest.check_raises "alap, cold" alap_error (fun () -> ignore (Analysis.alap g))

let suite =
  [
    ("graph basics", `Quick, test_graph_basics);
    ("graph duplicate edge dedup", `Quick, test_graph_duplicate_edge);
    ("graph remove node", `Quick, test_graph_remove_node);
    ("graph invalid edges", `Quick, test_graph_invalid_edges);
    ("graph validate ok", `Quick, test_graph_validate_ok);
    ("graph validate cyclic", `Quick, test_graph_validate_cyclic);
    ("graph topological order", `Quick, test_graph_topological);
    ("recurrence MII", `Quick, test_rec_mii);
    ("recurrence MII with distance", `Quick, test_rec_mii_distance);
    ("recurrence MII acyclic", `Quick, test_rec_mii_acyclic);
    ("resource MII", `Quick, test_res_mii);
    ("critical nodes", `Quick, test_critical_nodes);
    ("secondary cycles", `Quick, test_secondary_cycles);
    ("asap/alap/depth", `Quick, test_asap_alap);
    ("unroll factor 1 identity", `Quick, test_unroll_identity);
    ("unroll parallel counts", `Quick, test_unroll_parallel_counts);
    ("unroll serial counts", `Quick, test_unroll_serial_counts);
    ("unroll shared nodes", `Quick, test_unroll_shared);
    ("unroll validates", `Quick, test_unroll_validates);
    ("unroll bad factor", `Quick, test_unroll_bad_factor);
    ("dead code elimination", `Quick, test_dce);
    ("dot export", `Quick, test_dot_export);
    QCheck_alcotest.to_alcotest prop_unroll_preserves_validity;
    ("recurrences of Table I kernels, uf1 and uf2", `Quick, test_recurrences_table1);
    QCheck_alcotest.to_alcotest prop_recurrences_random_loops;
    ("edges in source order, Table I and synthetic graphs", `Quick, test_edges_order);
    ("analysis entry: recurrences shared while warm", `Quick, test_entry_shared);
    ("analysis entry: interleaved graphs", `Quick, test_entry_interleaved);
    ("analysis entry: two domains, opposite orders", `Quick, test_entry_domains);
    ("analysis entry: asap/alap/depth as the Hashtbl reference", `Quick,
     test_levels_reference);
    ("analysis entry: cyclic intra subgraph, per-reader errors", `Quick, test_levels_cyclic);
  ]
