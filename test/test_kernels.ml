(* Tests pinning every Table I statistic and checking kernel semantics
   against golden OCaml reference implementations. *)

open Iced_kernels

let all = Registry.all

let test_table1_uf1_exact () =
  List.iter
    (fun (k : Kernel.t) ->
      let n, e, r = Kernel.stats k.dfg in
      let p = Option.get k.table in
      Alcotest.(check (triple int int int))
        (k.name ^ " uf1 matches Table I")
        (p.nodes1, p.edges1, p.rec_mii1) (n, e, r))
    all

let test_table1_uf2_nodes_and_mii_exact () =
  List.iter
    (fun (k : Kernel.t) ->
      let n, _, r = Kernel.stats (Kernel.dfg_at k ~factor:2) in
      let p = Option.get k.table in
      Alcotest.(check (pair int int))
        (k.name ^ " uf2 nodes/RecMII match Table I")
        (p.nodes2, p.rec_mii2) (n, r))
    all

let test_table1_uf2_edges_close () =
  (* the generic unroller reproduces edge counts within a few edges of
     Table I (documented in EXPERIMENTS.md) *)
  List.iter
    (fun (k : Kernel.t) ->
      let _, e, _ = Kernel.stats (Kernel.dfg_at k ~factor:2) in
      let paper = (Option.get k.table).edges2 in
      if abs (e - paper) > 6 then
        Alcotest.failf "%s uf2 edges %d too far from paper %d" k.name e paper)
    all

let test_all_graphs_validate () =
  List.iter
    (fun (k : Kernel.t) ->
      (match Iced_dfg.Graph.validate k.dfg with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s uf1: %s" k.name m);
      match Iced_dfg.Graph.validate (Kernel.dfg_at k ~factor:2) with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s uf2: %s" k.name m)
    all

let test_registry () =
  Alcotest.(check int) "21 kernels" 21 (List.length all);
  Alcotest.(check int) "10 standalone" 10 (List.length Registry.standalone);
  Alcotest.(check int) "5 gcn" 5 (List.length Registry.gcn);
  Alcotest.(check int) "6 lu" 6 (List.length Registry.lu);
  Alcotest.(check bool) "lookup works" true (Registry.by_name "spmv" <> None);
  Alcotest.(check bool) "unknown none" true (Registry.by_name "nope" = None);
  Alcotest.(check int) "unique names" 21
    (List.length (List.sort_uniq compare (Registry.names ())))

let test_synth_registry () =
  (* rand<nodes>x<seed> names resolve through the registry without
     being enumerated in [names ()] *)
  match Registry.by_name "rand24x7" with
  | None -> Alcotest.fail "rand24x7 should resolve"
  | Some k ->
    Alcotest.(check string) "name echoes the request" "rand24x7" k.Kernel.name;
    (match Iced_dfg.Graph.validate k.Kernel.dfg with
    | Ok () -> ()
    | Error m -> Alcotest.failf "rand24x7: %s" m);
    let n, _, r = Kernel.stats k.Kernel.dfg in
    Alcotest.(check int) "node count honored" 24 n;
    Alcotest.(check bool) "cyclic (RecMII > 0)" true (r > 0);
    let k' = Option.get (Registry.by_name "rand24x7") in
    Alcotest.(check bool) "deterministic regeneration" true
      (Kernel.stats k.Kernel.dfg = Kernel.stats k'.Kernel.dfg);
    let k2 = Option.get (Registry.by_name "rand24x8") in
    Alcotest.(check bool) "seed varies the graph" true
      (Kernel.stats k.Kernel.dfg <> Kernel.stats k2.Kernel.dfg
      || Iced_dfg.Graph.node_ids k.Kernel.dfg <> Iced_dfg.Graph.node_ids k2.Kernel.dfg
      || k.Kernel.dfg <> k2.Kernel.dfg)

let test_synth_rejects_malformed () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " rejected") true (Registry.by_name name = None))
    [ "rand"; "randx"; "rand7x1"; "rand0x0"; "rand12"; "rand12x"; "randx12"; "rand12x-3";
      "rand 12x3"; "rand12x3x4"; "rand012x3"; "rand12x+3";
      Synth.name ~nodes:(Synth.max_nodes + 1) ~seed:1 ];
  (* the node budget is bounded from above too; the largest is a name *)
  Alcotest.(check (option (pair int int))) "largest budget parses"
    (Some (Synth.max_nodes, 1))
    (Synth.parse_name (Synth.name ~nodes:Synth.max_nodes ~seed:1))

let test_unroll_factor_guard () =
  let fir = Option.get (Registry.by_name "fir") in
  Alcotest.check_raises "factor 3"
    (Invalid_argument "Kernel.dfg_at: only unroll factors 1 and 2 are modeled") (fun () ->
      ignore (Kernel.dfg_at fir ~factor:3))

(* ---------------- Golden semantics ---------------- *)

let interpret (k : Kernel.t) n = Iced_sim.Sim.interpret ~binding:k.binding k.dfg ~iterations:n

(* fir: y[i] = (sum_{j<=i} x[j]*c[j], i) with x/c as in the binding *)
let test_fir_golden () =
  let k = Option.get (Registry.by_name "fir") in
  let n = 16 in
  let stores = interpret k n in
  let x i = (3 * i) + 1 and c i = (i mod 7) - 3 in
  let acc = ref 0 in
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      acc := !acc + (x i * c i);
      Alcotest.(check string) "label" "y" ev.label;
      Alcotest.(check int) "iter" i ev.iter;
      Alcotest.(check (list int))
        (Printf.sprintf "fir store %d" i)
        [ !acc; (if i = 0 then 0 else i) ]
        ev.operands)
    stores;
  Alcotest.(check int) "one store per iteration" n (List.length stores)

(* latnrm: state' = state * k[i] + x[i] *)
let test_latnrm_golden () =
  let k = Option.get (Registry.by_name "latnrm") in
  let n = 12 in
  let stores = interpret k n in
  let x i = i + 1 and coeff i = if i mod 2 = 0 then 1 else -1 in
  let state = ref 0 in
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      state := (!state * coeff i) + x i;
      Alcotest.(check int) "value" !state (List.hd ev.operands))
    stores

(* relu: y = max(x, 0), active-lane counter alongside *)
let test_relu_golden () =
  let k = Option.get (Registry.by_name "relu") in
  let n = 20 in
  let stores = interpret k n in
  let x i = ((i * 37) mod 41) - 20 in
  let count = ref 0 in
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      let expected = max (x i) 0 in
      if x i > 0 then incr count;
      match ev.operands with
      | [ v; idx; cnt ] ->
        Alcotest.(check int) "max(x,0)" expected v;
        Alcotest.(check int) "index" (if i = 0 then 0 else i) idx;
        Alcotest.(check int) "active count" !count cnt
      | _ -> Alcotest.fail "relu store arity")
    stores

(* histogram: count[bin]++ with the binding's stateless count read *)
let test_histogram_golden () =
  let k = Option.get (Registry.by_name "histogram") in
  let n = 10 in
  let stores = interpret k n in
  let x i = (i * 131) mod 1021 in
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      let bin = (x i lsr 4) land 63 in
      let expected = (bin mod 7) + 1 in
      Alcotest.(check int) "incremented count" expected (List.hd ev.operands))
    stores

(* mvt golden: two accumulators over a and x / y2 *)
let test_mvt_golden () =
  let k = Option.get (Registry.by_name "mvt") in
  let n = 8 in
  let stores = interpret k n in
  let a addr = ((addr * 19) mod 29) - 14 in
  let x i = (i mod 11) - 5 in
  let y2 addr = (addr mod 13) - 6 in
  let acc1 = ref 0 and acc2 = ref 0 in
  let ys = List.filter (fun (e : Iced_sim.Sim.store_event) -> e.label = "y") stores in
  let xts = List.filter (fun (e : Iced_sim.Sim.store_event) -> e.label = "xt") stores in
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      acc1 := !acc1 + (a i * x i);
      Alcotest.(check int) "y accumulator" !acc1 (List.hd ev.operands))
    ys;
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      acc2 := !acc2 + (a i * y2 (i + 128));
      Alcotest.(check int) "xt accumulator" !acc2 (List.hd ev.operands))
    xts;
  Alcotest.(check int) "both streams present" (2 * n) (List.length stores)

(* spmv: row-reset predicated accumulation *)
let test_spmv_golden () =
  let k = Option.get (Registry.by_name "spmv") in
  let n = 20 in
  let stores = interpret k n in
  let col i = (i * 13) mod 512 in
  let v i = (i mod 9) + 1 in
  let x addr = (addr mod 17) - 8 in
  let rowid i = i / 8 in
  (* faithful dataflow trace: prev = committed value of the previous
     iteration; s1 = select(is_new, 0, prev); add = s1 + prod;
     s2 = select(is_new, add) with an implicit-zero else *)
  let prev = ref 0 in
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      let is_new = rowid i <> 0 in
      let s1 = if is_new then 0 else !prev in
      let add = s1 + (v i * x (col i)) in
      let s2 = if is_new then add else 0 in
      prev := s2;
      Alcotest.(check int) (Printf.sprintf "spmv commit %d" i) s2 (List.hd ev.operands))
    stores

(* conv: acc += img[i+32] * w[i] *)
let test_conv_golden () =
  let k = Option.get (Registry.by_name "conv") in
  let n = 12 in
  let stores = interpret k n in
  (* gep.img = (i + 32) + 4096; img addr reaches the binding *)
  let img addr = (addr mod 23) - 11 in
  let w i = (i mod 5) - 2 in
  let acc = ref 0 in
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      acc := !acc + (img (i + 32 + 4096) * w i);
      Alcotest.(check int) (Printf.sprintf "conv acc %d" i) !acc (List.hd ev.operands))
    stores

(* gemm: serial predicated accumulator gated by the induction compare *)
let test_gemm_golden () =
  let k = Option.get (Registry.by_name "gemm") in
  let n = 10 in
  let stores = interpret k n in
  let a addr = ((addr * 7) mod 19) - 9 in
  let b addr = ((addr * 3) mod 23) - 11 in
  let prev = ref 0 in
  List.iteri
    (fun i (ev : Iced_sim.Sim.store_event) ->
      (* cmp = (i+1 < 128) = 1 for these iterations *)
      let idx = if i = 0 then 0 else i in
      let prod = a idx * b (idx * 128) in
      let committed = !prev + prod in
      prev := committed;
      Alcotest.(check int) (Printf.sprintf "gemm acc %d" i) committed (List.hd ev.operands))
    stores

(* determinism: interpret twice gives identical traces for every kernel *)
let test_all_kernels_deterministic () =
  List.iter
    (fun (k : Kernel.t) ->
      let a = interpret k 6 and b = interpret k 6 in
      if a <> b then Alcotest.failf "%s non-deterministic" k.name)
    all

(* The unroll-2 graph is built once per kernel: repeated calls return
   the same physical graph, and so do two domains racing on a kernel no
   one has unrolled yet (fresh synthetic kernels, several rounds). *)
let test_unrolled_graph_shared () =
  List.iter
    (fun (k : Kernel.t) ->
      let g = Kernel.dfg_at k ~factor:2 in
      Alcotest.(check bool) (k.name ^ " same graph") true (Kernel.dfg_at k ~factor:2 == g);
      Alcotest.(check bool) (k.name ^ " factor 1 is the dfg") true
        (Kernel.dfg_at k ~factor:1 == k.dfg))
    all;
  for seed = 1 to 8 do
    let k = Synth.kernel ~nodes:60 ~seed in
    let unroll () = Kernel.dfg_at k ~factor:2 in
    let a = Domain.spawn unroll and b = Domain.spawn unroll in
    let ga = Domain.join a and gb = Domain.join b in
    Alcotest.(check bool) (k.name ^ " one graph across domains") true
      (ga == gb && unroll () == ga);
    Alcotest.(check bool) (k.name ^ " is the unrolled dfg") true
      (Kernel.stats ga
      = Kernel.stats
          (Iced_dfg.Transform.unroll k.dfg
             ~spec:{ Iced_dfg.Transform.factor = 2; shared = []; serial_phis = [] }))
  done

let suite =
  [
    ("Table I uf1 exact (21 kernels)", `Quick, test_table1_uf1_exact);
    ("Table I uf2 nodes+RecMII exact", `Quick, test_table1_uf2_nodes_and_mii_exact);
    ("Table I uf2 edges within tolerance", `Quick, test_table1_uf2_edges_close);
    ("all kernel graphs validate", `Quick, test_all_graphs_validate);
    ("registry structure", `Quick, test_registry);
    ("synthetic kernels resolve", `Quick, test_synth_registry);
    ("synthetic kernel names validated", `Quick, test_synth_rejects_malformed);
    ("unroll factor guard", `Quick, test_unroll_factor_guard);
    ("fir golden semantics", `Quick, test_fir_golden);
    ("latnrm golden semantics", `Quick, test_latnrm_golden);
    ("relu golden semantics", `Quick, test_relu_golden);
    ("histogram golden semantics", `Quick, test_histogram_golden);
    ("mvt golden semantics", `Quick, test_mvt_golden);
    ("spmv golden semantics", `Quick, test_spmv_golden);
    ("conv golden semantics", `Quick, test_conv_golden);
    ("gemm golden semantics", `Quick, test_gemm_golden);
    ("all kernels deterministic", `Quick, test_all_kernels_deterministic);
    ("unroll-2 graph built once, shared across domains", `Quick, test_unrolled_graph_shared);
  ]
