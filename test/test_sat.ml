(* The CDCL solver behind the exact-mapping oracle: unit propagation,
   clause learning, cardinality encodings, pigeonhole UNSAT, budget
   behaviour, determinism, and a brute-force differential on random
   small CNFs. *)

module Solver = Iced_sat.Solver
module Card = Iced_sat.Card

let outcome =
  Alcotest.testable
    (fun fmt o ->
      Format.pp_print_string fmt
        (match o with
        | Solver.Sat -> "sat"
        | Solver.Unsat -> "unsat"
        | Solver.Unknown -> "unknown"))
    ( = )

let fresh n =
  let s = Solver.create () in
  let vars = Array.init n (fun _ -> Solver.new_var s) in
  (s, vars)

let test_unit_propagation () =
  (* a, a -> b, b -> c: all forced true without a single decision *)
  let s, v = fresh 3 in
  Solver.add_clause s [ Solver.pos v.(0) ];
  Solver.add_clause s [ Solver.neg v.(0); Solver.pos v.(1) ];
  Solver.add_clause s [ Solver.neg v.(1); Solver.pos v.(2) ];
  Alcotest.check outcome "sat" Solver.Sat (Solver.solve s);
  Array.iter (fun v -> Alcotest.(check bool) "forced" true (Solver.value s v)) v;
  Alcotest.(check int) "no conflicts" 0 (Solver.stats s).Solver.conflicts

let test_trivial_unsat () =
  let s, v = fresh 1 in
  Solver.add_clause s [ Solver.pos v.(0) ];
  Solver.add_clause s [ Solver.neg v.(0) ];
  Alcotest.check outcome "unsat" Solver.Unsat (Solver.solve s)

let test_empty_clause_unsat () =
  let s, _ = fresh 2 in
  Solver.add_clause s [];
  Alcotest.check outcome "unsat" Solver.Unsat (Solver.solve s)

(* A model must satisfy every clause we added (exercises learning:
   the instance needs conflicts before a model is found). *)
let test_model_satisfies_clauses () =
  let n = 9 in
  let s, v = fresh n in
  let clauses = ref [] in
  let add c =
    clauses := c :: !clauses;
    Solver.add_clause s c
  in
  (* xor-ish chains force conflicts under saved phases *)
  for i = 0 to n - 3 do
    add [ Solver.pos v.(i); Solver.pos v.(i + 1); Solver.pos v.(i + 2) ];
    add [ Solver.neg v.(i); Solver.neg v.(i + 1); Solver.neg v.(i + 2) ];
    add [ Solver.pos v.(i); Solver.neg v.(i + 1); Solver.pos v.(i + 2) ]
  done;
  Alcotest.check outcome "sat" Solver.Sat (Solver.solve s);
  let lit_true l = Solver.value s (Solver.var_of l) = (l land 1 = 0) in
  List.iter
    (fun c ->
      Alcotest.(check bool) "clause satisfied" true (List.exists lit_true c))
    !clauses

let pigeonhole s ~pigeons ~holes =
  let x =
    Array.init pigeons (fun _ ->
        Array.init holes (fun _ -> Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s
      (List.init holes (fun h -> Solver.pos x.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    Card.at_most_one s (List.init pigeons (fun p -> Solver.pos x.(p).(h)))
  done

let test_pigeonhole_unsat () =
  let s = Solver.create () in
  pigeonhole s ~pigeons:5 ~holes:4;
  Alcotest.check outcome "php(5,4) unsat" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool)
    "learning happened" true
    ((Solver.stats s).Solver.conflicts > 0)

let test_pigeonhole_sat () =
  let s = Solver.create () in
  pigeonhole s ~pigeons:4 ~holes:4;
  Alcotest.check outcome "php(4,4) sat" Solver.Sat (Solver.solve s)

let test_budget_unknown_then_resumable () =
  let s = Solver.create () in
  pigeonhole s ~pigeons:7 ~holes:6;
  Alcotest.check outcome "budget 1" Solver.Unknown (Solver.solve ~budget:1 s);
  (* the solver stays usable and eventually refutes *)
  Alcotest.check outcome "unbounded" Solver.Unsat (Solver.solve s)

let test_exactly_one () =
  let s, v = fresh 7 in
  Card.exactly_one s (Array.to_list (Array.map Solver.pos v));
  Alcotest.check outcome "sat" Solver.Sat (Solver.solve s);
  let trues =
    Array.fold_left (fun n x -> if Solver.value s x then n + 1 else n) 0 v
  in
  Alcotest.(check int) "one true" 1 trues;
  (* forcing two true is a contradiction *)
  Solver.add_clause s [ Solver.pos v.(2) ];
  Solver.add_clause s [ Solver.pos v.(5) ];
  Alcotest.check outcome "two forced" Solver.Unsat (Solver.solve s)

let test_at_most_k () =
  let check_k ~n ~k ~force expected =
    let s, v = fresh n in
    Card.at_most_k s ~k (Array.to_list (Array.map Solver.pos v));
    for i = 0 to force - 1 do
      Solver.add_clause s [ Solver.pos v.(i) ]
    done;
    Alcotest.check outcome
      (Printf.sprintf "n=%d k=%d force=%d" n k force)
      expected (Solver.solve s)
  in
  check_k ~n:6 ~k:3 ~force:3 Solver.Sat;
  check_k ~n:6 ~k:3 ~force:4 Solver.Unsat;
  check_k ~n:5 ~k:0 ~force:1 Solver.Unsat;
  check_k ~n:5 ~k:0 ~force:0 Solver.Sat;
  check_k ~n:4 ~k:4 ~force:4 Solver.Sat

let test_deterministic () =
  let run () =
    let s = Solver.create () in
    pigeonhole s ~pigeons:4 ~holes:4;
    let o = Solver.solve ~seed:7 s in
    let st = Solver.stats s in
    let model =
      List.init (Solver.var_count s) (fun v -> Solver.value s v)
    in
    (o, st.Solver.conflicts, st.Solver.decisions, st.Solver.propagations, model)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical runs" true (a = b)

(* Differential: random 3-CNFs vs brute-force enumeration. *)
let test_random_vs_bruteforce =
  QCheck.Test.make ~count:150 ~name:"solver agrees with brute force"
    QCheck.(
      pair (int_range 1 8)
        (list_of_size Gen.(int_range 1 30) (pair (int_range 0 7) (triple small_nat small_nat small_nat))))
    (fun (nvars, raw) ->
      let clauses =
        List.map
          (fun (signs, (a, b, c)) ->
            let lit i bit v =
              let v = v mod nvars in
              if (i lsr bit) land 1 = 0 then Solver.pos v else Solver.neg v
            in
            [ lit signs 0 a; lit signs 1 b; lit signs 2 c ])
          raw
      in
      let s = Solver.create () in
      for _ = 1 to nvars do ignore (Solver.new_var s) done;
      List.iter (Solver.add_clause s) clauses;
      let got = Solver.solve s in
      let lit_true assignment l =
        let v = Solver.var_of l in
        (assignment lsr v) land 1 = if l land 1 = 0 then 1 else 0
      in
      let satisfiable = ref false in
      for a = 0 to (1 lsl nvars) - 1 do
        if
          (not !satisfiable)
          && List.for_all (List.exists (lit_true a)) clauses
        then satisfiable := true
      done;
      got = if !satisfiable then Solver.Sat else Solver.Unsat)

let suite =
  [
    Alcotest.test_case "unit propagation" `Quick test_unit_propagation;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
    Alcotest.test_case "model satisfies clauses" `Quick
      test_model_satisfies_clauses;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole_unsat;
    Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
    Alcotest.test_case "budget unknown" `Quick test_budget_unknown_then_resumable;
    Alcotest.test_case "exactly one" `Quick test_exactly_one;
    Alcotest.test_case "at most k" `Quick test_at_most_k;
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    QCheck_alcotest.to_alcotest test_random_vs_bruteforce;
  ]
