(* Fingerprints of the SAT solver's search: one line per instance with
   its outcome, the solver's cumulative statistics (conflicts,
   decisions, propagations, restarts, learned clauses), its problem
   clause and variable counts, and an FNV-1a hash of the model after a
   [Sat] answer ("-" otherwise).  The solver is deterministic, so a
   change to how it stores clauses or walks its watch lists that keeps
   the search must reproduce every line; one that changes the order in
   which literals propagate, conflicts are found or clauses are learned
   shows up as a changed counter or model.
   test/golden/sat_golden.txt holds the lines; the differential suite
   re-derives and compares them.  Regenerate (gen_sat_golden.ml) only
   when a change to the search is intended and reviewed.

   Instances:
   - encode/<kernel>/ii<N>: Encode.build of every standalone kernel on
     the 6x6 fabric one above its lower-bound II under the wide window
     rule (the CNF the oracle refutes with), solved under a conflict
     budget; a Sat answer is followed by Encode.block of the decoded
     model and one more solve (/block); then the same kernel and II
     under the narrow rule, solved once (/narrow);
   - php/<p>x<h>: pigeonhole with p pigeons in h holes, 3 to 7 holes,
     both p = h + 1 (unsat) and p = h (sat), with the pairwise and the
     ladder at-most-one encodings;
   - rand/<i>: seeded random CNFs with clauses of 1 to 4 literals,
     including units, duplicate and complementary literals, clauses
     added between solves, conflict budgets that run out followed by
     a resumed solve, and a blocking clause after each model;
   - certify/<kernel>: Exact.certify on the standalone kernels the
     oracle decides, with the witness placements hashed in place of a
     model; the default backend maps each at its lower bound, so these
     lines build no CNF.  certify/init-u2 and certify/decompose-u2
     (unroll 2), which the default backend maps at 9 and 8, pin the
     narrow stage's witness search at their optimum 7. *)

module Solver = Iced_sat.Solver
module Card = Iced_sat.Card
module Encode = Iced_mapper.Encode
module Exact = Iced_mapper.Exact
module Fnv = Iced_util.Fnv
module Rng = Iced_util.Rng

let cgra = Iced_arch.Cgra.iced_6x6

let outcome_string = function
  | Solver.Sat -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

let model_hash s =
  let h = ref Fnv.offset_basis in
  for v = 0 to Solver.var_count s - 1 do
    h := Fnv.byte !h (if Solver.value s v then '1' else '0')
  done;
  Fnv.to_hex !h

(* Solve and fingerprint; the model hash is read before the caller
   touches the solver again. *)
let solve_line ?budget ?seed tag s =
  let o = Solver.solve ?budget ?seed s in
  let st = Solver.stats s in
  let line =
    Printf.sprintf
      "%s\t%s\tconflicts=%d\tdecisions=%d\tpropagations=%d\trestarts=%d\tlearned=%d\tclauses=%d\tvars=%d\tmodel=%s"
      tag (outcome_string o) st.Solver.conflicts st.decisions st.propagations
      st.restarts st.learned (Solver.clause_count s) (Solver.var_count s)
      (if o = Solver.Sat then model_hash s else "-")
  in
  (o, line)

(* ------------------------------------------------------------------ *)
(* Table I encodings *)

let encode_budget = 150

let encode_lines () =
  List.concat_map
    (fun (k : Iced_kernels.Kernel.t) ->
      let g = k.dfg in
      let ii = 1 + Iced_dfg.Analysis.min_ii g ~tiles:(Iced_arch.Cgra.tile_count cgra) in
      let tag = Printf.sprintf "encode/%s/ii%d" k.name ii in
      let wide =
        match Encode.build cgra g ~ii ~rule:Encode.Wide with
        | Error msg -> [ Printf.sprintf "%s\terror\t%s" tag msg ]
        | Ok enc -> (
          let s = Encode.solver enc in
          match solve_line ~budget:encode_budget tag s with
          | Solver.Sat, line ->
            Encode.block enc (Encode.decode enc);
            let _, again = solve_line ~budget:encode_budget (tag ^ "/block") s in
            [ line; again ]
          | _, line -> [ line ])
      in
      let tag = tag ^ "/narrow" in
      let narrow =
        match Encode.build cgra g ~ii ~rule:Encode.Narrow with
        | Error msg -> Printf.sprintf "%s\terror\t%s" tag msg
        | Ok enc -> snd (solve_line ~budget:encode_budget tag (Encode.solver enc))
      in
      wide @ [ narrow ])
    Iced_kernels.Registry.standalone

(* ------------------------------------------------------------------ *)
(* pigeonhole *)

let pigeonhole ~pigeons ~holes =
  let s = Solver.create () in
  let x = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Solver.pos x.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    Card.at_most_one s (List.init pigeons (fun p -> Solver.pos x.(p).(h)))
  done;
  s

let php_lines () =
  List.concat_map
    (fun holes ->
      List.map
        (fun pigeons ->
          let s = pigeonhole ~pigeons ~holes in
          snd (solve_line ~seed:holes (Printf.sprintf "php/%dx%d" pigeons holes) s))
        [ holes + 1; holes ])
    [ 3; 4; 5; 6; 7 ]

(* ------------------------------------------------------------------ *)
(* random CNFs *)

(* Even instances are small and mixed: every clause length from 1 to
   4, so units fire at level 0 and clauses shrink or vanish as they are
   added.  Odd ones are near-threshold 3-CNFs with a sprinkle of 4- and
   2-literal clauses, hard enough to learn, restart and run out of a
   conflict budget. *)
let random_clause rng ~hard nvars =
  let len =
    if hard then match Rng.int rng 100 with 0 -> 1 | 1 | 2 | 3 -> 2 | n when n < 90 -> 3 | _ -> 4
    else match Rng.int rng 20 with 0 -> 1 | 1 | 2 -> 2 | 3 | 4 | 5 | 6 | 7 | 8 -> 3 | _ -> 4
  in
  let lit () =
    let v = Rng.int rng nvars in
    if Rng.bool rng then Solver.pos v else Solver.neg v
  in
  let lits = List.init len (fun _ -> lit ()) in
  match (Rng.int rng 12, lits) with
  | 0, l :: _ -> l :: lits  (* duplicate literal *)
  | 1, l :: _ -> Solver.negate l :: lits  (* tautology *)
  | _ -> lits

let rand_lines ~count =
  List.concat
    (List.init count (fun i ->
         let rng = Rng.create (0x5a7 + i) in
         let hard = i mod 2 = 1 in
         let nvars =
           if i mod 8 = 7 then 150 + Rng.int rng 100
           else if hard then 40 + Rng.int rng 110
           else 4 + Rng.int rng 40
         in
         let nclauses =
           if hard then nvars * (40 + Rng.int rng 8) / 10 else nvars * (30 + Rng.int rng 20) / 10
         in
         let s = Solver.create () in
         for _ = 1 to nvars do ignore (Solver.new_var s) done;
         let tag = Printf.sprintf "rand/%d" i in
         let add_clauses n =
           for _ = 1 to n do Solver.add_clause s (random_clause rng ~hard nvars) done
         in
         add_clauses (nclauses / 2);
         let _, a = solve_line ~seed:i (tag ^ "/a") s in
         add_clauses (nclauses - (nclauses / 2));
         let o, b = solve_line ~budget:(1 + Rng.int rng 60) ~seed:i (tag ^ "/b") s in
         let o, c =
           match o with
           | Solver.Unknown ->
             let o, c = solve_line ~seed:i (tag ^ "/c") s in
             (o, [ c ])
           | o -> (o, [])
         in
         let d =
           match o with
           | Solver.Sat ->
             let block =
               List.init nvars (fun v -> if Solver.value s v then Solver.neg v else Solver.pos v)
             in
             Solver.add_clause s block;
             [ snd (solve_line ~seed:i (tag ^ "/d") s) ]
           | _ -> []
         in
         (a :: b :: c) @ d))

(* ------------------------------------------------------------------ *)
(* Exact.certify *)

let certify_kernels =
  List.map (fun name -> (name, 1))
    [ "fir"; "latnrm"; "dtw"; "spmv"; "conv"; "relu"; "histogram"; "mvt"; "gemm" ]
  @ [ ("init", 2); ("decompose", 2) ]

let witness_hash (m : Iced_mapper.Mapping.t) =
  let h = ref Fnv.offset_basis in
  List.iter
    (fun (n, (tile, time)) -> h := Fnv.string !h (Printf.sprintf "%d:%d@%d;" n tile time))
    m.placements;
  Fnv.to_hex !h

let certify_lines () =
  List.map
    (fun (name, factor) ->
      let k = Option.get (Iced_kernels.Registry.by_name name) in
      let r = Exact.certify cgra (Iced_kernels.Kernel.dfg_at k ~factor) in
      Printf.sprintf
        "certify/%s\t%s\tconflicts=%d\tdecisions=%d\tpropagations=%d\trestarts=%d\troute_blocks=%d\tclauses=%d\tvars=%d\twitness=%s"
        (if factor = 1 then name else Printf.sprintf "%s-u%d" name factor)
        (match r.verdict with
        | Exact.Optimal ii -> Printf.sprintf "optimal:%d" ii
        | Exact.Infeasible -> "infeasible"
        | Exact.Unknown { first_undecided; _ } -> Printf.sprintf "unknown:%d" first_undecided)
        r.conflicts r.decisions r.propagations r.restarts r.route_blocks r.clauses r.vars
        (match r.witness with Some m -> witness_hash m | None -> "-"))
    certify_kernels

let golden_lines () = encode_lines () @ php_lines () @ rand_lines ~count:160 @ certify_lines ()
