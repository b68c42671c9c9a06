(* Regenerate the SAT solver golden file:

     dune exec test/gen/gen_sat_golden.exe > test/golden/sat_golden.txt

   Only do this when a change to the solver's search (propagation
   order, conflict analysis, decisions, restarts) or to the CNF the
   exact oracle builds is intended; the differential suite exists to
   prove solver and encoder optimisations keep every line identical.
   The instances are listed in sat_gen.ml. *)

let () = List.iter print_endline (Iced_testgen.Sat_gen.golden_lines ())
