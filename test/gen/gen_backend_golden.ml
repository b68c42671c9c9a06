(* Regenerate the non-default backend golden file:

     dune exec test/gen/gen_backend_golden.exe > test/golden/backend_golden.txt

   Only do this when a change to what the [sa] or [pathfinder] backend
   maps, or to how it searches, is intended; the differential suite
   exists to prove mapper optimisations keep both byte-identical.  The
   cases are listed in diff_gen.ml ([backend_cases]). *)

let () = List.iter print_endline (Iced_testgen.Diff_gen.backend_lines ())
