(* Regenerate the post-mapping passes' golden file:

     dune exec test/gen/gen_post_golden.exe > test/golden/post_golden.txt

   Only do this when a change to what level assignment, validation,
   the metrics or the simulator report is intended; the differential
   suite exists to prove optimisations of those passes keep every line
   identical.  The cases are listed in post_gen.ml. *)

let () = List.iter print_endline (Iced_testgen.Post_gen.golden_lines ())
