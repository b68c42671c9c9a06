(* Regenerate the streaming-runtime golden file:

     dune exec test/gen/gen_stream_golden.exe > test/golden/stream_golden.txt

   Only do this when a change to streaming results is intended; the
   differential suite exists to prove refactors of the runner, the
   island recovery and the tenancy scheduler preserve them.  The cases
   are listed in stream_gen.ml. *)

let () = List.iter print_endline (Iced_testgen.Stream_gen.golden_lines ())
