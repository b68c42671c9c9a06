(* Regenerate the trace golden file:

     dune exec test/gen/gen_trace_golden.exe > test/golden/trace_golden.txt

   Only do this when a change to what the toolchain traces (spans,
   instants, counters, their nesting or their args) is intended; the
   test exists to prove instrumentation refactors keep every trace
   identical.  The scenarios are listed in trace_gen.ml. *)

let () = List.iter print_endline (Iced_testgen.Trace_gen.golden_lines ())
