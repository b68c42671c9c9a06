(* Aggregated alcotest entry point for the whole repository. *)

let () =
  Alcotest.run "iced"
    [
      ("util", Test_util.suite);
      ("dfg", Test_dfg.suite);
      ("arch", Test_arch.suite);
      ("mrrg", Test_mrrg.suite);
      ("sat", Test_sat.suite);
      ("mapper", Test_mapper.suite);
      ("backends", Test_backends.suite);
      ("differential", Test_differential.suite);
      ("power", Test_power.suite);
      ("kernels", Test_kernels.suite);
      ("sim", Test_sim.suite);
      ("stream", Test_stream.suite);
      ("recovery", Test_recovery.suite);
      ("fault", Test_fault.suite);
      ("design", Test_design.suite);
      ("explore", Test_explore.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("tenancy", Test_tenancy.suite);
      ("wire", Test_wire.suite);
      ("apps", Test_apps.suite);
    ]
