let () =
  Alcotest.run "ogb"
    [ ("internals", Test_internals.suite);
      ("dtype", Test_dtype.suite);
      ("operators", Test_operators.suite);
      ("containers", Test_containers.suite);
      ("output-write", Test_output.suite);
      ("ewise", Test_ewise.suite);
      ("matmul", Test_matmul.suite);
      ("apply-reduce", Test_apply_reduce.suite);
      ("extract-assign", Test_extract_assign.suite);
      ("utilities", Test_utilities.suite);
      ("matrix-market", Test_io.suite);
      ("graphs", Test_graphs.suite);
      ("jit", Test_jit.suite);
      ("jit-codegen", Test_jit_codegen.suite);
      ("minivm", Test_minivm.suite);
      ("dsl", Test_dsl.suite);
      ("vm-bridge", Test_vm_bridge.suite);
      ("expr-random", Test_expr_random.suite);
      ("exec", Test_exec.suite);
      ("plan-cache", Test_plan_cache.suite);
      ("pprint", Test_pprint.suite);
      ("notation (Table I)", Test_notation.suite);
      ("algorithms", Test_algorithms.suite);
      ("workloads", Test_workloads.suite);
      ("formats", Test_formats.suite);
      ("layout", Test_layout.suite);
      ("extensions", Test_extensions.suite);
      ("analysis", Test_analysis.suite);
      ("effects", Test_effects.suite);
      ("fault", Test_fault.suite);
      ("parallel", Test_parallel.suite);
      ("serve", Test_serve.suite);
      ("cost", Test_cost.suite);
      ("oocore", Test_oocore.suite);
    ]
