let fresh_env () =
  let env = Minivm.Env.create () in
  Minivm.Builtins.install env;
  Ogb.Vm_bridge.install env;
  env

let call_program program fn args =
  let env = fresh_env () in
  Minivm.Interp.exec_block env program;
  Minivm.Interp.call_value (Minivm.Env.lookup env fn) args

let whole_algorithm ~name ~dtype build =
  let sig_ =
    Jit.Kernel_sig.make ~op:("algo:" ^ name) ~dtypes:[ ("T", dtype) ] ()
  in
  Jit.Dispatch.get sig_ ~build ()
