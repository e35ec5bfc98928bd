open Gbtl

(* The generic-library tier (paper Fig. 4b verbatim): n sweeps. *)
let generic_inplace graph ~path =
  let min_plus = Semiring.min_plus Dtype.FP64 in
  let min_accum = Binop.min Dtype.FP64 in
  for _k = 0 to Smatrix.nrows graph - 1 do
    (* path[None] += graph.T min.+ path *)
    Matmul.mxv ~accum:min_accum ~transpose_a:true min_plus ~out:path graph
      path
  done

let generic graph ~src =
  let path = Svector.create Dtype.FP64 (Smatrix.nrows graph) in
  Svector.set path src 0.0;
  generic_inplace graph ~path;
  path

(* Every other tier stops after a sweep that leaves [path] unchanged
   (the relaxation is a pure function of [path], so the result is the
   same as running out the n sweeps), with n sweeps as the cap. *)

(* Tier 3: the DSL statement's own kernel calls, made directly on the
   vectors — the layout-aware min-plus product, then the Min-accumulated
   write. *)
let native_sweeps graph ~src =
  let n = Smatrix.nrows graph in
  let path = Svector.create Dtype.FP64 n in
  Svector.set path src 0.0;
  let min_accum = Some (Binop.min Dtype.FP64) in
  let sweeps = ref 0 and changed = ref true in
  while !changed && !sweeps < n do
    incr sweeps;
    let before = Svector.dup path in
    let t =
      Jit.Kernels.Vector.mxv Dtype.FP64 Jit.Op_spec.min_plus ~transpose:true
        graph path
    in
    Output.write_svector ~mask:Mask.No_vmask ~accum:min_accum ~replace:false
      ~out:path ~t;
    changed := not (Svector.equal before path)
  done;
  (path, !sweeps)

let native graph ~src = fst (native_sweeps graph ~src)

let dsl_sweeps graph ~src =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let n = fst (Container.shape graph) in
  let path = Container.vector_coo ~size:n [ (src, 0.0) ] in
  let sweeps = ref 0 and changed = ref true in
  (* with gb.MinPlusSemiring, gb.Accumulator("Min"):
       for i in range(graph.shape[0]):
           before = path.dup()
           path[None] += graph.T @ path
           if path.isequal(before): break *)
  Context.with_ops
    [ Context.semiring "MinPlus"; Context.accum "Min" ]
    (fun () ->
      while !changed && !sweeps < n do
        incr sweeps;
        let before = Container.dup path in
        Ops.update path (tr !!graph @. !!path);
        changed := not (Container.equal before path)
      done);
  (path, !sweeps)

let dsl graph ~src = fst (dsl_sweeps graph ~src)

let vm_program : Minivm.Ast.block =
  let open Minivm.Ast in
  [ Def
      ( "sssp",
        [ "graph"; "path" ],
        [ With
            ( [ Call (Var "Semiring", [ Const (Minivm.Value.Str "MinPlus") ]);
                Call (Var "Accumulator", [ Const (Minivm.Value.Str "Min") ]) ],
              [ For
                  ( "i",
                    Index (Attr (Var "graph", "shape"), Const (Minivm.Value.Int 0)),
                    [ Assign ("before", Method (Var "path", "dup", []));
                      ExprStmt
                        (Method
                           ( Var "path",
                             "update",
                             [ Const Minivm.Value.Nil;
                               Binary ("@", Attr (Var "graph", "T"), Var "path")
                             ] ));
                      If
                        ( Method (Var "path", "isequal", [ Var "before" ]),
                          [ Break ],
                          [] ) ] ) ] );
          Return (Var "path") ] ) ]

let seed_path n src =
  Ogb.Container.vector_coo ~size:n [ (src, 0.0) ]

let vm_loops graph ~src =
  let n = fst (Ogb.Container.shape graph) in
  let path = seed_path n src in
  match
    Vm_runtime.call_program vm_program "sssp"
      [ Ogb.Vm_bridge.wrap_container graph; Ogb.Vm_bridge.wrap_container path ]
  with
  | Minivm.Value.Foreign (Ogb.Vm_bridge.Cont c) -> c
  | _ -> path

let vm_whole graph ~src =
  let kernel =
    Vm_runtime.whole_algorithm ~name:"sssp" ~dtype:"double" (fun () ->
        Obj.repr (fun (g, s) -> native g ~src:s))
  in
  let f : float Smatrix.t * int -> float Svector.t = Obj.obj kernel in
  let env = Vm_runtime.fresh_env () in
  Minivm.Env.define env "sssp_compiled"
    (Minivm.Value.Builtin
       ( "sssp_compiled",
         fun args ->
           match args with
           | [ g; Minivm.Value.Int s ] ->
             let c = Ogb.Vm_bridge.unwrap_container g in
             let m = Ogb.Container.as_matrix Dtype.FP64 c in
             Ogb.Vm_bridge.wrap_container (Ogb.Container.of_svector (f (m, s)))
           | _ ->
             raise (Minivm.Value.Type_error "sssp_compiled: bad arguments") ));
  Minivm.Env.define env "g" (Ogb.Vm_bridge.wrap_container graph);
  Minivm.Env.define env "s" (Minivm.Value.Int src);
  let open Minivm.Ast in
  Minivm.Interp.exec_block env
    [ Assign ("result", Call (Var "sssp_compiled", [ Var "g"; Var "s" ])) ];
  Ogb.Vm_bridge.unwrap_container (Minivm.Env.lookup env "result")

let distances_of_container = Ogb.Container.vector_entries
