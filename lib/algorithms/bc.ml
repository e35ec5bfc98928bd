open Gbtl

let f64 = Dtype.FP64

(* One source's Brandes pass as the DSL program's own kernel calls (see
   [run] below), made directly on the vectors: forward masked vxm
   wavefronts accumulate shortest-path counts into nsp, the backward
   mxv / eWiseMult sweep flows dependencies into bcu.  Returns bcu, a
   dense vector of 1 + delta_src(v) over the reached set and 1
   elsewhere.

   The forward sweep starts from the unit vector e_src, so the first
   wave is e_src (+.x) A under <~nsp, replace>: the row of A at src
   without a self-loop at the source (which is never on a shortest
   path).  Each wave is a fresh kernel result that nothing writes to
   afterwards, so it is kept as it is; the DSL program keeps a dup. *)
let source_bcu adj ~src =
  let n = Smatrix.nrows adj in
  let plus = Some (Binop.plus f64) in
  let arithmetic = Jit.Op_spec.arithmetic in
  let nsp = Svector.create f64 n in
  Svector.set nsp src 1.0;
  let frontier = Svector.create f64 n in
  Svector.set frontier src 1.0;
  let rec forward frontier waves =
    (* frontier<~nsp, replace> = frontier (+.x) A *)
    let frontier =
      Jit.Kernels.Vector.vxm f64 arithmetic
        ~mask:(Mask.vmask ~complemented:true nsp)
        ~transpose:false frontier adj
    in
    if Svector.nvals frontier = 0 then Array.of_list (List.rev waves)
    else begin
      (* nsp += frontier *)
      Output.write_svector ~mask:Mask.No_vmask ~accum:plus ~replace:false
        ~out:nsp ~t:frontier;
      forward frontier (frontier :: waves)
    end
  in
  let waves = forward frontier [] in
  let depth = Array.length waves in
  let bcu = Svector.of_dense f64 (Array.make n 1.0) in
  if depth > 0 then begin
    let nspinv =
      Jit.Kernels.Vector.apply f64
        (Jit.Op_spec.Named "MultiplicativeInverse")
        nsp
    in
    for i = depth - 1 downto 1 do
      (* w<S_i, replace> = bcu (x) 1/nsp *)
      let w = Svector.create f64 n in
      Output.write_svector ~mask:(Mask.vmask waves.(i)) ~accum:None
        ~replace:true ~out:w
        ~t:(Jit.Kernels.Vector.ewise `Mult f64 ~op:"Times" bcu nspinv);
      (* w = A (+.x) w : dependencies flow back along edges *)
      let w =
        Jit.Kernels.Vector.mxv f64 arithmetic ~transpose:false adj w
      in
      (* bcu<S_{i-1}> += w (x) nsp *)
      Output.write_svector ~mask:(Mask.vmask waves.(i - 1)) ~accum:plus
        ~replace:false ~out:bcu
        ~t:(Jit.Kernels.Vector.ewise `Mult f64 ~op:"Times" w nsp)
    done
  end;
  bcu

(* centrality[v] = (centrality[v] + bcu[v]) - 1 over the reached set,
   excluding the source *)
let accumulate centrality ~src bcu =
  Svector.iter
    (fun v x ->
      if v <> src && x <> 1.0 then
        Svector.set centrality v
          ((match Svector.get centrality v with Some c -> c | None -> 0.0)
          +. x -. 1.0))
    bcu

let native ?sources graph =
  let n = Smatrix.nrows graph in
  let adj = Smatrix.cast ~into:f64 graph in
  let centrality = Svector.of_dense f64 (Array.make n 0.0) in
  let sources =
    match sources with Some l -> l | None -> List.init n Fun.id
  in
  List.iter
    (fun src -> accumulate centrality ~src (source_bcu adj ~src))
    sources;
  centrality

(* Tier 3 of the single-source workload. *)
let single_source graph ~src = native ~sources:[ src ] graph

(* Decode shared by the DSL and VM tiers (identical to the native
   post-pass above, over containers). *)
let centrality_of_bcu ~n ~src bcu =
  let centrality =
    Ogb.Container.vector_dense ~dtype:(Dtype.P f64)
      (List.init n (fun _ -> 0.0))
  in
  List.iter
    (fun (v, x) ->
      if v <> src && x <> 1.0 then
        Ogb.Container.set_vector_element centrality v (x -. 1.0))
    (Ogb.Container.vector_entries bcu);
  centrality

(* The DSL body shared by the blocking and nonblocking tiers. *)
let run graph ~src =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let n = fst (Container.shape graph) in
  let adj = Container.cast (Dtype.P f64) graph in
  let nsp =
    Container.vector_coo ~dtype:(Dtype.P f64) ~size:n [ (src, 1.0) ]
  in
  let frontier =
    Container.vector_coo ~dtype:(Dtype.P f64) ~size:n [ (src, 1.0) ]
  in
  let waves = ref [] in
  Context.with_ops
    [ Context.semiring "Arithmetic" ]
    (fun () ->
      let continue_ = ref true in
      while !continue_ do
        Context.with_ops
          [ Context.replace ]
          (fun () -> Ops.set ~mask:(~~nsp) frontier (!!frontier @. !!adj));
        if Container.nvals frontier = 0 then continue_ := false
        else begin
          waves := Container.dup frontier :: !waves;
          Context.with_ops
            [ Context.accum "Plus" ]
            (fun () -> Ops.update nsp !!frontier)
        end
      done);
  let waves = Array.of_list (List.rev !waves) in
  let depth = Array.length waves in
  let bcu =
    Ogb.Container.vector_dense ~dtype:(Dtype.P f64)
      (List.init n (fun _ -> 1.0))
  in
  if depth > 0 then begin
    let nspinv = Container.vector_empty ~dtype:(Dtype.P f64) n in
    Context.with_ops
      [ Context.unary "MultiplicativeInverse" ]
      (fun () -> Ops.set nspinv (Ops.apply !!nsp));
    let w = Container.vector_empty ~dtype:(Dtype.P f64) n in
    for i = depth - 1 downto 1 do
      (* w<S_i, replace> = bcu (x) 1/nsp *)
      Context.with_ops
        [ Context.binary "Times"; Context.replace ]
        (fun () -> Ops.set ~mask:(Ops.Mask waves.(i)) w (!!bcu *: !!nspinv));
      (* w = A (+.x) w : dependencies flow back along edges *)
      Context.with_ops
        [ Context.semiring "Arithmetic" ]
        (fun () -> Ops.set w (!!adj @. !!w));
      (* bcu<S_{i-1}> += w (x) nsp *)
      Context.with_ops
        [ Context.binary "Times"; Context.accum "Plus" ]
        (fun () -> Ops.update ~mask:(Ops.Mask waves.(i - 1)) bcu (!!w *: !!nsp))
    done
  end;
  centrality_of_bcu ~n ~src bcu

(* Tier "PyGB": deferred expressions + context stack. *)
let dsl graph ~src = run graph ~src

(* The same body under the nonblocking engine: forward vxm wavefronts
   and backward mxv/eWiseMult dependency flow all lower to plans. *)
let nonblocking graph ~src =
  Exec.with_mode Exec.Nonblocking (fun () -> run graph ~src)

(* Tier 1: the MiniVM script.  The per-depth wavefronts are not stored
   in interpreter lists; instead the forward sweep stamps a levels
   vector (the BFS idiom) and the backward sweep recovers wave i with
   [select("eq", i, levels)]. *)
let vm_program : Minivm.Ast.block =
  let open Minivm.Ast in
  let str s = Const (Minivm.Value.Str s) in
  let int i = Const (Minivm.Value.Int i) in
  [ Def
      ( "bc",
        [ "graph"; "nsp"; "frontier"; "levels"; "bcu"; "nspinv"; "w"; "t";
          "wave"; "wavep" ],
        [ Assign ("depth", int 0);
          With
            ( [ Call (Var "Semiring", [ str "Arithmetic" ]) ],
              [ While
                  ( Binary (">", Attr (Var "frontier", "nvals"), int 0),
                    [ With
                        ( [ Var "Replace" ],
                          [ SetIndex
                              ( Var "frontier",
                                Unary ("~", Var "nsp"),
                                Binary ("@", Var "frontier", Var "graph") )
                          ] );
                      If
                        ( Binary (">", Attr (Var "frontier", "nvals"), int 0),
                          [ Assign ("depth", Binary ("+", Var "depth", int 1));
                            SetIndex
                              ( Index (Var "levels", Var "frontier"),
                                Var "AllIndices",
                                Var "depth" );
                            With
                              ( [ Call (Var "Accumulator", [ str "Plus" ]) ],
                                [ ExprStmt
                                    (Method
                                       ( Var "nsp",
                                         "update",
                                         [ Const Minivm.Value.Nil;
                                           Var "frontier" ] )) ] ) ],
                          [] ) ] ) ] );
          If
            ( Binary (">", Var "depth", int 0),
              [ With
                  ( [ Call (Var "UnaryOp", [ str "MultiplicativeInverse" ]) ],
                    [ SetIndex
                        ( Var "nspinv",
                          Const Minivm.Value.Nil,
                          Call (Var "apply", [ Var "nsp" ]) ) ] );
                Assign ("lvl", Var "depth");
                While
                  ( Binary (">", Var "lvl", int 1),
                    [ SetIndex
                        ( Var "wave",
                          Const Minivm.Value.Nil,
                          Call (Var "select", [ str "eq"; Var "lvl"; Var "levels" ]) );
                      With
                        ( [ Call (Var "BinaryOp", [ str "Times" ]); Var "Replace" ],
                          [ SetIndex
                              ( Var "w",
                                Var "wave",
                                Binary ("*", Var "bcu", Var "nspinv") ) ] );
                      With
                        ( [ Call (Var "Semiring", [ str "Arithmetic" ]) ],
                          [ SetIndex
                              ( Var "w",
                                Const Minivm.Value.Nil,
                                Binary ("@", Var "graph", Var "w") ) ] );
                      SetIndex
                        ( Var "wavep",
                          Const Minivm.Value.Nil,
                          Call
                            ( Var "select",
                              [ str "eq";
                                Binary ("-", Var "lvl", int 1);
                                Var "levels" ] ) );
                      With
                        ( [ Call (Var "BinaryOp", [ str "Times" ]) ],
                          [ SetIndex
                              ( Var "t",
                                Const Minivm.Value.Nil,
                                Binary ("*", Var "w", Var "nsp") ) ] );
                      With
                        ( [ Call (Var "Accumulator", [ str "Plus" ]) ],
                          [ ExprStmt
                              (Method
                                 ( Var "bcu",
                                   "update",
                                   [ Var "wavep"; Var "t" ] )) ] );
                      Assign ("lvl", Binary ("-", Var "lvl", int 1)) ] ) ],
              [] );
          Return (Var "bcu") ] ) ]

let vm_loops graph ~src =
  let n = fst (Ogb.Container.shape graph) in
  let fp = Dtype.P f64 in
  let adj = Ogb.Container.cast fp graph in
  let nsp = Ogb.Container.vector_coo ~dtype:fp ~size:n [ (src, 1.0) ] in
  let frontier = Ogb.Container.vector_coo ~dtype:fp ~size:n [ (src, 1.0) ] in
  let levels = Ogb.Container.vector_empty ~dtype:(Dtype.P Dtype.Int64) n in
  let bcu =
    Ogb.Container.vector_dense ~dtype:fp (List.init n (fun _ -> 1.0))
  in
  let vec () = Ogb.Container.vector_empty ~dtype:fp n in
  let wave = Ogb.Container.vector_empty ~dtype:(Dtype.P Dtype.Int64) n in
  let wavep = Ogb.Container.vector_empty ~dtype:(Dtype.P Dtype.Int64) n in
  let result =
    Vm_runtime.call_program vm_program "bc"
      [ Ogb.Vm_bridge.wrap_container adj;
        Ogb.Vm_bridge.wrap_container nsp;
        Ogb.Vm_bridge.wrap_container frontier;
        Ogb.Vm_bridge.wrap_container levels;
        Ogb.Vm_bridge.wrap_container bcu;
        Ogb.Vm_bridge.wrap_container (vec ());
        Ogb.Vm_bridge.wrap_container (vec ());
        Ogb.Vm_bridge.wrap_container (vec ());
        Ogb.Vm_bridge.wrap_container wave;
        Ogb.Vm_bridge.wrap_container wavep ]
  in
  let bcu =
    match result with
    | Minivm.Value.Foreign (Ogb.Vm_bridge.Cont c) -> c
    | _ -> bcu
  in
  centrality_of_bcu ~n ~src bcu
