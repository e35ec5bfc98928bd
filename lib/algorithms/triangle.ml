open Gbtl

let native l =
  let n = Smatrix.nrows l in
  let b = Smatrix.create Dtype.Int64 n n in
  (* B<L> = L ⊕.⊗ Lᵀ *)
  Matmul.mxm ~mask:(Mask.mmask l) ~transpose_b:true
    (Semiring.arithmetic Dtype.Int64) ~out:b l l;
  Apply_reduce.reduce_matrix_scalar (Monoid.plus Dtype.Int64) b

let generic = native

(* Only the pattern matters: one filter pass keeps the strict lower
   triangle, and its values are replaced by ones. *)
let of_undirected g =
  let l = Utilities.lower_triangle ~strict:true g in
  Smatrix.of_csr_unsafe Dtype.Int64 ~nrows:(Smatrix.nrows l)
    ~ncols:(Smatrix.ncols l) ~rowptr:(Smatrix.unsafe_rowptr l)
    ~colidx:(Smatrix.unsafe_colidx l)
    ~values:(Array.make (Smatrix.nvals l) 1)

let dsl l =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let nrows, ncols = Container.shape l in
  let b = Container.matrix_empty ~dtype:(Container.dtype l) nrows ncols in
  (* with gb.ArithmeticSemiring: B[L] = L @ L.T *)
  Context.with_ops
    [ Context.semiring "Arithmetic" ]
    (fun () -> Ops.set ~mask:(Ops.Mask l) b (!!l @. tr !!l));
  (* triangles = gb.reduce(B) *)
  Ops.reduce !!b

(* Nonblocking tier: same Fig. 5 program under the lib/exec engine — the
   plan rewrites sink L.T's transpose into the mxm flag and push the
   sink's mask into the kernel, then the domain pool runs the DAG. *)
let nonblocking l = Exec.with_mode Exec.Nonblocking (fun () -> dsl l)

let vm_program : Minivm.Ast.block =
  let open Minivm.Ast in
  [ Def
      ( "triangle_count",
        [ "L"; "B" ],
        [ With
            ( [ Call (Var "Semiring", [ Const (Minivm.Value.Str "Arithmetic") ]) ],
              [ (* B[L] = L @ L.T *)
                SetIndex
                  ( Var "B",
                    Var "L",
                    Binary ("@", Var "L", Attr (Var "L", "T")) ) ] );
          Return (Call (Var "reduce", [ Var "B" ])) ] ) ]

let vm_loops l =
  let nrows, ncols = Ogb.Container.shape l in
  let b = Ogb.Container.matrix_empty ~dtype:(Ogb.Container.dtype l) nrows ncols in
  match
    Vm_runtime.call_program vm_program "triangle_count"
      [ Ogb.Vm_bridge.wrap_container l; Ogb.Vm_bridge.wrap_container b ]
  with
  | Minivm.Value.Float f -> f
  | Minivm.Value.Int i -> float_of_int i
  | _ -> nan

let vm_whole l =
  let kernel =
    Vm_runtime.whole_algorithm ~name:"triangle_count" ~dtype:"int64_t"
      (fun () -> Obj.repr (fun g -> native g))
  in
  let f : int Smatrix.t -> int = Obj.obj kernel in
  let env = Vm_runtime.fresh_env () in
  Minivm.Env.define env "tc_compiled"
    (Minivm.Value.Builtin
       ( "tc_compiled",
         fun args ->
           match args with
           | [ g ] ->
             let c = Ogb.Vm_bridge.unwrap_container g in
             let c =
               if Ogb.Container.dtype_name c = "int64_t" then c
               else Ogb.Container.cast (Dtype.P Dtype.Int64) c
             in
             Minivm.Value.Int (f (Ogb.Container.as_matrix Dtype.Int64 c))
           | _ -> raise (Minivm.Value.Type_error "tc_compiled: bad arguments")
       ));
  Minivm.Env.define env "l" (Ogb.Vm_bridge.wrap_container l);
  let open Minivm.Ast in
  Minivm.Interp.exec_block env
    [ Assign ("result", Call (Var "tc_compiled", [ Var "l" ])) ];
  match Minivm.Env.lookup env "result" with
  | Minivm.Value.Int i -> float_of_int i
  | Minivm.Value.Float f -> f
  | _ -> nan
