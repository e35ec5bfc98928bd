open Gbtl

(* [m]'s pattern with every stored value [v], over [m]'s own rowptr
   and colidx. *)
let pattern dt v m =
  Smatrix.of_csr_unsafe dt ~nrows:(Smatrix.nrows m) ~ncols:(Smatrix.ncols m)
    ~rowptr:(Smatrix.unsafe_rowptr m) ~colidx:(Smatrix.unsafe_colidx m)
    ~values:(Array.make (Smatrix.nvals m) v)

let native ~k graph =
  if k < 3 then invalid_arg "Ktruss.native: k must be >= 3";
  let n = Smatrix.nrows graph in
  let enough =
    Select.accepts Dtype.Int64 (Select.Value_ge (float_of_int (k - 2)))
  in
  let arithmetic = Semiring.arithmetic Dtype.Int64 in
  let rec prune e =
    (* support<E> = E ⊕.⊗ Eᵀ : common-neighbour count per edge *)
    let support = Smatrix.create Dtype.Int64 n n in
    Matmul.mxm ~mask:(Mask.mmask e) ~transpose_b:true arithmetic ~out:support
      e e;
    (* keep the edges with enough support, re-oned *)
    let keep = Smatrix.filter support ~f:enough in
    if Smatrix.nvals keep = Smatrix.nvals e then e
    else prune (pattern Dtype.Int64 1 keep)
  in
  (* the first E is a copy, so the result never shares [graph]'s arrays *)
  pattern Dtype.Bool true (prune (pattern Dtype.Int64 1 (Smatrix.dup graph)))

let edge_count adj = Smatrix.nvals adj / 2

let dsl ~k graph =
  if k < 3 then invalid_arg "Ktruss.dsl: k must be >= 3";
  let open Ogb in
  let open Ogb.Ops.Infix in
  let nrows, ncols = Container.shape graph in
  let threshold = float_of_int (k - 2) in
  let e = ref (Container.cast (Dtype.P Dtype.Int64) graph) in
  let continue_ = ref true in
  Context.with_ops
    [ Context.semiring "Arithmetic" ]
    (fun () ->
      while !continue_ do
        (* support[E] = E @ E.T *)
        let support = Container.matrix_empty ~dtype:(Dtype.P Dtype.Int64) nrows ncols in
        Ops.set ~mask:(Ops.Mask !e) support (!!(!e) @. tr !!(!e));
        (* E' = ones over select(support >= k-2) *)
        let keep = Container.matrix_empty ~dtype:(Dtype.P Dtype.Int64) nrows ncols in
        Ops.set keep (Ops.select (Gbtl.Select.Value_ge threshold) !!support);
        if Container.nvals keep = Container.nvals !e then continue_ := false
        else begin
          let next = Container.matrix_empty ~dtype:(Dtype.P Dtype.Int64) nrows ncols in
          Context.with_ops
            [ Context.unary_bound ~op:"First" ~side:`First 1.0 ]
            (fun () -> Ops.set next (Ops.apply !!keep));
          e := next
        end
      done);
  !e

(* The same computation under the nonblocking engine: the masked mxm,
   the select and the re-oneing apply all lower to plan nodes. *)
let nonblocking ~k graph = Exec.with_mode Exec.Nonblocking (fun () -> dsl ~k graph)

(* Tier 1: the filtering loop as a MiniVM script.  The edge matrix is
   pruned in place, so the masked support recomputation runs under
   Replace (stale support entries outside the shrinking mask must not
   survive).  Pruning only removes edges, so an unchanged edge count
   means an unchanged edge set: the loop stops there, at the same
   fixpoint as the loops above, and [rounds] is only a cap. *)
let vm_program : Minivm.Ast.block =
  let open Minivm.Ast in
  let str s = Const (Minivm.Value.Str s) in
  [ Def
      ( "ktruss",
        [ "e"; "support"; "thresh"; "rounds" ],
        [ With
            ( [ Call (Var "Semiring", [ str "Arithmetic" ]) ],
              [ For
                  ( "i",
                    Var "rounds",
                    [ Assign ("before", Attr (Var "e", "nvals"));
                      With
                        ( [ Var "Replace" ],
                          [ SetIndex
                              ( Var "support",
                                Var "e",
                                Binary ("@", Var "e", Attr (Var "e", "T")) )
                          ] );
                      With
                        ( [ Call (Var "UnaryOp", [ str "Second"; Const (Minivm.Value.Float 1.0) ]) ],
                          [ SetIndex
                              ( Var "e",
                                Const Minivm.Value.Nil,
                                Call
                                  ( Var "apply",
                                    [ Call
                                        ( Var "select",
                                          [ str "ge"; Var "thresh"; Var "support" ] )
                                    ] ) ) ] );
                      If
                        ( Binary ("==", Attr (Var "e", "nvals"), Var "before"),
                          [ Break ],
                          [] ) ] ) ] );
          Return (Var "e") ] ) ]

let default_rounds = 32

let vm_loops ?(rounds = default_rounds) ~k graph =
  if k < 3 then invalid_arg "Ktruss.vm_loops: k must be >= 3";
  let nrows, ncols = Ogb.Container.shape graph in
  let e = Ogb.Container.cast (Dtype.P Dtype.Int64) graph in
  let support =
    Ogb.Container.matrix_empty ~dtype:(Dtype.P Dtype.Int64) nrows ncols
  in
  match
    Vm_runtime.call_program vm_program "ktruss"
      [ Ogb.Vm_bridge.wrap_container e;
        Ogb.Vm_bridge.wrap_container support;
        Minivm.Value.Float (float_of_int (k - 2));
        Minivm.Value.Int rounds ]
  with
  | Minivm.Value.Foreign (Ogb.Vm_bridge.Cont c) -> c
  | _ -> e
