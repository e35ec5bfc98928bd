open Gbtl

let semiring_ops (sr : Op_spec.semiring) =
  [ ("add", sr.Op_spec.add_op);
    ("identity", sr.Op_spec.add_identity);
    ("mul", sr.Op_spec.mul_op) ]

let entries_of_pair (type a) ((idx, vals) : int array * a array) =
  Entries.of_arrays_unsafe idx vals ~len:(Array.length idx)

(* -- vector family: array ABI with native codegen -- *)

type 'a matvec_arg =
  int array * int array * 'a array * int array * 'a array * int * int * int
  * bool

let matvec_arg (type a) (m : a Smatrix.t) (u : a Svector.t) flag : a matvec_arg
    =
  ( Smatrix.unsafe_rowptr m,
    Smatrix.unsafe_colidx m,
    Smatrix.unsafe_values m,
    Svector.unsafe_indices u,
    Svector.unsafe_values u,
    Svector.nvals u,
    Smatrix.nrows m,
    Smatrix.ncols m,
    flag )

let mxv (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ?(direction = `Auto) ~transpose m (u : a Svector.t) =
  (* Direction choice for the transposed product: a filled-in frontier
     favors pulling over the CSC side (one gather per output position);
     a sparse frontier favors the CSR scatter.  Both accumulate each
     output's contributions in ascending source-index order, so the
     results are bit-identical — which is what lets the plan optimizer
     override the fill heuristic through [direction] without changing
     results.  The override is only meaningful for the transposed
     product with the format layer on; elsewhere it is ignored. *)
  let use_pull =
    transpose
    && Format_stats.enabled ()
    &&
    match direction with
    | `Pull -> true
    | `Push -> false
    | `Auto -> Svector.size u >= 32 && 4 * Svector.nvals u >= Svector.size u
  in
  let sig_ =
    Kernel_sig.make ~op:"mxv"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:(semiring_ops sr)
      ~formats:(if use_pull then [ ("a", "csc") ] else [])
      ~flags:(if transpose then [ "transpose_a" ] else [])
      ()
  in
  let build () =
    let s = Op_spec.instantiate_semiring dt sr in
    let add = Semiring.add s and mul = Semiring.mul s in
    let dummy = Semiring.zero s in
    Obj.repr (fun (arg : Obj.t) ->
        let arp, aci, avs, uidx, uvls, un, nrows, ncols, tr =
          (Obj.obj arg : a matvec_arg)
        in
        Obj.repr
          (Array_kernels.mxv ~add ~mul ~dummy ~nrows ~ncols ~transpose:tr
             (arp, aci, avs) (uidx, uvls, un)))
  in
  let native_source ~key =
    if use_pull then Codegen.mxv_pull_source ~dtype:(Dtype.name dt) ~sr ~key
    else Codegen.mxv_source ~dtype:(Dtype.name dt) ~sr ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  if transpose && Format_stats.enabled () then
    if use_pull then Format_stats.record_pull ()
    else Format_stats.record_push ();
  (* ABI flag for mxv: true selects the scatter (transposed) loop.  The
     pull dispatch hands the gather loop the CSC arrays with swapped
     dimensions, which computes the transposed product directly. *)
  let arg : a matvec_arg =
    if use_pull then
      ( Smatrix.unsafe_colptr m,
        Smatrix.unsafe_rowidx m,
        Smatrix.unsafe_cvals m,
        Svector.unsafe_indices u,
        Svector.unsafe_values u,
        Svector.nvals u,
        Smatrix.ncols m,
        Smatrix.nrows m,
        false )
    else matvec_arg m u transpose
  in
  entries_of_pair (Obj.obj (kernel (Obj.repr arg)) : int array * a array)

(* "⊕ can no longer change this accumulator" — the early-exit predicate
   of the masked pull.  Only saturating monoids have one; constant-false
   keeps the gather exhaustive (and still correct) for the rest.  Must
   stay in sync with Codegen.saturating_expr_cls. *)
let saturating_check (type a) (dt : a Dtype.t) (sr : Op_spec.semiring) :
    a -> bool =
  match sr.Op_spec.add_op with
  | "LogicalOr" -> Dtype.to_bool dt
  | "Plus" | "Max" -> (
    match dt with Dtype.Bool -> fun b -> b | _ -> fun _ -> false)
  | _ -> fun _ -> false

let mxv_pull_masked (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ~(visited : bool array) (m : a Smatrix.t)
    ((uvls, uocc) : a array * bool array) =
  (* The BFS bottom-up step: gather only unvisited output positions from
     the CSC side, stopping each column early once the saturating ⊕
     cannot change the accumulator.  The mask is the visited bitmap
     itself (complemented) and the exit predicate comes from the
     semiring, so the whole ABI is concrete arrays and the kernel
     compiles natively. *)
  let sig_ =
    Kernel_sig.make ~op:"mxv"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:(semiring_ops sr)
      ~formats:[ ("a", "csc"); ("u", "dense") ]
      ~flags:[ "masked_pull"; "transpose_a" ]
      ()
  in
  let build () =
    let s = Op_spec.instantiate_semiring dt sr in
    let add = Semiring.add s and mul = Semiring.mul s in
    let dummy = Semiring.zero s in
    let stop = saturating_check dt sr in
    Obj.repr (fun (arg : Obj.t) ->
        let acp, ari, avs, uvls, uocc, visited, ncols =
          (Obj.obj arg
            : int array * int array * a array * a array * bool array
              * bool array * int)
        in
        Obj.repr
          (Array_kernels.mxv_pull_masked ~add ~mul ~dummy ~stop ~ncols ~visited
             (acp, ari, avs) (uvls, uocc)))
  in
  let native_source ~key =
    Codegen.mxv_pull_masked_source ~dtype:(Dtype.name dt) ~sr ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg =
    ( Smatrix.unsafe_colptr m,
      Smatrix.unsafe_rowidx m,
      Smatrix.unsafe_cvals m,
      uvls,
      uocc,
      visited,
      Smatrix.ncols m )
  in
  entries_of_pair (Obj.obj (kernel (Obj.repr arg)) : int array * a array)

let vxm (type a) (dt : a Dtype.t) (sr : Op_spec.semiring) ~transpose
    (u : a Svector.t) (m : a Smatrix.t) =
  let sig_ =
    Kernel_sig.make ~op:"vxm"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:(semiring_ops sr)
      ~flags:(if transpose then [ "transpose_a" ] else [])
      ()
  in
  let build () =
    let s = Op_spec.instantiate_semiring dt sr in
    let add = Semiring.add s and mul = Semiring.mul s in
    let dummy = Semiring.zero s in
    Obj.repr (fun (arg : Obj.t) ->
        let arp, aci, avs, uidx, uvls, un, nrows, ncols, flag =
          (Obj.obj arg : a matvec_arg)
        in
        (* ABI flag false = gather loop; Array_kernels.vxm gathers when
           its [transpose] is true. *)
        Obj.repr
          (Array_kernels.vxm ~add ~mul ~dummy ~nrows ~ncols
             ~transpose:(not flag) (uidx, uvls, un) (arp, aci, avs)))
  in
  let native_source ~key =
    Codegen.vxm_source ~dtype:(Dtype.name dt) ~sr ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  (* Semantic transpose means the gather loop, which the shared kernel
     body runs when the ABI flag is false. *)
  let result = kernel (Obj.repr (matvec_arg m u (not transpose))) in
  entries_of_pair (Obj.obj result : int array * a array)

let vxm_dense (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ((uvls, uocc) : a array * bool array) (m : a Smatrix.t) :
    a array * bool array =
  let sig_ =
    Kernel_sig.make ~op:"vxm"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:(semiring_ops sr)
      ~formats:[ ("u", "dense"); ("w", "dense") ]
      ()
  in
  let build () =
    let s = Op_spec.instantiate_semiring dt sr in
    let add = Semiring.add s and mul = Semiring.mul s in
    let dummy = Semiring.zero s in
    Obj.repr (fun (arg : Obj.t) ->
        let uvls, uocc, arp, aci, avs, nrows, ncols =
          (Obj.obj arg
            : a array * bool array * int array * int array * a array * int
              * int)
        in
        Obj.repr
          (Array_kernels.vxm_dense ~add ~mul ~dummy ~nrows ~ncols (uvls, uocc)
             (arp, aci, avs)))
  in
  let native_source ~key =
    Codegen.vxm_dense_source ~dtype:(Dtype.name dt) ~sr ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg =
    ( uvls,
      uocc,
      Smatrix.unsafe_rowptr m,
      Smatrix.unsafe_colidx m,
      Smatrix.unsafe_values m,
      Smatrix.nrows m,
      Smatrix.ncols m )
  in
  (Obj.obj (kernel (Obj.repr arg)) : a array * bool array)

let vxm_pull_dense (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ((uvls, uocc) : a array * bool array) (m : a Smatrix.t) :
    a array * bool array =
  (* Pull form of [vxm_dense] over the cached CSC side: one gather (and
     one local accumulator) per output position instead of a
     read-modify-write scatter — the fast path for an iterated product
     such as PageRank, where building the CSC side once is amortized
     over every iteration.  Rows ascend within each column, so the fold
     order (and the result) is identical to the scatter. *)
  let sig_ =
    Kernel_sig.make ~op:"vxm"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:(semiring_ops sr)
      ~formats:[ ("a", "csc"); ("u", "dense"); ("w", "dense") ]
      ()
  in
  let build () =
    let s = Op_spec.instantiate_semiring dt sr in
    let add = Semiring.add s and mul = Semiring.mul s in
    let dummy = Semiring.zero s in
    Obj.repr (fun (arg : Obj.t) ->
        let uvls, uocc, acp, ari, avs, ncols =
          (Obj.obj arg
            : a array * bool array * int array * int array * a array * int)
        in
        Obj.repr
          (Array_kernels.vxm_pull_dense ~add ~mul ~dummy ~ncols (acp, ari, avs)
             (uvls, uocc)))
  in
  let native_source ~key =
    Codegen.vxm_pull_dense_source ~dtype:(Dtype.name dt) ~sr ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg =
    ( uvls,
      uocc,
      Smatrix.unsafe_colptr m,
      Smatrix.unsafe_rowidx m,
      Smatrix.unsafe_cvals m,
      Smatrix.ncols m )
  in
  (Obj.obj (kernel (Obj.repr arg)) : a array * bool array)

let vxm_tile_acc (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ~(tile_tag : string) ~(r0 : int) ~(c0 : int) (tile : a Smatrix.t)
    ((uvls, uocc) : a array * bool array)
    ((acc, occ) : a array * bool array) : unit =
  (* Tile continuation of [vxm_pull_dense]: the tile shape rides in the
     signature's formats field, so each tiling compiles (and caches) its
     own module — the out-of-core analogue of the CSR/CSC format key.
     Exactness of the streamed product rests on folding each output
     column in ascending global row order across tiles, which a per-tile
     continuation preserves. *)
  let sig_ =
    Kernel_sig.make ~op:"vxm_tile"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:(semiring_ops sr)
      ~formats:
        [ ("a", "csc"); ("u", "dense"); ("w", "dense"); ("tile", tile_tag) ]
      ()
  in
  let build () =
    let s = Op_spec.instantiate_semiring dt sr in
    let add = Semiring.add s and mul = Semiring.mul s in
    Obj.repr (fun (arg : Obj.t) ->
        let uvls, uocc, r0, acp, ari, avs, c0, tncols, acc, occ =
          (Obj.obj arg
            : a array * bool array * int * int array * int array * a array
              * int * int * a array * bool array)
        in
        Array_kernels.vxm_tile_acc ~add ~mul ~r0 ~c0 ~tncols (acp, ari, avs)
          (uvls, uocc) (acc, occ);
        Obj.repr ())
  in
  let native_source ~key =
    Codegen.vxm_tile_acc_source ~dtype:(Dtype.name dt) ~sr ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg =
    ( uvls,
      uocc,
      r0,
      Smatrix.unsafe_colptr tile,
      Smatrix.unsafe_rowidx tile,
      Smatrix.unsafe_cvals tile,
      c0,
      Smatrix.ncols tile,
      acc,
      occ )
  in
  ignore (kernel (Obj.repr arg))

type 'a ewise_arg = int array * 'a array * int * int array * 'a array * int

type 'a dense_pair_arg = 'a array * bool array * 'a array * bool array

let ewise_v_dense (type a) kind (dt : a Dtype.t) ~op
    ((avls, aocc) : a array * bool array) ((bvls, bocc) : a array * bool array)
    : a array * bool array =
  let kind_name =
    match kind with `Add -> "ewise_add_v" | `Mult -> "ewise_mult_v"
  in
  let sig_ =
    Kernel_sig.make ~op:kind_name
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op) ]
      ~formats:[ ("u", "dense"); ("v", "dense") ]
      ()
  in
  let build () =
    let f = (Binop.of_name op dt).Binop.f in
    let dummy = Dtype.zero dt in
    Obj.repr (fun (arg : Obj.t) ->
        let avls, aocc, bvls, bocc = (Obj.obj arg : a dense_pair_arg) in
        let result =
          match kind with
          | `Add ->
            Array_kernels.ewise_add_dense ~op:f ~dummy (avls, aocc)
              (bvls, bocc)
          | `Mult ->
            Array_kernels.ewise_mult_dense ~op:f ~dummy (avls, aocc)
              (bvls, bocc)
        in
        Obj.repr result)
  in
  let native_source ~key =
    Codegen.ewise_dense_source ~kind ~dtype:(Dtype.name dt) ~op ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg : a dense_pair_arg = (avls, aocc, bvls, bocc) in
  (Obj.obj (kernel (Obj.repr arg)) : a array * bool array)

let apply_v_dense (type a) (dt : a Dtype.t) (f : Op_spec.unary)
    ((avls, aocc) : a array * bool array) : a array * bool array =
  let sig_ =
    Kernel_sig.make ~op:"apply_v"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("f", Op_spec.unary_name f) ]
      ~formats:[ ("u", "dense") ]
      ()
  in
  let build () =
    let g = (Op_spec.instantiate_unary dt f).Unaryop.f in
    let dummy = Dtype.zero dt in
    Obj.repr (fun (arg : Obj.t) ->
        let avls, aocc = (Obj.obj arg : a array * bool array) in
        Obj.repr (Array_kernels.apply_dense ~f:g ~dummy (avls, aocc)))
  in
  let native_source ~key =
    Codegen.apply_dense_source ~dtype:(Dtype.name dt) ~f ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  (Obj.obj (kernel (Obj.repr (avls, aocc))) : a array * bool array)

let reduce_v_scalar_dense (type a) (dt : a Dtype.t) ~op ~identity
    ((avls, aocc) : a array * bool array) : a =
  let sig_ =
    Kernel_sig.make ~op:"reduce_v_scalar"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op); ("identity", identity) ]
      ~formats:[ ("u", "dense") ]
      ()
  in
  let build () =
    let m = Op_spec.instantiate_monoid dt ~op ~identity in
    let f = m.Monoid.op.Binop.f and id = m.Monoid.identity in
    Obj.repr (fun (arg : Obj.t) ->
        let avls, aocc = (Obj.obj arg : a array * bool array) in
        Obj.repr (Array_kernels.reduce_dense ~op:f ~identity:id (avls, aocc)))
  in
  let native_source ~key =
    Codegen.reduce_dense_source ~dtype:(Dtype.name dt) ~op ~identity ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  (Obj.obj (kernel (Obj.repr (avls, aocc))) : a)

let ewise_v (type a) kind (dt : a Dtype.t) ~op (u : a Svector.t)
    (v : a Svector.t) =
  let kind_name = match kind with `Add -> "ewise_add_v" | `Mult -> "ewise_mult_v" in
  let sig_ =
    Kernel_sig.make ~op:kind_name
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op) ]
      ()
  in
  let build () =
    let f = (Binop.of_name op dt).Binop.f in
    Obj.repr (fun (arg : Obj.t) ->
        let aidx, avls, an, bidx, bvls, bn = (Obj.obj arg : a ewise_arg) in
        let result =
          match kind with
          | `Add -> Array_kernels.ewise_add_v ~op:f (aidx, avls, an) (bidx, bvls, bn)
          | `Mult ->
            Array_kernels.ewise_mult_v ~op:f (aidx, avls, an) (bidx, bvls, bn)
        in
        Obj.repr result)
  in
  let native_source ~key =
    Codegen.ewise_source ~kind ~dtype:(Dtype.name dt) ~op ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg : a ewise_arg =
    ( Svector.unsafe_indices u,
      Svector.unsafe_values u,
      Svector.nvals u,
      Svector.unsafe_indices v,
      Svector.unsafe_values v,
      Svector.nvals v )
  in
  entries_of_pair (Obj.obj (kernel (Obj.repr arg)) : int array * a array)

let ewise_fused_v (type a) kind (dt : a Dtype.t) ~op ~chain (u : a Svector.t)
    (v : a Svector.t) =
  let kind_name =
    match kind with
    | `Add -> "ewise_add_fused_v"
    | `Mult -> "ewise_mult_fused_v"
  in
  let chain_name =
    String.concat ";" (List.map Op_spec.unary_name chain)
  in
  let sig_ =
    Kernel_sig.make ~op:kind_name
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op); ("chain", chain_name) ]
      ()
  in
  let build () =
    let raw = (Binop.of_name op dt).Binop.f in
    let fs =
      List.map (fun u -> (Op_spec.instantiate_unary dt u).Unaryop.f) chain
    in
    let g v = List.fold_left (fun acc f -> f acc) v fs in
    Obj.repr (fun (arg : Obj.t) ->
        let aidx, avls, an, bidx, bvls, bn = (Obj.obj arg : a ewise_arg) in
        let ridx, rvls =
          match kind with
          | `Add ->
            Array_kernels.ewise_add_v ~op:raw (aidx, avls, an) (bidx, bvls, bn)
          | `Mult ->
            Array_kernels.ewise_mult_v ~op:raw (aidx, avls, an)
              (bidx, bvls, bn)
        in
        (* the chain runs over every output value, passthroughs included *)
        for k = 0 to Array.length rvls - 1 do
          rvls.(k) <- g rvls.(k)
        done;
        Obj.repr (ridx, rvls))
  in
  let native_source ~key =
    Codegen.ewise_fused_source ~kind ~dtype:(Dtype.name dt) ~op ~chain ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg : a ewise_arg =
    ( Svector.unsafe_indices u,
      Svector.unsafe_values u,
      Svector.nvals u,
      Svector.unsafe_indices v,
      Svector.unsafe_values v,
      Svector.nvals v )
  in
  entries_of_pair (Obj.obj (kernel (Obj.repr arg)) : int array * a array)

let apply_chain_v (type a) (dt : a Dtype.t) ~chain (u : a Svector.t) =
  (* One compiled module for a whole [fk (... (f1 x))] apply chain over a
     vector (the nonblocking engine's apply∘apply fusion); [chain] is
     innermost-first, like [ewise_fused_v]. *)
  let chain_name = String.concat ";" (List.map Op_spec.unary_name chain) in
  let sig_ =
    Kernel_sig.make ~op:"apply_chain_v"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("chain", chain_name) ]
      ()
  in
  let build () =
    let fs =
      List.map (fun u -> (Op_spec.instantiate_unary dt u).Unaryop.f) chain
    in
    let g v = List.fold_left (fun acc f -> f acc) v fs in
    Obj.repr (fun (arg : Obj.t) ->
        let aidx, avls, an = (Obj.obj arg : int array * a array * int) in
        Obj.repr (Array_kernels.apply_v ~f:g (aidx, avls, an)))
  in
  let kernel : Obj.t -> Obj.t = Obj.obj (Dispatch.get sig_ ~build ()) in
  let arg =
    (Svector.unsafe_indices u, Svector.unsafe_values u, Svector.nvals u)
  in
  entries_of_pair (Obj.obj (kernel (Obj.repr arg)) : int array * a array)

let ewise_mult_reduce_v (type a) (dt : a Dtype.t) ~op ~monoid_op ~identity
    (u : a Svector.t) (v : a Svector.t) : a =
  (* eWiseMult feeding a scalar reduce, fused into one pass (the
     nonblocking engine's mult∘reduce rewrite): the intersection kernel's
     output values are folded on the fly instead of materializing the
     intermediate vector.  Entry order matches the unfused pipeline, so
     the result is bit-identical. *)
  let sig_ =
    Kernel_sig.make ~op:"ewise_mult_reduce_v"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op); ("monoid", monoid_op); ("identity", identity) ]
      ()
  in
  let build () =
    let f = (Binop.of_name op dt).Binop.f in
    let m = Op_spec.instantiate_monoid dt ~op:monoid_op ~identity in
    let acc_f = m.Monoid.op.Binop.f and id = m.Monoid.identity in
    Obj.repr (fun (arg : Obj.t) ->
        let aidx, avls, an, bidx, bvls, bn = (Obj.obj arg : a ewise_arg) in
        let _, rvls =
          Array_kernels.ewise_mult_v ~op:f (aidx, avls, an) (bidx, bvls, bn)
        in
        Obj.repr
          (Array_kernels.reduce_v ~op:acc_f ~identity:id
             ([||], rvls, Array.length rvls)))
  in
  let kernel : Obj.t -> Obj.t = Obj.obj (Dispatch.get sig_ ~build ()) in
  let arg : a ewise_arg =
    ( Svector.unsafe_indices u,
      Svector.unsafe_values u,
      Svector.nvals u,
      Svector.unsafe_indices v,
      Svector.unsafe_values v,
      Svector.nvals v )
  in
  (Obj.obj (kernel (Obj.repr arg)) : a)

let apply_v (type a) (dt : a Dtype.t) (f : Op_spec.unary) (u : a Svector.t) =
  let sig_ =
    Kernel_sig.make ~op:"apply_v"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("f", Op_spec.unary_name f) ]
      ()
  in
  let build () =
    let g = (Op_spec.instantiate_unary dt f).Unaryop.f in
    Obj.repr (fun (arg : Obj.t) ->
        let aidx, avls, an = (Obj.obj arg : int array * a array * int) in
        Obj.repr (Array_kernels.apply_v ~f:g (aidx, avls, an)))
  in
  let native_source ~key = Codegen.apply_source ~dtype:(Dtype.name dt) ~f ~key in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg =
    (Svector.unsafe_indices u, Svector.unsafe_values u, Svector.nvals u)
  in
  entries_of_pair (Obj.obj (kernel (Obj.repr arg)) : int array * a array)

let reduce_v_scalar (type a) (dt : a Dtype.t) ~op ~identity (u : a Svector.t) :
    a =
  let sig_ =
    Kernel_sig.make ~op:"reduce_v_scalar"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op); ("identity", identity) ]
      ()
  in
  let build () =
    let m = Op_spec.instantiate_monoid dt ~op ~identity in
    let f = m.Monoid.op.Binop.f and id = m.Monoid.identity in
    Obj.repr (fun (arg : Obj.t) ->
        let avls, an = (Obj.obj arg : a array * int) in
        Obj.repr (Array_kernels.reduce_v ~op:f ~identity:id ([||], avls, an)))
  in
  let native_source ~key =
    Codegen.reduce_source ~dtype:(Dtype.name dt) ~op ~identity ~key
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj (Dispatch.get sig_ ~build ~native_source ())
  in
  let arg = (Svector.unsafe_values u, Svector.nvals u) in
  (Obj.obj (kernel (Obj.repr arg)) : a)

(* -- matrix family: closure kernels wrapping the GBTL operations -- *)

let mask_flags = function
  | Mask.No_mmask -> []
  | Mask.Mmask { complemented; _ } ->
    if complemented then [ "mask"; "mask_complement" ] else [ "mask" ]

type 'a mxm_arg =
  int array * int array * 'a array * int array * int array * 'a array * int
  * int

let mxm (type a) (dt : a Dtype.t) (sr : Op_spec.semiring) ~transpose_a
    ~transpose_b ~mask (a : a Smatrix.t) (b : a Smatrix.t) : a Smatrix.t =
  match mask with
  | Mask.No_mmask ->
    (* unmasked: Gustavson over the array ABI, native codegen.  Input
       transposes are zero-copy views of the cached CSC side when the
       format layer is on (the kernel only reads the arrays);
       materialized host-side otherwise (as GBTL does). *)
    let flip m =
      if Format_stats.enabled () then Smatrix.unsafe_transpose_view m
      else Smatrix.transpose m
    in
    let a = if transpose_a then flip a else a in
    let b = if transpose_b then flip b else b in
    if Smatrix.ncols a <> Smatrix.nrows b then
      Error.raise_dims ~op:"mxm"
        ~expected:(Printf.sprintf "inner dimension %d" (Smatrix.ncols a))
        ~actual:(string_of_int (Smatrix.nrows b));
    let sig_ =
      Kernel_sig.make ~op:"mxm"
        ~dtypes:[ ("T", Dtype.name dt) ]
        ~operators:(semiring_ops sr)
        ~flags:[ "gustavson" ] ()
    in
    let build () =
      let s = Op_spec.instantiate_semiring dt sr in
      let add = Semiring.add s and mul = Semiring.mul s in
      let dummy = Semiring.zero s in
      Obj.repr (fun (arg : Obj.t) ->
          let arp, aci, avs, brp, bci, bvs, nrows_a, ncols_b =
            (Obj.obj arg : a mxm_arg)
          in
          Obj.repr
            (Array_kernels.mxm_gustavson ~add ~mul ~dummy ~nrows_a ~ncols_b
               (arp, aci, avs) (brp, bci, bvs)))
    in
    let native_source ~key = Codegen.mxm_source ~dtype:(Dtype.name dt) ~sr ~key in
    let kernel : Obj.t -> Obj.t =
      Obj.obj (Dispatch.get sig_ ~build ~native_source ())
    in
    let arg : a mxm_arg =
      ( Smatrix.unsafe_rowptr a,
        Smatrix.unsafe_colidx a,
        Smatrix.unsafe_values a,
        Smatrix.unsafe_rowptr b,
        Smatrix.unsafe_colidx b,
        Smatrix.unsafe_values b,
        Smatrix.nrows a,
        Smatrix.ncols b )
    in
    let rowptr, colidx, values =
      (Obj.obj (kernel (Obj.repr arg)) : int array * int array * a array)
    in
    Smatrix.of_csr_unsafe dt ~nrows:(Smatrix.nrows a) ~ncols:(Smatrix.ncols b)
      ~rowptr ~colidx ~values
  | Mask.Mmask _ ->
    (* masked: the library's kernels as a closure kernel — the marker dot
       kernel with [transpose_b], the mask-filtered Gustavson otherwise;
       [out] is fresh, so the result is installed without a write step *)
    let flags =
      (if transpose_a then [ "transpose_a" ] else [])
      @ (if transpose_b then [ "transpose_b" ] else [])
      @ mask_flags mask
    in
    let sig_ =
      Kernel_sig.make ~op:"mxm"
        ~dtypes:[ ("T", Dtype.name dt) ]
        ~operators:(semiring_ops sr) ~flags ()
    in
    let build () =
      let s = Op_spec.instantiate_semiring dt sr in
      Obj.repr
        (fun ((a, b, mask) : a Smatrix.t * a Smatrix.t * Mask.mmask) ->
          let nrows =
            if transpose_a then Smatrix.ncols a else Smatrix.nrows a
          in
          let ncols =
            if transpose_b then Smatrix.nrows b else Smatrix.ncols b
          in
          let out = Smatrix.create dt nrows ncols in
          Matmul.mxm ~mask ~transpose_a ~transpose_b s ~out a b;
          out)
    in
    let kernel : a Smatrix.t * a Smatrix.t * Mask.mmask -> a Smatrix.t =
      Obj.obj (Dispatch.get sig_ ~build ())
    in
    kernel (a, b, mask)

let ewise_m (type a) kind (dt : a Dtype.t) ~op ~transpose_a ~transpose_b
    (a : a Smatrix.t) (b : a Smatrix.t) : a Smatrix.t =
  let kind_name = match kind with `Add -> "ewise_add_m" | `Mult -> "ewise_mult_m" in
  let flags =
    (if transpose_a then [ "transpose_a" ] else [])
    @ if transpose_b then [ "transpose_b" ] else []
  in
  let sig_ =
    Kernel_sig.make ~op:kind_name
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op) ]
      ~flags ()
  in
  let build () =
    let f = Binop.of_name op dt in
    Obj.repr (fun ((a, b) : a Smatrix.t * a Smatrix.t) ->
        let a' = if transpose_a then Smatrix.transpose a else a in
        let out = Smatrix.create dt (Smatrix.nrows a') (Smatrix.ncols a') in
        (match kind with
        | `Add ->
          Ewise.matrix_add ~transpose_a ~transpose_b f ~out a b
        | `Mult -> Ewise.matrix_mult ~transpose_a ~transpose_b f ~out a b);
        out)
  in
  let kernel : a Smatrix.t * a Smatrix.t -> a Smatrix.t =
    Obj.obj (Dispatch.get sig_ ~build ())
  in
  kernel (a, b)

let apply_m (type a) (dt : a Dtype.t) (f : Op_spec.unary) ~transpose
    (a : a Smatrix.t) : a Smatrix.t =
  let sig_ =
    Kernel_sig.make ~op:"apply_m"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("f", Op_spec.unary_name f) ]
      ~flags:(if transpose then [ "transpose_a" ] else [])
      ()
  in
  let build () =
    let g = Op_spec.instantiate_unary dt f in
    Obj.repr (fun (a : a Smatrix.t) ->
        let nrows = if transpose then Smatrix.ncols a else Smatrix.nrows a in
        let ncols = if transpose then Smatrix.nrows a else Smatrix.ncols a in
        let out = Smatrix.create dt nrows ncols in
        Apply_reduce.apply_matrix ~transpose g ~out a;
        out)
  in
  let kernel : a Smatrix.t -> a Smatrix.t =
    Obj.obj (Dispatch.get sig_ ~build ())
  in
  kernel a

let reduce_rows (type a) (dt : a Dtype.t) ~op ~identity ~transpose
    (a : a Smatrix.t) : a Entries.t =
  let sig_ =
    Kernel_sig.make ~op:"reduce_rows"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op); ("identity", identity) ]
      ~flags:(if transpose then [ "transpose_a" ] else [])
      ()
  in
  let build () =
    let m = Op_spec.instantiate_monoid dt ~op ~identity in
    Obj.repr (fun (a : a Smatrix.t) ->
        let size = if transpose then Smatrix.ncols a else Smatrix.nrows a in
        let out = Svector.create dt size in
        Apply_reduce.reduce_rows ~transpose m ~out a;
        Svector.entries out)
  in
  let kernel : a Smatrix.t -> a Entries.t =
    Obj.obj (Dispatch.get sig_ ~build ())
  in
  kernel a

let reduce_m_scalar (type a) (dt : a Dtype.t) ~op ~identity (a : a Smatrix.t) :
    a =
  let sig_ =
    Kernel_sig.make ~op:"reduce_m_scalar"
      ~dtypes:[ ("T", Dtype.name dt) ]
      ~operators:[ ("op", op); ("identity", identity) ]
      ()
  in
  let build () =
    let m = Op_spec.instantiate_monoid dt ~op ~identity in
    Obj.repr (fun (a : a Smatrix.t) -> Apply_reduce.reduce_matrix_scalar m a)
  in
  let kernel : a Smatrix.t -> a = Obj.obj (Dispatch.get sig_ ~build ()) in
  kernel a

let transpose_m (type a) (dt : a Dtype.t) (a : a Smatrix.t) : a Smatrix.t =
  let sig_ =
    Kernel_sig.make ~op:"transpose" ~dtypes:[ ("T", Dtype.name dt) ] ()
  in
  let build () = Obj.repr (fun (a : a Smatrix.t) -> Smatrix.transpose a) in
  let kernel : a Smatrix.t -> a Smatrix.t =
    Obj.obj (Dispatch.get sig_ ~build ())
  in
  kernel a
