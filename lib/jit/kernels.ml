open Gbtl

let semiring_ops (sr : Op_spec.semiring) =
  [ ("add", sr.Op_spec.add_op);
    ("identity", sr.Op_spec.add_identity);
    ("mul", sr.Op_spec.mul_op) ]

let dtypes dt = [ ("T", Dtype.name dt) ]

let entries_of_pair (type a) ((idx, vals) : int array * a array) =
  Entries.of_arrays_unsafe idx vals ~len:(Array.length idx)

(* -- vector family: each loop body is written once (bodies/, generated
   into Loops) and dispatched as a native plugin of its text or as its
   functor applied to a closure prelude -- *)

(* Closure preludes: the operators instantiated at the dtype, bound to
   the names the loop bodies use. *)
let semiring_prelude (type a) ~swap (dt : a Dtype.t) (sr : Op_spec.semiring) :
    (module Loop_sig.SATURATING with type t = a) =
  let s = Op_spec.instantiate_semiring dt sr in
  let mul = Semiring.mul s in
  let saturates = Codegen.saturates ~dtype:(Dtype.name dt) sr.Op_spec.add_op in
  (module struct
    type t = a

    let add_ = Semiring.add s
    let mul_ = if swap then fun x y -> mul y x else mul
    let identity_ = Semiring.zero s
    let sat_ = if saturates then Dtype.to_bool dt else fun _ -> false
  end)

let binop_prelude (type a) (dt : a Dtype.t) op :
    (module Loop_sig.BINOP with type t = a) =
  (module struct
    type t = a

    let op_ = (Binop.of_name op dt).Binop.f
    let zero_ = Dtype.zero dt
  end)

(* an apply chain, innermost first, as one function *)
let chain_fn (type a) (dt : a Dtype.t) chain : a -> a =
  let instantiate u = (Op_spec.instantiate_unary dt u).Unaryop.f in
  match List.map instantiate chain with
  | [ f ] -> f
  | fs -> fun v -> List.fold_left (fun acc f -> f acc) v fs

let unary_prelude (type a) (dt : a Dtype.t) chain :
    (module Loop_sig.UNARY with type t = a) =
  (module struct
    type t = a

    let f_ = chain_fn dt chain
    let zero_ = Dtype.zero dt
  end)

let monoid_prelude (type a) (dt : a Dtype.t) ~op ~identity :
    (module Loop_sig.MONOID with type t = a) =
  let m = Op_spec.instantiate_monoid dt ~op ~identity in
  (module struct
    type t = a

    let op_ = m.Monoid.op.Binop.f
    let identity_ = m.Monoid.identity
  end)

module type KERNEL = sig
  val kernel : Obj.t -> Obj.t
end

(* the semiring families take a SEMIRING, the masked pull a SATURATING *)
module type SEMIRING_LOOP = functor (_ : Loop_sig.SATURATING) -> KERNEL
module type BINOP_LOOP = functor (_ : Loop_sig.BINOP) -> KERNEL
module type FUSED_LOOP = functor (_ : Loop_sig.FUSED) -> KERNEL
module type UNARY_LOOP = functor (_ : Loop_sig.UNARY) -> KERNEL
module type MONOID_LOOP = functor (_ : Loop_sig.MONOID) -> KERNEL

(* A family at one operator choice: the closure build (its functor over
   the closure prelude) and the native source (its text after the
   literal prelude). *)
let semiring_family (type a) ?(swap = false) ?(sat = false) (dt : a Dtype.t)
    sr (module L : SEMIRING_LOOP) text =
  ( (fun () ->
      let module K = L ((val semiring_prelude ~swap dt sr)) in
      Obj.repr K.kernel),
    fun ~key ->
      Codegen.semiring_source ~swap ~sat ~dtype:(Dtype.name dt) ~sr ~key text )

let binop_family (type a) (dt : a Dtype.t) op (module L : BINOP_LOOP) text =
  ( (fun () ->
      let module K = L ((val binop_prelude dt op)) in
      Obj.repr K.kernel),
    fun ~key -> Codegen.op_source ~op ~dtype:(Dtype.name dt) ~key text )

let unary_family (type a) (dt : a Dtype.t) chain (module L : UNARY_LOOP) text
    =
  ( (fun () ->
      let module K = L ((val unary_prelude dt chain)) in
      Obj.repr K.kernel),
    fun ~key -> Codegen.op_source ~f:chain ~dtype:(Dtype.name dt) ~key text )

let monoid_family (type a) (dt : a Dtype.t) ~op ~identity
    (module L : MONOID_LOOP) text =
  ( (fun () ->
      let module K = L ((val monoid_prelude dt ~op ~identity)) in
      Obj.repr K.kernel),
    fun ~key ->
      Codegen.op_source ~op ~identity ~dtype:(Dtype.name dt) ~key text )

let get sig_ (build, native_source) : Obj.t -> Obj.t =
  Obj.obj (Dispatch.get sig_ ~build ~native_source ())

let semiring_sig ~op ?formats ?flags dt sr =
  Kernel_sig.make ~op ~dtypes:(dtypes dt) ~operators:(semiring_ops sr) ?formats
    ?flags ()

let run (type r) (k : Obj.t -> Obj.t) arg : r = Obj.obj (k (Obj.repr arg))

(* The matvec ABI: CSR (or swapped CSC) arrays, the sparse operand, the
   dimensions and the loop choice (true = scatter, false = gather). *)
let matvec_arg (type a) ~rowptr ~colidx ~(values : a array) ~nrows ~ncols
    (u : a Svector.t) scatter =
  ( rowptr,
    colidx,
    values,
    Svector.unsafe_indices u,
    Svector.unsafe_values u,
    Svector.nvals u,
    nrows,
    ncols,
    scatter )

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
  let kernel =
    get
      (semiring_sig ~op:"mxv"
         ~formats:(if use_pull then [ ("a", "csc") ] else [])
         ~flags:(if transpose then [ "transpose_a" ] else [])
         dt sr)
      (semiring_family dt sr (module Loops.Matvec) Loops.matvec)
  in
  if transpose && Format_stats.enabled () then
    if use_pull then Format_stats.record_pull ()
    else Format_stats.record_push ();
  (* The pull dispatch hands the gather loop the CSC arrays with swapped
     dimensions, which computes the transposed product directly. *)
  let arg =
    if use_pull then
      matvec_arg ~rowptr:(Smatrix.unsafe_colptr m)
        ~colidx:(Smatrix.unsafe_rowidx m) ~values:(Smatrix.unsafe_cvals m)
        ~nrows:(Smatrix.ncols m) ~ncols:(Smatrix.nrows m) u false
    else
      matvec_arg ~rowptr:(Smatrix.unsafe_rowptr m)
        ~colidx:(Smatrix.unsafe_colidx m) ~values:(Smatrix.unsafe_values m)
        ~nrows:(Smatrix.nrows m) ~ncols:(Smatrix.ncols m) u transpose
  in
  entries_of_pair (run kernel arg : int array * a array)

let mxv_pull_masked (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ~(visited : bool array) (m : a Smatrix.t)
    ((uvls, uocc) : a array * bool array) =
  (* The BFS bottom-up step: gather only unvisited output positions from
     the CSC side, stopping each column early once the saturating ⊕
     cannot change the accumulator.  The mask is the visited bitmap
     itself (complemented) and the exit predicate comes from the
     semiring, so the whole ABI is concrete arrays and the kernel
     compiles natively. *)
  let kernel =
    get
      (semiring_sig ~op:"mxv"
         ~formats:[ ("a", "csc"); ("u", "dense") ]
         ~flags:[ "masked_pull"; "transpose_a" ]
         dt sr)
      (semiring_family ~sat:true dt sr
         (module Loops.Mxv_pull_masked)
         Loops.mxv_pull_masked)
  in
  entries_of_pair
    (run kernel
       ( Smatrix.unsafe_colptr m,
         Smatrix.unsafe_rowidx m,
         Smatrix.unsafe_cvals m,
         uvls,
         uocc,
         visited,
         Smatrix.ncols m )
      : int array * a array)

let vxm (type a) (dt : a Dtype.t) (sr : Op_spec.semiring) ~transpose
    (u : a Svector.t) (m : a Smatrix.t) =
  (* the matvec loops with ⊗'s operands swapped: u A scatters along A's
     rows, u Aᵀ gathers *)
  let kernel =
    get
      (semiring_sig ~op:"vxm"
         ~flags:(if transpose then [ "transpose_a" ] else [])
         dt sr)
      (semiring_family ~swap:true dt sr (module Loops.Matvec) Loops.matvec)
  in
  let arg =
    matvec_arg ~rowptr:(Smatrix.unsafe_rowptr m)
      ~colidx:(Smatrix.unsafe_colidx m) ~values:(Smatrix.unsafe_values m)
      ~nrows:(Smatrix.nrows m) ~ncols:(Smatrix.ncols m) u (not transpose)
  in
  entries_of_pair (run kernel arg : int array * a array)

let vxm_dense (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ((uvls, uocc) : a array * bool array) (m : a Smatrix.t) :
    a array * bool array =
  let kernel =
    get
      (semiring_sig ~op:"vxm" ~formats:[ ("u", "dense"); ("w", "dense") ] dt sr)
      (semiring_family dt sr (module Loops.Vxm_dense) Loops.vxm_dense)
  in
  run kernel
    ( uvls,
      uocc,
      Smatrix.unsafe_rowptr m,
      Smatrix.unsafe_colidx m,
      Smatrix.unsafe_values m,
      Smatrix.nrows m,
      Smatrix.ncols m )

let vxm_pull_dense (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ((uvls, uocc) : a array * bool array) (m : a Smatrix.t) :
    a array * bool array =
  (* Pull form of [vxm_dense] over the cached CSC side: one gather (and
     one local accumulator) per output position instead of a
     read-modify-write scatter — the fast path for an iterated product
     such as PageRank, where building the CSC side once is amortized
     over every iteration. *)
  let kernel =
    get
      (semiring_sig ~op:"vxm"
         ~formats:[ ("a", "csc"); ("u", "dense"); ("w", "dense") ]
         dt sr)
      (semiring_family dt sr (module Loops.Vxm_pull_dense) Loops.vxm_pull_dense)
  in
  run kernel
    ( uvls,
      uocc,
      Smatrix.unsafe_colptr m,
      Smatrix.unsafe_rowidx m,
      Smatrix.unsafe_cvals m,
      Smatrix.ncols m )

let vxm_tile_acc (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ~(tile_tag : string) ~(r0 : int) ~(c0 : int) (tile : a Smatrix.t)
    ((uvls, uocc) : a array * bool array)
    ((acc, occ) : a array * bool array) : unit =
  (* The tile shape rides in the signature's formats field, so each
     tiling compiles (and caches) its own module — the out-of-core
     analogue of the CSR/CSC format key. *)
  let kernel =
    get
      (semiring_sig ~op:"vxm_tile"
         ~formats:
           [ ("a", "csc"); ("u", "dense"); ("w", "dense"); ("tile", tile_tag) ]
         dt sr)
      (semiring_family dt sr (module Loops.Vxm_tile_acc) Loops.vxm_tile_acc)
  in
  run kernel
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

let ewise_name = function `Add -> "ewise_add_v" | `Mult -> "ewise_mult_v"

let sparse_pair_arg (type a) (u : a Svector.t) (v : a Svector.t) =
  ( Svector.unsafe_indices u,
    Svector.unsafe_values u,
    Svector.nvals u,
    Svector.unsafe_indices v,
    Svector.unsafe_values v,
    Svector.nvals v )

let ewise_v_dense (type a) kind (dt : a Dtype.t) ~op
    ((avls, aocc) : a array * bool array) ((bvls, bocc) : a array * bool array)
    : a array * bool array =
  let kernel =
    get
      (Kernel_sig.make ~op:(ewise_name kind) ~dtypes:(dtypes dt)
         ~operators:[ ("op", op) ]
         ~formats:[ ("u", "dense"); ("v", "dense") ]
         ())
      (match kind with
      | `Add ->
        binop_family dt op
          (module Loops.Ewise_add_dense)
          Loops.ewise_add_dense
      | `Mult ->
        binop_family dt op
          (module Loops.Ewise_mult_dense)
          Loops.ewise_mult_dense)
  in
  run kernel (avls, aocc, bvls, bocc)

let apply_v_dense (type a) (dt : a Dtype.t) (f : Op_spec.unary)
    ((avls, aocc) : a array * bool array) : a array * bool array =
  let kernel =
    get
      (Kernel_sig.make ~op:"apply_v" ~dtypes:(dtypes dt)
         ~operators:[ ("f", Op_spec.unary_name f) ]
         ~formats:[ ("u", "dense") ]
         ())
      (unary_family dt [ f ] (module Loops.Apply_dense) Loops.apply_dense)
  in
  run kernel (avls, aocc)

let reduce_v_scalar_dense (type a) (dt : a Dtype.t) ~op ~identity
    ((avls, aocc) : a array * bool array) : a =
  let kernel =
    get
      (Kernel_sig.make ~op:"reduce_v_scalar" ~dtypes:(dtypes dt)
         ~operators:[ ("op", op); ("identity", identity) ]
         ~formats:[ ("u", "dense") ]
         ())
      (monoid_family dt ~op ~identity (module Loops.Reduce_dense)
         Loops.reduce_dense)
  in
  run kernel (avls, aocc)

let ewise_v (type a) kind (dt : a Dtype.t) ~op (u : a Svector.t)
    (v : a Svector.t) =
  let kernel =
    get
      (Kernel_sig.make ~op:(ewise_name kind) ~dtypes:(dtypes dt)
         ~operators:[ ("op", op) ]
         ())
      (match kind with
      | `Add -> binop_family dt op (module Loops.Ewise_add) Loops.ewise_add
      | `Mult -> binop_family dt op (module Loops.Ewise_mult) Loops.ewise_mult)
  in
  entries_of_pair (run kernel (sparse_pair_arg u v) : int array * a array)

let ewise_fused_v (type a) kind (dt : a Dtype.t) ~op ~chain (u : a Svector.t)
    (v : a Svector.t) =
  let kind_name =
    match kind with
    | `Add -> "ewise_add_fused_v"
    | `Mult -> "ewise_mult_fused_v"
  in
  let chain_name = String.concat ";" (List.map Op_spec.unary_name chain) in
  let fused (module L : FUSED_LOOP) text =
    ( (fun () ->
        let module K =
          L (struct
            include (val binop_prelude dt op)

            let f_ = chain_fn dt chain
          end)
        in
        Obj.repr K.kernel),
      fun ~key ->
        Codegen.op_source ~op ~f:chain ~dtype:(Dtype.name dt) ~key text )
  in
  let kernel =
    get
      (Kernel_sig.make ~op:kind_name ~dtypes:(dtypes dt)
         ~operators:[ ("op", op); ("chain", chain_name) ]
         ())
      (match kind with
      | `Add -> fused (module Loops.Ewise_add_fused) Loops.ewise_add_fused
      | `Mult -> fused (module Loops.Ewise_mult_fused) Loops.ewise_mult_fused)
  in
  entries_of_pair (run kernel (sparse_pair_arg u v) : int array * a array)

let sparse_arg (type a) (u : a Svector.t) =
  (Svector.unsafe_indices u, Svector.unsafe_values u, Svector.nvals u)

let apply_chain_v (type a) (dt : a Dtype.t) ~chain (u : a Svector.t) =
  (* One kernel for a whole [fk (... (f1 x))] apply chain over a vector
     (the nonblocking engine's apply∘apply fusion); [chain] is
     innermost-first, like [ewise_fused_v].  Closure only. *)
  let chain_name = String.concat ";" (List.map Op_spec.unary_name chain) in
  let build, _ = unary_family dt chain (module Loops.Apply) Loops.apply in
  let kernel : Obj.t -> Obj.t =
    Obj.obj
      (Dispatch.get
         (Kernel_sig.make ~op:"apply_chain_v" ~dtypes:(dtypes dt)
            ~operators:[ ("chain", chain_name) ]
            ())
         ~build ())
  in
  entries_of_pair (run kernel (sparse_arg u) : int array * a array)

let ewise_mult_reduce_v (type a) (dt : a Dtype.t) ~op ~monoid_op ~identity
    (u : a Svector.t) (v : a Svector.t) : a =
  (* eWiseMult feeding a scalar reduce in one kernel (the nonblocking
     engine's mult∘reduce rewrite): the intersection's values are folded
     in entry order, so the result is bit-identical to the unfused
     pipeline.  Closure only. *)
  let build () =
    let module M = Loops.Ewise_mult ((val binop_prelude dt op)) in
    let module R =
      Loops.Reduce ((val monoid_prelude dt ~op:monoid_op ~identity))
    in
    Obj.repr (fun arg ->
        let _, vls = (Obj.obj (M.kernel arg) : int array * a array) in
        R.kernel (Obj.repr (vls, Array.length vls)))
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj
      (Dispatch.get
         (Kernel_sig.make ~op:"ewise_mult_reduce_v" ~dtypes:(dtypes dt)
            ~operators:
              [ ("op", op); ("monoid", monoid_op); ("identity", identity) ]
            ())
         ~build ())
  in
  run kernel (sparse_pair_arg u v)

let apply_v (type a) (dt : a Dtype.t) (f : Op_spec.unary) (u : a Svector.t) =
  let kernel =
    get
      (Kernel_sig.make ~op:"apply_v" ~dtypes:(dtypes dt)
         ~operators:[ ("f", Op_spec.unary_name f) ]
         ())
      (unary_family dt [ f ] (module Loops.Apply) Loops.apply)
  in
  entries_of_pair (run kernel (sparse_arg u) : int array * a array)

let reduce_v_scalar (type a) (dt : a Dtype.t) ~op ~identity (u : a Svector.t) :
    a =
  let kernel =
    get
      (Kernel_sig.make ~op:"reduce_v_scalar" ~dtypes:(dtypes dt)
         ~operators:[ ("op", op); ("identity", identity) ]
         ())
      (monoid_family dt ~op ~identity (module Loops.Reduce) Loops.reduce)
  in
  run kernel (Svector.unsafe_values u, Svector.nvals u)

(* -- matrix family: closure kernels wrapping the GBTL operations -- *)

let mask_flags = function
  | Mask.No_mmask -> []
  | Mask.Mmask { complemented; _ } ->
    if complemented then [ "mask"; "mask_complement" ] else [ "mask" ]

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
    let kernel =
      get
        (semiring_sig ~op:"mxm" ~flags:[ "gustavson" ] dt sr)
        (semiring_family dt sr (module Loops.Mxm) Loops.mxm)
    in
    let arg =
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
      (run kernel arg : int array * int array * a array)
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
