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

(* -- results --
   A vector kernel reads each operand in the layout it already has and
   never converts a container: a dense operand goes to the dense bodies
   on its (values, validity) arrays, a sparse one to the sparse bodies.
   The raw result is then handed out as a fresh vector, whose layout the
   fill rules settle, or as entries for the write step's merge. *)

type 'a raw =
  | Sparse of (int array * 'a array)
  | Dense of ('a array * bool array)

(* dense bodies need a non-empty vector: their arrays have length
   [max size 1] *)
let dense_operand u = Svector.is_dense u && Svector.size u > 0

let to_svector (type a) (dt : a Dtype.t) size (raw : a raw) : a Svector.t =
  let v =
    match raw with
    | Sparse (idx, vals) ->
      Svector.of_sparse_unsafe dt size ~idx ~vals ~nvals:(Array.length idx)
    | Dense (vals, valid) -> Svector.of_dense_unsafe dt ~vals ~valid
  in
  Svector.settle v;
  v

let to_entries (type a) (raw : a raw) : a Entries.t =
  match raw with
  | Sparse (idx, vals) -> entries_of_pair (idx, vals)
  | Dense (vals, valid) ->
    let e = Entries.create () in
    Array.iteri (fun i ok -> if ok then Entries.push e i vals.(i)) valid;
    e

(* Drop the entries a vector mask does not allow (the push products'
   filter); the raw arrays are the kernel's own. *)
let restrict (type a) mask (raw : a raw) : a raw =
  match mask, raw with
  | Mask.No_vmask, _ -> raw
  | _, Dense (_, valid) ->
    let allowed = Mask.v_cursor mask in
    Array.iteri (fun i ok -> if ok && not (allowed i) then valid.(i) <- false)
      valid;
    raw
  | _, Sparse (idx, vals) ->
    let allowed = Mask.v_cursor mask in
    let n = ref 0 in
    Array.iteri
      (fun k i ->
        if allowed i then begin
          idx.(!n) <- i;
          vals.(!n) <- vals.(k);
          incr n
        end)
      idx;
    Sparse (Array.sub idx 0 !n, Array.sub vals 0 !n)

(* The output positions a mask rules out, as the masked pull's
   [visited] bitmap; a complemented dense mask already is one. *)
let blocked size = function
  | Mask.No_vmask -> Array.make (max size 1) false
  | Mask.Vmask { dense; complemented = true } -> dense
  | Mask.Vmask { dense; complemented = false } -> Array.map not dense
  | Mask.Vmask_sparse { idx; complemented; _ } ->
    let b = Array.make (max size 1) (not complemented) in
    Array.iter (fun i -> b.(i) <- complemented) idx;
    b

(* -- mat×vec products --
   [w = A ⊕.⊗ u] (mxv) and [w = u ⊕.⊗ A] (vxm), either with A
   transposed.  An output gathers along A's columns for Aᵀu and uA and
   along A's rows for Au and uAᵀ.  Every loop folds an output's terms in
   ascending source order, so direction, layout and mask change time,
   never values:

   - a row gather always pulls over the CSR arrays;
   - a column gather pulls over the cached CSC side when [direction]
     says so or, by default, when the format layer is on and the
     operand is dense (the fill rules made it so); else it pushes,
     scattering along the CSR rows;
   - a dense operand runs vxm_pull_dense (pull) or vxm_dense (push) and
     yields a dense result, a sparse one runs matvec;
   - a mask goes into the loop: a pull runs mxv_pull_masked over the
     allowed outputs only, a push filters its scatter.

   matvec and mxv_pull_masked put the matrix value first in ⊗, the
   vxm_* bodies the vector value; the prelude swaps ⊗'s operands where
   the product wants the other order. *)
let product (type a) ~vxm (dt : a Dtype.t) (sr : Op_spec.semiring) ~direction
    ~mask ~transpose (m : a Smatrix.t) (u : a Svector.t) : a raw =
  let op = if vxm then "vxm" else "mxv" in
  let by_cols = transpose <> vxm in
  let in_size, out_size =
    if by_cols then (Smatrix.nrows m, Smatrix.ncols m)
    else (Smatrix.ncols m, Smatrix.nrows m)
  in
  if Svector.size u <> in_size then
    Error.raise_dims ~op
      ~expected:(Printf.sprintf "vector size %d" in_size)
      ~actual:(Error.size_str (Svector.size u));
  Mask.v_check_size mask out_size;
  let pull =
    (not by_cols)
    ||
    match direction with
    | `Pull -> true
    | `Push -> false
    | `Auto -> Format_stats.enabled () && Svector.is_dense u
  in
  if by_cols && Format_stats.enabled () then
    if pull then Format_stats.record_pull () else Format_stats.record_push ();
  let flags = if transpose then [ "transpose_a" ] else [] in
  let csc = if by_cols && pull then [ ("a", "csc") ] else [] in
  (* the gather lists of a pull, or the CSR rows a push scatters along *)
  let ptr, ids, vals =
    if by_cols && pull then
      (Smatrix.unsafe_colptr m, Smatrix.unsafe_rowidx m, Smatrix.unsafe_cvals m)
    else
      (Smatrix.unsafe_rowptr m, Smatrix.unsafe_colidx m, Smatrix.unsafe_values m)
  in
  let dense = dense_operand u && out_size > 0 in
  match mask with
  | (Mask.Vmask _ | Mask.Vmask_sparse _) when pull ->
    let uvls, uocc = Svector.dense_view u in
    let kernel =
      get
        (semiring_sig ~op
           ~formats:(csc @ [ ("u", "dense") ])
           ~flags:("masked_pull" :: flags) dt sr)
        (semiring_family ~swap:vxm ~sat:true dt sr
           (module Loops.Mxv_pull_masked)
           Loops.mxv_pull_masked)
    in
    let idx, vls =
      (run kernel (ptr, ids, vals, uvls, uocc, blocked out_size mask, out_size)
        : int array * a array)
    in
    Sparse (idx, vls)
  | Mask.No_vmask | Mask.Vmask _ | Mask.Vmask_sparse _ ->
    let dense_uw = [ ("u", "dense"); ("w", "dense") ] in
    let raw =
      if dense && pull then
        let kernel =
          get
            (semiring_sig ~op ~formats:(csc @ dense_uw) ~flags dt sr)
            (semiring_family ~swap:(not vxm) dt sr
               (module Loops.Vxm_pull_dense)
               Loops.vxm_pull_dense)
        in
        let uvls, uocc = Svector.dense_view u in
        Dense (run kernel (uvls, uocc, ptr, ids, vals, out_size))
      else if dense then
        let kernel =
          get
            (semiring_sig ~op ~formats:dense_uw ~flags dt sr)
            (semiring_family ~swap:(not vxm) dt sr
               (module Loops.Vxm_dense)
               Loops.vxm_dense)
        in
        let uvls, uocc = Svector.dense_view u in
        Dense (run kernel (uvls, uocc, ptr, ids, vals, in_size, out_size))
      else begin
        let kernel =
          get
            (semiring_sig ~op ~formats:csc ~flags dt sr)
            (semiring_family ~swap:vxm dt sr (module Loops.Matvec) Loops.matvec)
        in
        (* matvec's dimensions: (lists, operand size) for a gather,
           (operand size, outputs) for a scatter *)
        let uidx, uvls, un = Svector.sparse_view u in
        let nrows, ncols =
          if pull then (out_size, in_size) else (in_size, out_size)
        in
        let idx, vls =
          (run kernel (ptr, ids, vals, uidx, uvls, un, nrows, ncols, not pull)
            : int array * a array)
        in
        Sparse (idx, vls)
      end
    in
    restrict mask raw

let out_size ~vxm ~transpose m =
  if transpose <> vxm then Smatrix.ncols m else Smatrix.nrows m

let mxv (type a) (dt : a Dtype.t) (sr : Op_spec.semiring)
    ?(direction = `Auto) ~transpose m (u : a Svector.t) =
  to_entries
    (product ~vxm:false dt sr ~direction ~mask:Mask.No_vmask ~transpose m u)

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
  to_entries
    (product ~vxm:true dt sr ~direction:`Auto ~mask:Mask.No_vmask ~transpose m
       u)

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
  let uidx, uvls, un = Svector.sparse_view u in
  let vidx, vvls, vn = Svector.sparse_view v in
  (uidx, uvls, un, vidx, vvls, vn)

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

let chain_name chain = String.concat ";" (List.map Op_spec.unary_name chain)

(* apply_dense over a whole chain (innermost first); a one-operator
   chain is apply_v's dense signature *)
let apply_chain_dense (type a) (dt : a Dtype.t) chain
    ((avls, aocc) : a array * bool array) : a array * bool array =
  let kernel =
    get
      (Kernel_sig.make ~op:"apply_v" ~dtypes:(dtypes dt)
         ~operators:[ ("f", chain_name chain) ]
         ~formats:[ ("u", "dense") ]
         ())
      (unary_family dt chain (module Loops.Apply_dense) Loops.apply_dense)
  in
  run kernel (avls, aocc)

let apply_v_dense dt f arg = apply_chain_dense dt [ f ] arg

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

let check_pair kind u v =
  if Svector.size v <> Svector.size u then
    Error.raise_dims ~op:(ewise_name kind)
      ~expected:(Printf.sprintf "size %d" (Svector.size u))
      ~actual:(Error.size_str (Svector.size v))

(* eWiseAdd's union is dense when either operand is; eWiseMult's
   intersection only when both are *)
let dense_pair kind u v =
  match kind with
  | `Add -> dense_operand u || dense_operand v
  | `Mult -> dense_operand u && dense_operand v

let ewise_raw (type a) kind (dt : a Dtype.t) ~op (u : a Svector.t)
    (v : a Svector.t) : a raw =
  check_pair kind u v;
  if dense_pair kind u v then
    Dense
      (ewise_v_dense kind dt ~op (Svector.dense_view u) (Svector.dense_view v))
  else begin
    let kernel =
      get
        (Kernel_sig.make ~op:(ewise_name kind) ~dtypes:(dtypes dt)
           ~operators:[ ("op", op) ]
           ())
        (match kind with
        | `Add -> binop_family dt op (module Loops.Ewise_add) Loops.ewise_add
        | `Mult -> binop_family dt op (module Loops.Ewise_mult) Loops.ewise_mult)
    in
    let idx, vls = (run kernel (sparse_pair_arg u v) : int array * a array) in
    Sparse (idx, vls)
  end

let ewise_v kind dt ~op u v = to_entries (ewise_raw kind dt ~op u v)

let ewise_fused_raw (type a) kind (dt : a Dtype.t) ~op ~chain (u : a Svector.t)
    (v : a Svector.t) : a raw =
  check_pair kind u v;
  if dense_pair kind u v then
    (* the dense merge, then the chain over its occupied slots: the
       values the fused sparse kernel computes *)
    Dense
      (apply_chain_dense dt chain
         (ewise_v_dense kind dt ~op (Svector.dense_view u)
            (Svector.dense_view v)))
  else begin
    let kind_name =
      match kind with
      | `Add -> "ewise_add_fused_v"
      | `Mult -> "ewise_mult_fused_v"
    in
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
           ~operators:[ ("op", op); ("chain", chain_name chain) ]
           ())
        (match kind with
        | `Add -> fused (module Loops.Ewise_add_fused) Loops.ewise_add_fused
        | `Mult -> fused (module Loops.Ewise_mult_fused) Loops.ewise_mult_fused)
    in
    let idx, vls = (run kernel (sparse_pair_arg u v) : int array * a array) in
    Sparse (idx, vls)
  end

let ewise_fused_v kind dt ~op ~chain u v =
  to_entries (ewise_fused_raw kind dt ~op ~chain u v)

let apply_chain_raw (type a) (dt : a Dtype.t) ~chain (u : a Svector.t) : a raw =
  if dense_operand u then
    Dense (apply_chain_dense dt chain (Svector.dense_view u))
  else begin
    let family = unary_family dt chain (module Loops.Apply) Loops.apply in
    let kernel =
      match chain with
      | [ f ] ->
        get
          (Kernel_sig.make ~op:"apply_v" ~dtypes:(dtypes dt)
             ~operators:[ ("f", Op_spec.unary_name f) ]
             ())
          family
      | chain ->
        (* a longer chain (the nonblocking engine's apply∘apply fusion)
           runs as a closure *)
        Obj.obj
          (Dispatch.get
             (Kernel_sig.make ~op:"apply_chain_v" ~dtypes:(dtypes dt)
                ~operators:[ ("chain", chain_name chain) ]
                ())
             ~build:(fst family) ())
    in
    let idx, vls =
      (run kernel (Svector.sparse_view u) : int array * a array)
    in
    Sparse (idx, vls)
  end

let apply_chain_v dt ~chain u = to_entries (apply_chain_raw dt ~chain u)
let apply_v dt f u = apply_chain_v dt ~chain:[ f ] u

let ewise_mult_reduce_v (type a) (dt : a Dtype.t) ~op ~monoid_op ~identity
    (u : a Svector.t) (v : a Svector.t) : a =
  (* eWiseMult feeding a scalar reduce in one kernel (the nonblocking
     engine's mult∘reduce rewrite): the intersection's values are folded
     in ascending index order, so the result is bit-identical to the
     unfused pipeline.  Closure only. *)
  check_pair `Mult u v;
  let dense = dense_pair `Mult u v in
  let build () =
    let monoid = monoid_prelude dt ~op:monoid_op ~identity in
    if dense then begin
      let module M = Loops.Ewise_mult_dense ((val binop_prelude dt op)) in
      let module R = Loops.Reduce_dense ((val monoid)) in
      Obj.repr (fun arg -> R.kernel (M.kernel arg))
    end
    else begin
      let module M = Loops.Ewise_mult ((val binop_prelude dt op)) in
      let module R = Loops.Reduce ((val monoid)) in
      Obj.repr (fun arg ->
          let _, vls = (Obj.obj (M.kernel arg) : int array * a array) in
          R.kernel (Obj.repr (vls, Array.length vls)))
    end
  in
  let kernel : Obj.t -> Obj.t =
    Obj.obj
      (Dispatch.get
         (Kernel_sig.make ~op:"ewise_mult_reduce_v" ~dtypes:(dtypes dt)
            ~operators:
              [ ("op", op); ("monoid", monoid_op); ("identity", identity) ]
            ~formats:
              (if dense then [ ("u", "dense"); ("v", "dense") ] else [])
            ())
         ~build ())
  in
  if dense then
    let uvls, uocc = Svector.dense_view u and vvls, vocc = Svector.dense_view v in
    run kernel (uvls, uocc, vvls, vocc)
  else run kernel (sparse_pair_arg u v)

let reduce_v_scalar (type a) (dt : a Dtype.t) ~op ~identity (u : a Svector.t) :
    a =
  if dense_operand u then
    reduce_v_scalar_dense dt ~op ~identity (Svector.dense_view u)
  else begin
    let kernel =
      get
        (Kernel_sig.make ~op:"reduce_v_scalar" ~dtypes:(dtypes dt)
           ~operators:[ ("op", op); ("identity", identity) ]
           ())
        (monoid_family dt ~op ~identity (module Loops.Reduce) Loops.reduce)
    in
    let _, vls, n = Svector.sparse_view u in
    run kernel (vls, n)
  end

(* The same entry points with the result as a fresh vector (the DSL's
   temporaries): a dense result stays dense, no entry round trip. *)
module Vector = struct
  let mxv (type a) (dt : a Dtype.t) sr ?(direction = `Auto)
      ?(mask = Mask.No_vmask) ~transpose m (u : a Svector.t) : a Svector.t =
    to_svector dt
      (out_size ~vxm:false ~transpose m)
      (product ~vxm:false dt sr ~direction ~mask ~transpose m u)

  let vxm (type a) (dt : a Dtype.t) sr ?(direction = `Auto)
      ?(mask = Mask.No_vmask) ~transpose (u : a Svector.t) m : a Svector.t =
    to_svector dt
      (out_size ~vxm:true ~transpose m)
      (product ~vxm:true dt sr ~direction ~mask ~transpose m u)

  let ewise kind dt ~op u v =
    to_svector dt (Svector.size u) (ewise_raw kind dt ~op u v)

  let ewise_fused kind dt ~op ~chain u v =
    to_svector dt (Svector.size u) (ewise_fused_raw kind dt ~op ~chain u v)

  let apply_chain dt ~chain u =
    to_svector dt (Svector.size u) (apply_chain_raw dt ~chain u)

  let apply dt f u = apply_chain dt ~chain:[ f ] u
end

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
       [out] is empty, so it adopts the kernel's matrix without a copy *)
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
        let nrows, ncols = Smatrix.shape a in
        let out =
          if transpose_a then Smatrix.create dt ncols nrows
          else Smatrix.create dt nrows ncols
        in
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
  (* the apply body over the stored values: A's CSR arrays, or for the
     transposed result its CSC side, which is the CSR of Aᵀ *)
  let kernel =
    get
      (Kernel_sig.make ~op:"apply_m" ~dtypes:(dtypes dt)
         ~operators:[ ("f", Op_spec.unary_name f) ]
         ~flags:(if transpose then [ "transpose_a" ] else [])
         ())
      (unary_family dt [ f ] (module Loops.Apply) Loops.apply)
  in
  let ptr, ids, vals, nrows, ncols =
    if transpose then
      ( Smatrix.unsafe_colptr a,
        Smatrix.unsafe_rowidx a,
        Smatrix.unsafe_cvals a,
        Smatrix.ncols a,
        Smatrix.nrows a )
    else
      ( Smatrix.unsafe_rowptr a,
        Smatrix.unsafe_colidx a,
        Smatrix.unsafe_values a,
        Smatrix.nrows a,
        Smatrix.ncols a )
  in
  let colidx, values =
    (run kernel (ids, vals, Smatrix.nvals a) : int array * a array)
  in
  Smatrix.of_csr_unsafe dt ~nrows ~ncols ~rowptr:(Array.copy ptr) ~colidx
    ~values

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
    Obj.repr (fun (a : a Smatrix.t) -> Apply_reduce.row_reductions ~transpose m a)
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
