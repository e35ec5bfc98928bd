(** Typed kernel entry points: each call keys a {!Kernel_sig}, obtains the
    (closure- or natively-compiled) kernel from {!Dispatch}, and marshals
    GraphBLAS containers across the ABI boundary.

    The vector family goes through the array ABI and has native codegen;
    the matrix family wraps the GBTL operations as closure kernels (the
    signature still flows through the cache, so dispatch statistics count
    every operation). *)

open Gbtl

val mxv :
  'a Dtype.t ->
  Op_spec.semiring ->
  ?direction:[ `Auto | `Pull | `Push ] ->
  transpose:bool ->
  'a Smatrix.t ->
  'a Svector.t ->
  'a Entries.t
(** Raw result [T = A ⊕.⊗ u] as entries; masking/accumulation happen in
    the caller's write step.  The loop follows the operand: a dense [u]
    runs the dense bodies ({!vxm_pull_dense}'s gather, {!vxm_dense}'s
    scatter) on its arrays, a sparse one the sparse gather/scatter, and
    [u] is never converted.  With [transpose] and the format layer on,
    a dense operand (the fill rules make a vector dense at ≥ 1/4 of a
    size-≥32 vector) pulls over the CSC side, a sparse one scatters
    along the CSR rows; results are bit-identical.  [direction]
    (default [`Auto], the operand's layout) lets the plan optimizer
    force pull or push for the transposed product; it is ignored when
    [transpose] is false.
    @raise Dimension_mismatch when [u] does not fit [A]. *)

val mxv_pull_masked :
  'a Dtype.t ->
  Op_spec.semiring ->
  visited:bool array ->
  'a Smatrix.t ->
  'a array * bool array ->
  'a Entries.t
(** Direction-optimized [Aᵀ ⊕.⊗ u] over the CSC side: output positions
    with [visited.(c)] set are skipped (the result is already
    complement-masked), the frontier arrives as a dense
    (values, occupancy) pair, and each column's gather exits early when
    the semiring's ⊕ saturates (BFS's lor; non-saturating monoids gather
    exhaustively).  The all-array ABI compiles natively. *)

val vxm :
  'a Dtype.t ->
  Op_spec.semiring ->
  transpose:bool ->
  'a Svector.t ->
  'a Smatrix.t ->
  'a Entries.t
(** [T = u ⊕.⊗ A] ({!mxv}'s loops with ⊗'s operands swapped); [u A]
    gathers over the CSC side under the same rule as [Aᵀ u]. *)

val vxm_dense :
  'a Dtype.t ->
  Op_spec.semiring ->
  'a array * bool array ->
  'a Smatrix.t ->
  'a array * bool array
(** [u ⊕.⊗ A] with a dense operand and dense result, as a CSR scatter —
    the PageRank iteration's layout (no compaction between steps). *)

val vxm_pull_dense :
  'a Dtype.t ->
  Op_spec.semiring ->
  'a array * bool array ->
  'a Smatrix.t ->
  'a array * bool array
(** [u ⊕.⊗ A] in pull form over the cached CSC side; bit-identical to
    {!vxm_dense}.  Preferable when the CSC build is amortized over many
    products against the same matrix (PageRank's iteration). *)

val vxm_tile_acc :
  'a Dtype.t ->
  Op_spec.semiring ->
  tile_tag:string ->
  r0:int ->
  c0:int ->
  'a Smatrix.t ->
  'a array * bool array ->
  'a array * bool array ->
  unit
(** Tile continuation of {!vxm_pull_dense}: fold one CSR tile (placed at
    global offset [(r0, c0)]) into the caller's global dense
    (values, occupancy) accumulator in place, reading the tile's cached
    CSC side.  [tile_tag] (e.g. ["512x512"], {!Gbtl.Tmatrix.format_tag})
    rides in the signature's formats field, so each tiling caches its
    own compiled module.  Streaming every tile of a block column in
    ascending block-row order is bit-identical to {!vxm_pull_dense} on
    the untiled matrix — the out-of-core streaming product. *)

val ewise_v :
  [ `Add | `Mult ] ->
  'a Dtype.t ->
  op:string ->
  'a Svector.t ->
  'a Svector.t ->
  'a Entries.t

val ewise_fused_v :
  [ `Add | `Mult ] ->
  'a Dtype.t ->
  op:string ->
  chain:Op_spec.unary list ->
  'a Svector.t ->
  'a Svector.t ->
  'a Entries.t
(** One kernel (one compiled module) for a whole deferred chain
    [apply fk (... (a ⊕ b))]; [chain] innermost-first.  The signature
    carries the entire chain, so each distinct pipeline is its own cached
    module — the granularity trade-off the paper discusses in §V. *)

val apply_v : 'a Dtype.t -> Op_spec.unary -> 'a Svector.t -> 'a Entries.t

val apply_chain_v :
  'a Dtype.t -> chain:Op_spec.unary list -> 'a Svector.t -> 'a Entries.t
(** One kernel for a whole apply chain over a vector ([chain]
    innermost-first) — the nonblocking engine's apply∘apply fusion. *)

val ewise_mult_reduce_v :
  'a Dtype.t ->
  op:string ->
  monoid_op:string ->
  identity:string ->
  'a Svector.t ->
  'a Svector.t ->
  'a
(** [reduce (u ⊗ v)] in one pass: the eWiseMult intersection kernel's
    output folded with the monoid without materializing the intermediate
    vector — the nonblocking engine's mult∘reduce fusion.  Two dense
    operands run the dense bodies. *)

val reduce_v_scalar :
  'a Dtype.t -> op:string -> identity:string -> 'a Svector.t -> 'a

(** {2 Fresh-vector results}

    {!mxv}, {!vxm}, {!ewise_v}, {!ewise_fused_v}, {!apply_v} and
    {!apply_chain_v} with the result as a fresh vector — the DSL's
    temporaries.  A dense operand yields a dense result (eWiseAdd: either
    operand; eWiseMult: both), with no entry round trip; the format
    layer's fill rules ({!Svector.settle}) then settle its layout. *)

module Vector : sig
  val mxv :
    'a Dtype.t ->
    Op_spec.semiring ->
    ?direction:[ `Auto | `Pull | `Push ] ->
    ?mask:Mask.vmask ->
    transpose:bool ->
    'a Smatrix.t ->
    'a Svector.t ->
    'a Svector.t
  (** [mask] (default none) goes into the loop: a pull gathers the
      allowed outputs only ({!mxv_pull_masked}'s body, with its early
      exit for a saturating ⊕), a push filters its scatter.  The result
      holds exactly the allowed entries of the product.
      @raise Dimension_mismatch when the mask does not fit the result. *)

  val vxm :
    'a Dtype.t ->
    Op_spec.semiring ->
    ?direction:[ `Auto | `Pull | `Push ] ->
    ?mask:Mask.vmask ->
    transpose:bool ->
    'a Svector.t ->
    'a Smatrix.t ->
    'a Svector.t

  val ewise :
    [ `Add | `Mult ] ->
    'a Dtype.t ->
    op:string ->
    'a Svector.t ->
    'a Svector.t ->
    'a Svector.t

  val ewise_fused :
    [ `Add | `Mult ] ->
    'a Dtype.t ->
    op:string ->
    chain:Op_spec.unary list ->
    'a Svector.t ->
    'a Svector.t ->
    'a Svector.t

  val apply : 'a Dtype.t -> Op_spec.unary -> 'a Svector.t -> 'a Svector.t

  val apply_chain :
    'a Dtype.t -> chain:Op_spec.unary list -> 'a Svector.t -> 'a Svector.t
end

(** {2 Dense-vector kernel variants}

    Operands and results are [(values, occupancy)] pairs; signatures
    carry [formats] entries (["u"/"v" -> "dense"]) so these cache
    separately from the sparse kernels.  Entry-for-entry identical
    results. *)

val ewise_v_dense :
  [ `Add | `Mult ] ->
  'a Dtype.t ->
  op:string ->
  'a array * bool array ->
  'a array * bool array ->
  'a array * bool array

val apply_v_dense :
  'a Dtype.t -> Op_spec.unary -> 'a array * bool array -> 'a array * bool array

val apply_chain_dense :
  'a Dtype.t ->
  Op_spec.unary list ->
  'a array * bool array ->
  'a array * bool array
(** {!apply_v_dense} over a whole chain (innermost first); the chain's
    [;]-joined name is the ["f"] operator of the signature. *)

val reduce_v_scalar_dense :
  'a Dtype.t -> op:string -> identity:string -> 'a array * bool array -> 'a

val mxm :
  'a Dtype.t ->
  Op_spec.semiring ->
  transpose_a:bool ->
  transpose_b:bool ->
  mask:Mask.mmask ->
  'a Smatrix.t ->
  'a Smatrix.t ->
  'a Smatrix.t
(** Fresh result matrix (pruned by the mask's structure when profitable);
    the caller's write step applies the full mask semantics. *)

val ewise_m :
  [ `Add | `Mult ] ->
  'a Dtype.t ->
  op:string ->
  transpose_a:bool ->
  transpose_b:bool ->
  'a Smatrix.t ->
  'a Smatrix.t ->
  'a Smatrix.t

val apply_m : 'a Dtype.t -> Op_spec.unary -> transpose:bool -> 'a Smatrix.t -> 'a Smatrix.t

val reduce_rows :
  'a Dtype.t ->
  op:string ->
  identity:string ->
  transpose:bool ->
  'a Smatrix.t ->
  'a Entries.t

val reduce_m_scalar :
  'a Dtype.t -> op:string -> identity:string -> 'a Smatrix.t -> 'a

val transpose_m : 'a Dtype.t -> 'a Smatrix.t -> 'a Smatrix.t
