(** OCaml source generation for native kernels — the analogue of PyGB's
    templated [operation_binding.cpp] instantiated through [-D] defines
    (paper Fig. 9).  Generated modules are self-contained except for the
    {!Jit_plugin_api.register} call that hands the kernel to the host.

    Codegen covers the vector-kernel family (mxv, vxm, eWiseAdd/Mult,
    apply, reduce) over the [double], [int64_t] and [bool] dtypes — the
    kernels the paper's four benchmark algorithms are built from.  Other
    combinations return [None] and dispatch falls back to the closure
    backend. *)

val supported_dtype : string -> bool

val binop_expr : dtype:string -> string -> string option
(** OCaml source text of a named binary operator at a dtype. *)

val identity_expr : dtype:string -> string -> string option
val unary_expr : dtype:string -> Op_spec.unary -> string option

val mxv_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option

val vxm_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option

val mxv_pull_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option
(** CSC pull dispatch of [Aᵀ ⊕.⊗ u] — same gather body as {!mxv_source}
    (the wrapper passes the CSC arrays with swapped dimensions), keyed
    separately by the signature's formats field. *)

val vxm_dense_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option
(** Scatter product with a dense frontier; result is a dense
    (values, occupancy) pair. *)

val vxm_pull_dense_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option
(** Pull form of the dense-frontier product over the CSC arrays; result
    is a dense (values, occupancy) pair, bit-identical to
    {!vxm_dense_source}. *)

val vxm_tile_acc_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option
(** Tile continuation of the pull product: folds one tile's CSC columns
    into the caller's global (values, occupancy) accumulator in place.
    Keyed per tile shape through the signature's formats field. *)

val mxv_pull_masked_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option
(** Masked CSC pull with a dense frontier, a validity bitmap as the
    complemented mask, and per-column early exit for saturating ⊕ (a
    constant-false exit predicate otherwise). *)

val ewise_source :
  kind:[ `Add | `Mult ] -> dtype:string -> op:string -> key:string ->
  string option

val ewise_fused_source :
  kind:[ `Add | `Mult ] ->
  dtype:string ->
  op:string ->
  chain:Op_spec.unary list ->
  key:string ->
  string option
(** A {e single} compiled module for [apply fk (... (apply f1 (a ⊕ b)))]
    — the paper's §V "series of operations deferred until a single binary
    module containing all of them is compiled".  [chain] is
    innermost-first. *)

val mxm_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option
(** Gustavson row-wise SPA product (unmasked; masked products use the
    closure backend's dot kernel). *)

val apply_source :
  dtype:string -> f:Op_spec.unary -> key:string -> string option

val reduce_source :
  dtype:string -> op:string -> identity:string -> key:string -> string option

(** {2 Dense-vector variants} — operands and results are
    [(values, occupancy)] array pairs. *)

val ewise_dense_source :
  kind:[ `Add | `Mult ] -> dtype:string -> op:string -> key:string ->
  string option

val apply_dense_source :
  dtype:string -> f:Op_spec.unary -> key:string -> string option

val reduce_dense_source :
  dtype:string -> op:string -> identity:string -> key:string -> string option

