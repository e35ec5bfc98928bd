(** Deferred expression objects (paper §IV "deferred operator
    evaluation").

    Building an expression captures the operators currently in context —
    a [+] built under [with_ops [binary "Minus"]] stays a Minus even if
    evaluated later — and no kernel runs until the expression reaches a
    terminating operation: assignment into a container ({!Ops.set} /
    {!Ops.update}), {!force}, or a scalar reduce.  Assignment-site
    evaluation is what lets the output's mask reach the product kernels
    (the triangle-counting [B[L] = L @ L.T] optimization, BFS's
    [frontier[~levels] = graph.T @ frontier]). *)

exception Eval_error of string

type t =
  | Leaf of Container.t
  | Transpose of t
  | MatMul of { a : t; b : t; sr : Jit.Op_spec.semiring }
  | EwiseAdd of { a : t; b : t; op : string }
  | EwiseMult of { a : t; b : t; op : string }
  | Apply of { f : Jit.Op_spec.unary; x : t }
  | ReduceRows of { op : string; identity : string; x : t }
  | ExtractVec of { x : t; idx : Gbtl.Index_set.t }
  | ExtractMat of { x : t; rows : Gbtl.Index_set.t; cols : Gbtl.Index_set.t }
  | Select of { pred : Gbtl.Select.predicate; x : t }

val of_container : Container.t -> t

(** {2 Constructors that capture the operator context} *)

val matmul : t -> t -> t
(** [A @ B] with the nearest semiring. *)

val add : t -> t -> t
(** [A + B] (eWiseAdd) with the nearest binary operator. *)

val mult : t -> t -> t
(** [A * B] (eWiseMult). *)

val transpose : t -> t
val apply : ?f:Jit.Op_spec.unary -> t -> t
(** [gb.apply(x)]; operator from context unless given. *)

val reduce_rows : t -> t
(** Row-reduce a matrix to a vector with the context monoid. *)

val extract_vec : t -> Gbtl.Index_set.t -> t
val extract_mat : t -> Gbtl.Index_set.t -> Gbtl.Index_set.t -> t

val select : Gbtl.Select.predicate -> t -> t
(** Keep only the entries satisfying the predicate (GrB_select; an
    extension beyond the paper's Table I). *)

(** {2 Evaluation} *)

type mask_spec = { container : Container.t; complemented : bool }

val force : ?mask:mask_spec -> t -> Container.t
(** Evaluate to a fresh container.  The optional mask reaches a
    top-level product: a matrix mask prunes [Mat×Mat] by structure, a
    vector mask of the result's size goes into [mat×vec]/[vec×mat] (it
    does {e not} apply write-mask semantics — that is the caller's write
    step).  Under [Exec_hook.Nonblocking] with an engine installed,
    evaluation goes through the plan/fuse/schedule pipeline of
    [lib/exec] instead of the recursive evaluator; results are
    identical. *)

val force_masked : ?mask:mask_spec -> t -> Container.t * bool
(** {!force}, also saying whether the mask went into the kernel: when it
    did, the result holds only mask-allowed entries and a write with no
    accumulator into a replaced or empty target may install it as it
    is. *)

val force_blocking : ?mask:mask_spec -> t -> Container.t
(** The seed's eager recursive evaluator, regardless of mode.  The
    nonblocking engine uses it as its reference semantics. *)

val force_blocking_masked : ?mask:mask_spec -> t -> Container.t * bool
(** {!force_blocking} with {!force_masked}'s flag. *)

val product :
  ?mask:mask_spec ->
  ?direction:[ `Auto | `Pull | `Push ] ->
  Jit.Op_spec.semiring ->
  Container.t * bool ->
  Container.t * bool ->
  Container.t * bool
(** [product ?mask sr (a, ta) (b, tb)] is the [MatMul] step on evaluated
    operands (each with its transpose flag), as both evaluators run it;
    the flag is {!force_masked}'s.  [direction] pins the transposed
    mat×vec product's pull/push choice (default: the fill rule). *)

val reduce_scalar : t -> float
(** Terminating scalar reduce with the context monoid, cast to float. *)

val reduce_scalar_blocking : op:string -> identity:string -> t -> float
(** Eager scalar reduce with an explicit monoid, regardless of mode. *)

val result_dtype : t -> Gbtl.Dtype.packed
(** The dtype the expression evaluates at (operand promotion, paper §V). *)

val unify : Gbtl.Dtype.packed -> Container.t -> Container.t
(** Cast to the given dtype when it differs (no copy otherwise). *)

val borrows_container : t -> bool
(** Does evaluating the expression hand back a user's container (a leaf,
    possibly under transposes) rather than a fresh one? *)

val set_fusion : bool -> unit
(** Toggle operation fusion: with fusion on (default), [apply] over a
    computed sub-expression maps the operator over the temporary in
    place — one fewer kernel dispatch and container per chain (the
    paper's §V planned lazy-evaluation improvement).  Semantics are
    unchanged either way. *)

val fusion : unit -> bool
