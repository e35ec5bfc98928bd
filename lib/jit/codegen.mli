(** OCaml source generation for native kernels — the analogue of PyGB's
    templated [operation_binding.cpp] instantiated through [-D] defines
    (paper Fig. 9).  A plugin is a per-signature prelude binding the
    names of {!Loop_sig} to operator literals, followed by one kernel
    family's loop text from {!Loops} (the same text the closure backend
    instantiates as a functor).  Generated modules are self-contained
    except for the {!Jit_plugin_api.register} call that hands the kernel
    to the host.

    Operator literals exist for the [double], [int64_t] and [bool]
    dtypes; any other dtype or an unknown operator yields [None], and
    dispatch falls back to the closure backend. *)

val binop_expr : dtype:string -> string -> string option
(** OCaml source text of a named binary operator at a dtype. *)

val identity_expr : dtype:string -> string -> string option
val unary_expr : dtype:string -> Op_spec.unary -> string option

val saturates : dtype:string -> string -> bool
(** [saturates ~dtype add_op]: once an accumulator of this ⊕ is truthy
    (nonzero, true), no further term can change it.  The masked pull's
    early exit ([sat_]) rests on it, in both backends. *)

val semiring_source :
  ?swap:bool ->
  ?sat:bool ->
  dtype:string ->
  sr:Op_spec.semiring ->
  key:string ->
  string ->
  string option
(** Plugin for a semiring family's loop text ({!Loop_sig.SEMIRING}).
    [swap] binds [mul_] with its operands swapped, which turns the mxv
    loops into vxm's; [sat] also binds [sat_]
    ({!Loop_sig.SATURATING}). *)

val mxv_source :
  dtype:string -> sr:Op_spec.semiring -> key:string -> string option
(** [semiring_source] of the matrix-vector family ({!Loops.matvec}). *)

val op_source :
  ?op:string ->
  ?identity:string ->
  ?f:Op_spec.unary list ->
  dtype:string ->
  key:string ->
  string ->
  string option
(** Plugin for an elementwise, apply or reduce family's loop text: binds
    [op_], [identity_] and [f_] (the composition of the chain [f],
    innermost first) as given, and [zero_]. *)
