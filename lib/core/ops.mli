(** Terminating operations: assignment of deferred expressions into
    containers with full mask/accumulate/replace semantics — the DSL's
    [C[M, z] = ...] / [C[None] += ...] forms (Table I, column 3) — plus
    scalar and region assignment and the infix sugar. *)

open Gbtl

type mask = Mask of Container.t | Mask_complement of Container.t
(** [C[m] = ...] vs [C[~m] = ...]; values are coerced to booleans. *)

exception Dsl_error of string

val set : ?mask:mask -> ?replace:bool -> Container.t -> Expr.t -> unit
(** [C[M, z] = expr].  The replace flag defaults to the context's
    [gb.Replace] entry.  The expression result is upcast/downcast into
    [C]'s dtype.  A mask on an [@] expression reaches the product
    kernel (structural pruning for [mxm], the masked pull or a filtered
    push for mat×vec); with no accumulator and [C] replaced or empty,
    that result is installed as it is, without the write step's merge. *)

val update : ?mask:mask -> ?accum:string -> Container.t -> Expr.t -> unit
(** [C[M] += expr] — accumulator from the argument, else the context
    (accumulator entry, or the nearest monoid/semiring's ⊕), else Plus. *)

val assign_scalar :
  ?mask:mask ->
  ?replace:bool ->
  ?rows:Index_set.t ->
  ?cols:Index_set.t ->
  Container.t ->
  float ->
  unit
(** [C[M](I,J) = s] — constant fill over a region (defaults to all
    indices); the BFS [levels<frontier> = depth] and PageRank
    [new_rank[:] = c] idioms. *)

val set_region :
  ?mask:mask ->
  ?replace:bool ->
  ?accum:string ->
  rows:Index_set.t ->
  ?cols:Index_set.t ->
  Container.t ->
  Expr.t ->
  unit
(** [C[M](I,J) = expr] — GrB_assign into a sub-region. *)

val reduce : Expr.t -> float
(** [s = reduce(expr)] with the context monoid (a terminating op). *)

val apply : ?f:Jit.Op_spec.unary -> Expr.t -> Expr.t
val reduce_rows : Expr.t -> Expr.t
val transpose : Expr.t -> Expr.t
val select : Gbtl.Select.predicate -> Expr.t -> Expr.t

module Infix : sig
  val ( !! ) : Container.t -> Expr.t
  (** Lift a container into an expression. *)

  val ( @. ) : Expr.t -> Expr.t -> Expr.t
  (** Matrix multiply (Python's [@]) with the context semiring. *)

  val ( +: ) : Expr.t -> Expr.t -> Expr.t
  (** eWiseAdd with the context binary operator. *)

  val ( *: ) : Expr.t -> Expr.t -> Expr.t
  (** eWiseMult. *)

  val tr : Expr.t -> Expr.t
  (** [A.T]. *)

  val ( ~~ ) : Container.t -> mask
  (** Complemented mask ([C[~m] = ...]). *)

  val mask : Container.t -> mask
end
