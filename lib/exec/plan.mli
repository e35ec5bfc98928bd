(** Plan IR for the nonblocking engine: an [Expr.t] tree plus its
    assignment sink lowered into an explicit DAG.  Structurally equal
    subtrees (and physically equal leaf containers) become shared nodes,
    so a value referenced twice in the source expression is computed
    once.  The optimizer ({!Rewrite}) mutates node ops in place; the
    scheduler walks {!topo} order and calls {!execute_node}. *)

open Gbtl

exception Plan_error of string

type kind = K_vec | K_mat | K_scalar

type layout = L_default | L_csc | L_csc_pull | L_csc_push
(** Storage-layout annotation set by [Rewrite.select_layout]: [L_csc*]
    marks a transposed Mat×Vec matmul that will dispatch on the matrix's
    CSC side instead of materializing a transpose; the [_pull]/[_push]
    refinements pin the direction (chosen by the schedule — a pin or the
    leaf operand's layout) and {!execute_node} forces it through the
    kernel's [direction] override.  [L_default]/[L_csc] leave the
    kernel's own layout rule (pull a dense operand) in charge.  Either direction computes
    bit-identical results, so the annotation affects time, never
    values. *)

type op =
  | Leaf of Ogb.Container.t
  | Transpose
  | MatMul of {
      sr : Jit.Op_spec.semiring;
      transpose_a : bool;
      transpose_b : bool;
      masked : Ogb.Expr.mask_spec option;
      layout : layout;
    }
  | Ewise of {
      kind : [ `Add | `Mult ];
      op : string;
      transpose_a : bool;
      transpose_b : bool;
    }
  | ApplyChain of { chain : Jit.Op_spec.unary list; transpose : bool }
      (** [chain] innermost-first, as in {!Jit.Kernels.ewise_fused_v}. *)
  | EwiseApply of {
      kind : [ `Add | `Mult ];
      op : string;
      chain : Jit.Op_spec.unary list;
    }  (** apply∘ewise fused into one kernel (vector operands only). *)
  | EwiseMultReduce of { op : string; monoid_op : string; identity : string }
      (** scalar [reduce (u ⊗ v)] without the intermediate vector. *)
  | ReduceRows of { op : string; identity : string; transpose : bool }
  | ReduceScalar of { op : string; identity : string }
  | ExtractVec of Index_set.t
  | ExtractMat of { rows : Index_set.t; cols : Index_set.t; transpose : bool }
  | Select of Select.predicate

type node = {
  id : int;
  mutable op : op;
  mutable deps : int array;
  mutable kind : kind;
}

type t = {
  tbl : (int, node) Hashtbl.t;
  mutable next : int;
  mutable root : int;
  mutable sink_mask : Ogb.Expr.mask_spec option;
      (** write mask from the assignment sink; {!Rewrite.run} pushes it
          into the producing matmul when the blocking evaluator would. *)
  mutable events : (string * int) list;
  mutable cse_merged : int;
  mutable schedule_desc : string;
      (** serialized schedule the planner applied ("" before planning). *)
}

val of_expr : ?mask:Ogb.Expr.mask_spec -> Ogb.Expr.t -> t
(** Lower an expression destined for a container sink. *)

val of_expr_reduce : op:string -> identity:string -> Ogb.Expr.t -> t
(** Lower an expression terminated by a scalar monoid reduction; the
    reduction becomes the root node. *)

val node : t -> int -> node
val root : t -> node
val size : t -> int

val topo : t -> int list
(** Deterministic topological order (DFS post-order from the root). *)

val refcounts : t -> (int, int) Hashtbl.t
(** Consumer counts per node; the sink counts as one consumer of the
    root.  Rewrites use this to gate fusions to unshared producers. *)

val drop_dead : t -> int
(** Remove nodes unreachable from the root; returns how many died. *)

exception No_key

val key_node : Buffer.t -> node -> unit
(** Append a byte encoding of a node: its op with every parameter (a
    leaf by its dtype, dimensions and, for vectors, layout), its kind
    and its deps.  Two nodes encode alike exactly when lowering and the
    rewrites treat them alike.  @raise No_key for extract and select
    nodes (index sets and closure predicates). *)

val key_mask : Buffer.t -> Ogb.Expr.mask_spec option -> unit
(** Append the mask's presence, complement flag, dtype and
    dimensions. *)

val key_int : Buffer.t -> int -> unit
val key_bool : Buffer.t -> bool -> unit
val key_str : Buffer.t -> string -> unit

val kernel_chain : t -> int list -> bool
(** [kernel_chain plan (topo plan)]: no two non-leaf nodes can run at
    once, because each consumes the one before it in topological order
    (vacuously true for at most one).  Leaves do no work when they run,
    so such a plan has nothing to overlap and nothing to race on. *)

val copy : ?op:(node -> op) -> t -> t
(** A copy with fresh node records and dependency arrays: rewriting or
    adding edges to one never changes the other.  [op] (default: the
    node's own) gives each copied node's op. *)

val events : t -> (string * int) list
val cse_merged : t -> int
val record_event : t -> string -> int -> unit

val op_label : op -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Node execution. *)

type value = V_cont of Ogb.Container.t | V_scal of float

val cont : value -> Ogb.Container.t

val execute_node : t -> node -> value array -> value
(** Evaluate one node given its dependency values (in [deps] order).
    Mirrors the blocking evaluator kernel-for-kernel — same
    {!Jit.Kernel_sig} entries, same entry ordering — and never mutates a
    dependency's value, so CSE-shared results stay valid. *)
