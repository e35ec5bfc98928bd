(** Structural/value selection — the GrB_select family (GraphBLAS 1.3),
    an extension beyond the paper's operation set.  Keeps the entries
    satisfying a predicate; everything else is dropped.  [tril]/[triu]
    generalize {!Utilities.lower_triangle}; [value_*] predicates are what
    k-truss-style algorithms prune with. *)

type predicate =
  | Tril of int  (** keep entries with [col - row <= k] *)
  | Triu of int  (** keep entries with [col - row >= k] *)
  | Diag
  | Offdiag
  | Nonzero
  | Value_gt of float
  | Value_ge of float
  | Value_lt of float
  | Value_le of float
  | Value_eq of float
  | Value_ne of float

val matrix :
  ?mask:Mask.mmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  predicate ->
  out:'a Smatrix.t ->
  'a Smatrix.t ->
  unit
(** [C<M,z> = C ⊙ select(pred, A)]; value predicates compare through a
    float view of the dtype. *)

val vector :
  ?mask:Mask.vmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  predicate ->
  out:'a Svector.t ->
  'a Svector.t ->
  unit
(** Positional predicates treat the index as the column with row 0. *)

val accepts : 'a Dtype.t -> predicate -> int -> int -> 'a -> bool
(** [accepts dt pred] is the per-entry test [matrix] and [vector] run:
    [accepts dt pred r c x] keeps the entry [(r, c, x)].  The predicate
    and the dtype's conversion are resolved when it is applied to
    [dt] and [pred]. *)
