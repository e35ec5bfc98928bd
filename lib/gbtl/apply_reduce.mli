(** [apply] (unary map over stored entries) and [reduce] (monoid fold to a
    vector or a scalar) — Table I rows apply / reduce. *)

val apply_vector :
  ?mask:Mask.vmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  'a Unaryop.t ->
  out:'a Svector.t ->
  'a Svector.t ->
  unit
(** [w<m,z> = w ⊙ f(u)]. *)

val apply_matrix :
  ?mask:Mask.mmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  ?transpose:bool ->
  'a Unaryop.t ->
  out:'a Smatrix.t ->
  'a Smatrix.t ->
  unit

val reduce_rows :
  ?mask:Mask.vmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  ?transpose:bool ->
  'a Monoid.t ->
  out:'a Svector.t ->
  'a Smatrix.t ->
  unit
(** [w<m,z> = w ⊙ [⊕_j A(:,j)]] — row-wise reduction (column-wise with
    [transpose]).  Rows with no stored entries produce no output entry. *)

val row_reductions : ?transpose:bool -> 'a Monoid.t -> 'a Smatrix.t -> 'a Entries.t
(** The raw result of {!reduce_rows}: [(r, ⊕_j A(r,j))] for every row
    [r] with stored entries, ascending, each fold seeded with the
    monoid's identity. *)

val reduce_vector_scalar : ?accum:'a Binop.t -> ?init:'a -> 'a Monoid.t -> 'a Svector.t -> 'a
(** [s = s ⊙ [⊕_i u(i)]]; [init] is the prior value of [s] (meaningful
    with [accum]); without entries the monoid identity is returned. *)

val reduce_matrix_scalar : ?accum:'a Binop.t -> ?init:'a -> 'a Monoid.t -> 'a Smatrix.t -> 'a
