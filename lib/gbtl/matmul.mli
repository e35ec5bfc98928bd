(** The matrix-multiply family over an arbitrary semiring: [mxv], [vxm],
    [mxm] (Table I).  Absent entries are the semiring's additive identity
    implicitly; products are accumulated with the additive monoid.

    Kernels: Gustavson row-wise SPA for unmasked [mxm]; for masked [mxm]
    with [transpose_b], a dot kernel that computes only mask-allowed
    outputs (the access pattern masked triangle counting depends on):
    row i of A is scattered into a position marker once, then each
    allowed B(j,:) is walked against it.  A masked product with no
    accumulator whose output is empty or replaced is installed as the
    kernel's result, without the write step.  Scatter/gather SPA
    kernels serve [mxv]/[vxm].  Input transposition falls back to
    materializing the transpose where no cheaper dual formulation
    exists. *)

val mxv :
  ?mask:Mask.vmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  ?transpose_a:bool ->
  'a Semiring.t ->
  out:'a Svector.t ->
  'a Smatrix.t ->
  'a Svector.t ->
  unit
(** [w<m,z> = w ⊙ (A ⊕.⊗ u)].  @raise Smatrix.Dimension_mismatch *)

val vxm :
  ?mask:Mask.vmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  ?transpose_a:bool ->
  'a Semiring.t ->
  out:'a Svector.t ->
  'a Svector.t ->
  'a Smatrix.t ->
  unit
(** [w<m,z> = w ⊙ (u ⊕.⊗ A)]. *)

val mxm :
  ?mask:Mask.mmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  ?transpose_a:bool ->
  ?transpose_b:bool ->
  'a Semiring.t ->
  out:'a Smatrix.t ->
  'a Smatrix.t ->
  'a Smatrix.t ->
  unit
(** [C<M,z> = C ⊙ (A ⊕.⊗ B)]. *)
