(** The matrix-multiply family over an arbitrary semiring: [mxv], [vxm],
    [mxm] (Table I).  Absent entries are the semiring's additive identity
    implicitly; products are accumulated with the additive monoid.

    Kernels: Gustavson row-wise SPA for unmasked [mxm]; for masked [mxm]
    with [transpose_b], a dot kernel that computes only mask-allowed
    outputs (the access pattern masked triangle counting depends on):
    row i of A is scattered into a position marker once, then each
    allowed B(j,:) is walked against it; at Int64 with [Plus]/[Times]
    (matched by operator name) an [int]-specialized copy of that walk
    runs, bit-identical to the general one.  A masked product with no
    accumulator whose output is empty or replaced adopts the kernel's
    result ({!Smatrix.adopt}), without the write step or a copy.  Scatter/gather SPA
    kernels serve [mxv]/[vxm].  A transposed matrix operand is read
    through its cached CSC side, never materialized. *)

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
