(** [assign] — Table I: writing a container or a scalar into a selected
    region of the output ([C<M,z>(i,j) = C(i,j) ⊙ A] and friends).

    GrB_assign semantics: the mask spans the {e whole} output (not just
    the region), the region's old entries not covered by the source are
    deleted (unless an accumulator is given), and [replace] clears
    masked-out entries everywhere in the output.  Target indices must be
    duplicate-free. *)

val vector :
  ?mask:Mask.vmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  out:'a Svector.t ->
  'a Svector.t ->
  Index_set.t ->
  unit
(** [vector ~out u idx] — [w<m,z>(idx) = u]; [u] has length [length idx]. *)

val vector_scalar :
  ?mask:Mask.vmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  out:'a Svector.t ->
  'a ->
  Index_set.t ->
  unit
(** Sets every selected position to the scalar (the BFS
    [levels<frontier> = depth] idiom).

    Over [Index_set.All] the region is never materialized.  With a
    non-complemented mask and no [replace], only the mask's positions
    change: a dense output that stays dense ({!Svector.stays_dense}) is
    updated in place in O(|M|) (O(n) to scan a dense mask), a sparse one
    by one merge of its entries with the mask's, O(|C| + |M|).  With
    [replace] the result is that merge restricted to the mask.  Without
    a mask, or with a complemented one, the cost is one ordered O(n)
    walk of the output.  The result, layout included, equals the generic
    region overlay that [List]/[Range] index sets take. *)

val matrix :
  ?mask:Mask.mmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  out:'a Smatrix.t ->
  'a Smatrix.t ->
  Index_set.t ->
  Index_set.t ->
  unit

val matrix_scalar :
  ?mask:Mask.mmask ->
  ?accum:'a Binop.t ->
  ?replace:bool ->
  out:'a Smatrix.t ->
  'a ->
  Index_set.t ->
  Index_set.t ->
  unit
