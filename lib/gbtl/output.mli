(** The masked, accumulated output-write step shared by every GraphBLAS
    operation (C API §2.4; paper §II):

    {v C<M, z> = C ⊙ T v}

    where [T] is the operation's raw result, [⊙] an optional accumulator,
    [M] the mask and [z] the replace flag.  Semantics:

    - [Z = T] without an accumulator, or the structural union of [C] and
      [T] (combining shared positions with the accumulator) with one;
    - at mask-allowed positions, [C] becomes exactly [Z] (including the
      {e removal} of [C] entries absent from [Z]);
    - at masked-out positions, [C] keeps its entries ("merge") unless
      [replace] is set, in which case they are cleared. *)

val merge_with :
  ('a -> 'a -> 'a) -> 'a Entries.t -> 'a Entries.t -> 'a Entries.t
(** [merge_with f c t] — structural union; shared indices combined as
    [f c_value t_value]. *)

val masked_entries :
  allowed:(int -> bool) ->
  accum:('a -> 'a -> 'a) option ->
  replace:bool ->
  c:'a Entries.t ->
  t:'a Entries.t ->
  'a Entries.t
(** Pure form of the write step on one index space (a vector, or one
    matrix row).  [allowed] is queried at strictly ascending indices, so
    a cursor such as {!Mask.m_row_cursor} may serve it. *)

val write_vector :
  mask:Mask.vmask ->
  accum:'a Binop.t option ->
  replace:bool ->
  out:'a Svector.t ->
  t:'a Entries.t ->
  unit
(** Applies {!masked_entries} against [out]'s current contents and stores
    the result in place.  @raise Svector.Dimension_mismatch on mask size
    mismatch. *)

val write_svector :
  mask:Mask.vmask ->
  accum:'a Binop.t option ->
  replace:bool ->
  out:'a Svector.t ->
  t:'a Svector.t ->
  unit
(** {!write_vector} for a result held in a vector, in either layout;
    [t] is only read.  When [out] or [t] is dense the write runs in
    place over [out]'s dense arrays, with no entry merge, and the fill
    rules ({!Svector.settle}) then pick [out]'s layout.
    @raise Svector.Dimension_mismatch on a mask or result size
    mismatch. *)

val write_matrix :
  mask:Mask.mmask ->
  accum:'a Binop.t option ->
  replace:bool ->
  out:'a Smatrix.t ->
  t:'a Entries.t array ->
  unit
(** Row-wise write step; [t] has one entry sequence per output row.
    A masked write merges each row against the mask row's CSR. *)

val write_smatrix :
  mask:Mask.mmask ->
  accum:'a Binop.t option ->
  replace:bool ->
  out:'a Smatrix.t ->
  t:'a Smatrix.t ->
  unit
(** {!write_matrix} for a result held in a matrix.  [t] must be fresh
    (no container shares its arrays) and is not used afterwards: with
    no mask and no accumulator it becomes [out]'s storage without a
    copy ({!Smatrix.adopt}).
    @raise Smatrix.Dimension_mismatch on a mask or result shape
    mismatch. *)
