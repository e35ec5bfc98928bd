(** The kernel algorithms on raw arrays — the bodies that dynamic
    compilation specializes.  The closure backend instantiates these with
    operator closures; the native backend's generated source is the
    monomorphized text of the same algorithms ({!Codegen}).

    ABI conventions (what crosses the [Obj.t] boundary):
    - a sparse vector is [(indices, values, nvals)], indices ascending;
    - a CSR matrix is [(rowptr, colidx, values)];
    - results come back as exactly-sized [(indices, values)] pairs. *)

type 'a ventry = int array * 'a array * int
type 'a csr = int array * int array * 'a array

val mxv :
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  dummy:'a ->
  nrows:int ->
  ncols:int ->
  transpose:bool ->
  'a csr ->
  'a ventry ->
  int array * 'a array
(** [w = A ⊕.⊗ u] (or [Aᵀ ⊕.⊗ u]); output size is [nrows] ([ncols] when
    transposed). *)

val mxv_pull_masked :
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  dummy:'a ->
  stop:('a -> bool) ->
  ncols:int ->
  visited:bool array ->
  'a csr ->
  'a array * bool array ->
  int array * 'a array
(** Masked pull with a dense frontier: output positions with
    [visited.(c)] set are skipped (the result is already complement-
    masked), and each column's gather exits early once [stop acc] holds —
    [stop] must only hold when ⊕ can no longer change the accumulator
    (constant-false is always sound). *)

val vxm_pull_dense :
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  dummy:'a ->
  ncols:int ->
  'a csr ->
  'a array * bool array ->
  'a array * bool array
(** [w = u ⊕.⊗ A] in pull form over the CSC arrays of [A] (passed as
    [(colptr, rowidx, cvals)]); dense operand, dense result.
    Bit-identical to [vxm_dense]. *)

val vxm_dense :
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  dummy:'a ->
  nrows:int ->
  ncols:int ->
  'a array * bool array ->
  'a csr ->
  'a array * bool array
(** [w = u ⊕.⊗ A] with a dense operand and dense (values, occupancy)
    result. *)

val vxm_tile_acc :
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  r0:int ->
  c0:int ->
  tncols:int ->
  'a csr ->
  'a array * bool array ->
  'a array * bool array ->
  unit
(** Tile continuation of {!vxm_pull_dense}: fold one tile's CSC arrays
    (tile-local indices; [r0]/[c0] place it globally) into the caller's
    global (values, occupancy) accumulator {e in place}, seeding each
    column from the value already accumulated.  Streaming a block
    column's tiles in ascending block-row order therefore reproduces the
    full-matrix column fold exactly — bit-identical even for float ⊕. *)

val vxm :
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  dummy:'a ->
  nrows:int ->
  ncols:int ->
  transpose:bool ->
  'a ventry ->
  'a csr ->
  int array * 'a array

val mxm_gustavson :
  add:('a -> 'a -> 'a) ->
  mul:('a -> 'a -> 'a) ->
  dummy:'a ->
  nrows_a:int ->
  ncols_b:int ->
  'a csr ->
  'a csr ->
  int array * int array * 'a array
(** Row-wise SPA product [C = A ⊕.⊗ B]; result as CSR
    (rowptr, colidx, values). *)

val ewise_add_v :
  op:('a -> 'a -> 'a) -> 'a ventry -> 'a ventry -> int array * 'a array

val ewise_mult_v :
  op:('a -> 'a -> 'a) -> 'a ventry -> 'a ventry -> int array * 'a array

val apply_v : f:('a -> 'a) -> 'a ventry -> int array * 'a array

val reduce_v : op:('a -> 'a -> 'a) -> identity:'a -> 'a ventry -> 'a

(** {2 Dense-vector variants}

    Operands and results are [(values, occupancy)] pairs of equal
    length; unoccupied output slots hold [dummy].  Entry-for-entry
    identical to the sparse kernels above. *)

val ewise_add_dense :
  op:('a -> 'a -> 'a) ->
  dummy:'a ->
  'a array * bool array ->
  'a array * bool array ->
  'a array * bool array

val ewise_mult_dense :
  op:('a -> 'a -> 'a) ->
  dummy:'a ->
  'a array * bool array ->
  'a array * bool array ->
  'a array * bool array

val apply_dense :
  f:('a -> 'a) -> dummy:'a -> 'a array * bool array -> 'a array * bool array

val reduce_dense :
  op:('a -> 'a -> 'a) -> identity:'a -> 'a array * bool array -> 'a
