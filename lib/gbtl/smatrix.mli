(** Sparse GraphBLAS matrix.  CSR (compressed sparse row) is the
    canonical, always-present side; a CSC side — the same entries in
    column-major order, equivalently the CSR of the transpose — is built
    on demand by {!ensure_csc} and cached until the next mutation.
    Column-oriented consumers ({!extract_col}, transpose-mxv pull
    dispatch, unmasked transposed mxm) read the cached CSC arrays
    instead of rescanning the CSR side or materializing a transpose.

    Stored entries are explicit; row entries are kept in ascending column
    order.  Point mutation ([set]/[remove]) rebuilds the affected arrays
    and is O(nvals); bulk construction goes through {!of_coo}.

    Pattern sharing: a result that keeps an operand's pattern (an apply,
    a product with a diagonal, an element-wise op over one shared
    pattern) holds the operand's own [rowptr]/[colidx] arrays and only
    new values.  Structure writes are therefore copy-on-write: [set]
    (insert), [remove] and [clear] replace the structure arrays rather
    than write them, and no other writer touches them.  Values are not
    shared (outside the read-only {!unsafe_transpose_view}). *)

type 'a t

exception Dimension_mismatch of string
(** Rebinding of {!Error.Dim_mismatch}: every dimension conformance
    failure across gbtl raises this one exception. *)

exception Index_out_of_bounds of string

val create : 'a Dtype.t -> int -> int -> 'a t
(** [create dt nrows ncols] — empty matrix. *)

val dtype : 'a t -> 'a Dtype.t
val nrows : 'a t -> int
val ncols : 'a t -> int
val shape : 'a t -> int * int
val nvals : 'a t -> int

val csc_cached : 'a t -> bool
val rep_name : 'a t -> string
(** ["csr"] or ["csr+csc"] — the format component kernels put in their
    {!Jit.Kernel_sig} cache keys. *)

val ensure_csr : 'a t -> unit
(** CSR is always present; provided for API symmetry with
    {!ensure_csc}. *)

val ensure_csc : 'a t -> unit
(** Build and cache the CSC side if absent (O(nvals + ncols) counting
    sort).  Invalidated by any mutation. *)

val of_coo :
  ?dup:'a Binop.t -> 'a Dtype.t -> int -> int -> (int * int * 'a) list -> 'a t
(** Build from (row, col, value) triples; duplicates combined with [dup]
    (default last-wins). @raise Index_out_of_bounds *)

val of_dense : 'a Dtype.t -> 'a array array -> 'a t
(** Stores every element including zeros (PyGB's copy-from-nested-list). *)

val of_dense_drop_zeros : 'a Dtype.t -> 'a array array -> 'a t

val of_rows_unsafe : 'a Dtype.t -> nrows:int -> ncols:int -> 'a Entries.t array -> 'a t
(** Trusted builder from per-row sorted entries; [Entries.t array] must
    have length [nrows]. *)

val of_csr_unsafe :
  'a Dtype.t ->
  nrows:int ->
  ncols:int ->
  rowptr:int array ->
  colidx:int array ->
  values:'a array ->
  'a t
(** Adopts well-formed CSR arrays without copying (kernel results).
    [rowptr]/[colidx] may be another matrix's (pattern sharing); [values]
    must belong to the new matrix alone. *)

val get : 'a t -> int -> int -> 'a option
val get_exn : 'a t -> int -> int -> 'a
val mem : 'a t -> int -> int -> bool
val set : 'a t -> int -> int -> 'a -> unit
val remove : 'a t -> int -> int -> unit
val clear : 'a t -> unit
val dup : 'a t -> 'a t

val adopt : 'a t -> 'a t -> unit
(** [adopt dst src] makes [src]'s arrays [dst]'s storage without
    copying (same shape required); [src] must be fresh, a kernel's
    result whose values no other container shares (its structure may be
    an operand's), and is not used afterwards.
    The matrix twin of {!Svector.adopt}. @raise Dimension_mismatch *)

val row_nvals : 'a t -> int -> int
val iter_row : (int -> 'a -> unit) -> 'a t -> int -> unit
(** [iter_row f m r] applies [f col value] over row [r]. *)

val fold_row : ('acc -> int -> 'a -> 'acc) -> 'acc -> 'a t -> int -> 'acc
val row_entries : 'a t -> int -> 'a Entries.t
val extract_row : 'a t -> int -> 'a Svector.t

val extract_col : 'a t -> int -> 'a Svector.t
(** Served from the cached CSC side (builds it on first use). *)

val col_nvals : 'a t -> int -> int
val iter_col : (int -> 'a -> unit) -> 'a t -> int -> unit
(** [iter_col f m c] applies [f row value] over column [c] in ascending
    row order (via the cached CSC side). *)

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> int -> int -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_coo : 'a t -> (int * int * 'a) list
val to_dense : fill:'a -> 'a t -> 'a array array
val transpose : 'a t -> 'a t
(** Fresh matrix — copies of the cached CSC arrays (built on first
    use). *)

val unsafe_transpose_view : 'a t -> 'a t
(** Zero-copy transpose: a matrix whose CSR arrays {e are} the cached
    CSC arrays of the original (and vice versa).  Strictly read-only —
    mutating either matrix afterwards corrupts the other. *)

val cast : into:'b Dtype.t -> 'a t -> 'b t

val filter : 'a t -> f:(int -> int -> 'a -> bool) -> 'a t
(** The entries [(r, c, x)] with [f r c x], in one walk over the rows;
    [f] is called once per stored entry, in storage order. *)

val map : 'a t -> f:('a -> 'a) -> 'a t
val map_inplace : 'a t -> f:('a -> 'a) -> unit
val equal : 'a t -> 'a t -> bool
val pp : Format.formatter -> 'a t -> unit

(** {2 Direct CSR access for kernels}

    The returned arrays are the live internal buffers: only the first
    [nvals] cells of [colidx]/[values] are meaningful, and they must not
    be mutated by callers. *)

val unsafe_rowptr : 'a t -> int array
val unsafe_colidx : 'a t -> int array
val unsafe_values : 'a t -> 'a array

val unsafe_colptr : 'a t -> int array
val unsafe_rowidx : 'a t -> int array
val unsafe_cvals : 'a t -> 'a array
(** CSC-side counterparts; each builds and caches the CSC side if
    absent.  Same read-only contract. *)
