(** GraphBLAS vector with two storage representations: [Sparse] — sorted
    (index, value) arrays, the original layout — and [Dense] — a full
    value array plus a validity bitmap.  Stored entries are explicit — a
    stored zero is distinct from an absent entry, per the GraphBLAS data
    model.  Outputs of operations are written in place (GBTL's
    pass-by-reference convention).

    Logical content is representation-independent: iteration always runs
    in ascending index order over stored entries, and {!equal} compares
    entries, not layouts.  Conversions are explicit ({!densify} /
    {!sparsify}); bulk writes ({!replace_contents}, {!of_dense}, ...)
    auto-switch on fill ratio (dense at ≥ 1/4 fill for sizes ≥ 32, back
    to sparse below 1/16) when {!Format_stats.enabled} is set. *)

type 'a t

exception Dimension_mismatch of string
(** Rebinding of {!Error.Dim_mismatch}: every dimension conformance
    failure across gbtl raises this one exception. *)

exception Index_out_of_bounds of string

val create : 'a Dtype.t -> int -> 'a t
(** Empty vector of the given logical size (sparse representation). *)

val dtype : 'a t -> 'a Dtype.t
val size : 'a t -> int
val nvals : 'a t -> int

val is_dense : 'a t -> bool
val rep_name : 'a t -> string
(** ["sparse"] or ["dense"] — the format component kernels put in their
    {!Jit.Kernel_sig} cache keys. *)

val stays_dense : 'a t -> bool
(** [true] when the vector is dense and a bulk write of its current
    entries ({!replace_contents}) would leave it dense.  Adding entries
    in place then ends in the layout the rebuild would pick. *)

val densify : 'a t -> unit
(** Switch to the dense representation (no-op if already dense);
    O(size). *)

val sparsify : 'a t -> unit
(** Switch to the sorted-pairs representation (no-op if already sparse);
    O(size). *)

val of_coo : ?dup:'a Binop.t -> 'a Dtype.t -> int -> (int * 'a) list -> 'a t
(** Build from coordinate data; duplicates are combined with [dup]
    (default: last one wins, matching GrB_SECOND).
    @raise Index_out_of_bounds *)

val of_dense : 'a Dtype.t -> 'a array -> 'a t
(** Stores every element, including zeros (PyGB's copy-from-list
    constructor). *)

val of_dense_drop_zeros : 'a Dtype.t -> 'a array -> 'a t
(** Stores only elements that are not the dtype's zero — the adjacency
    convention used by the graph converters. *)

val get : 'a t -> int -> 'a option
val get_exn : 'a t -> int -> 'a
(** @raise Not_found *)

val mem : 'a t -> int -> bool
val set : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val clear : 'a t -> unit
val dup : 'a t -> 'a t
(** Same entries, same representation. *)

val replace_contents : 'a t -> 'a Entries.t -> unit
(** Overwrite the stored entries wholesale (used by the output-write
    step); indices must lie within [size].  May auto-densify. *)

val entries : 'a t -> 'a Entries.t
(** Snapshot of the stored entries. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> int -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_alist : 'a t -> (int * 'a) list
val to_dense : fill:'a -> 'a t -> 'a array
val cast : into:'b Dtype.t -> 'a t -> 'b t
val map : 'a t -> f:('a -> 'a) -> 'a t
val map_inplace : 'a t -> f:('a -> 'a) -> unit

val to_bool_dense : 'a t -> bool array
(** Value-coerced truthiness per index (absent = [false]) — the mask
    interpretation of a vector. *)

val equal : 'a t -> 'a t -> bool
(** Same size, same stored positions, same values — independent of the
    representation on either side. *)

val pp : Format.formatter -> 'a t -> unit

(** {2 Direct access for kernels}

    Live internal buffers that must not be mutated by callers.  The
    views never convert the vector: they hand out the live arrays when
    the vector already has the layout asked for and a fresh copy
    otherwise. *)

val sparse_view : 'a t -> int array * 'a array * int
(** [(indices, values, nvals)]: the stored entries in ascending index
    order, the first [nvals] cells meaningful. *)

val dense_view : 'a t -> 'a array * bool array
(** [(values, validity)], both of length [size] (length 1 for size-0
    vectors); values at invalid positions are unspecified. *)

val unsafe_dense : 'a t -> 'a array * bool array
(** Densifies the vector, then returns its live dense arrays — for a
    write target that is about to be rewritten in place. *)

val of_dense_unsafe : 'a Dtype.t -> vals:'a array -> valid:bool array -> 'a t
(** Adopt well-formed dense arrays without copying (kernel results);
    [nvals] is counted from [valid]. @raise Dimension_mismatch *)

val of_sparse_unsafe :
  'a Dtype.t -> int -> idx:int array -> vals:'a array -> nvals:int -> 'a t
(** [of_sparse_unsafe dt size ~idx ~vals ~nvals] adopts sorted entry
    arrays without copying (kernel results); indices must be strictly
    ascending over the first [nvals] cells.
    @raise Dimension_mismatch @raise Index_out_of_bounds *)

val replace_dense_unsafe : 'a t -> vals:'a array -> valid:bool array -> unit
(** Adopt dense arrays (length [size]) as the vector's new contents.
    @raise Dimension_mismatch *)

val settle : 'a t -> unit
(** Apply the fill rules to the current layout when the format layer
    is on: a sparse vector at ≥ 1/4 fill (size ≥ 32) turns dense, a
    dense one below 1/16 turns sparse; anything in between keeps its
    layout. *)

val adopt : 'a t -> 'a t -> unit
(** [adopt v t] makes [t]'s storage [v]'s contents without copying,
    then {!settle}s [v]; [t] must not be used afterwards.
    @raise Dimension_mismatch on a size mismatch. *)
