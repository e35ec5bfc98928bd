(** Write masks.

    A mask is another container whose stored values, coerced to booleans,
    select which output positions an operation may write (paper §II).  The
    complement flag inverts the selection, and absence of a mask allows
    every position. *)

(** Vector masks come in two layouts: a dense boolean array (O(1)
    membership, O(size) to build) and a sorted array of truthy indices
    (O(nvals) to build, O(log nvals) membership).  {!vmask} picks the
    sparse layout for low-fill vectors of at least 64 elements when
    {!Format_stats.enabled} is set — the frontier-mask case in BFS —
    and the dense layout otherwise. *)
type vmask =
  | No_vmask
  | Vmask of { dense : bool array; complemented : bool }
  | Vmask_sparse of { size : int; idx : int array; complemented : bool }

(** Matrix masks stay sparse (a boolean CSR of coerced values). *)
type mmask =
  | No_mmask
  | Mmask of { m : bool Smatrix.t; complemented : bool }

val vmask : ?complemented:bool -> 'a Svector.t -> vmask
(** Coerce a vector of any dtype into a mask. *)

val mmask : ?complemented:bool -> 'a Smatrix.t -> mmask

val v_allowed : vmask -> int -> bool

val v_cursor : vmask -> (int -> bool)
(** [v_cursor mask] — {!v_allowed} for queries at non-decreasing
    positions: a sparse mask is walked by one cursor, so a sweep costs
    one merge, not a binary search per query. *)

val v_check_size : vmask -> int -> unit
(** @raise Svector.Dimension_mismatch if the mask length differs. *)

val m_check_shape : mmask -> int -> int -> unit

val m_row_cursor : mmask -> int -> (int -> bool)
(** [m_row_cursor mask r] — membership predicate for row [r] that must be
    queried at non-decreasing columns: it advances one cursor through the
    mask row's CSR, so a sweep over a row costs one merge, not a binary
    search per query. *)
