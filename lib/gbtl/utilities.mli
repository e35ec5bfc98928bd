(** Helpers GBTL ships outside the core operation set; the paper's
    PageRank uses [normalize_rows], triangle counting uses the triangular
    splits. *)

val normalize_rows : float Smatrix.t -> unit
(** Scale each row so its stored values sum to 1 (rows with zero sum are
    left untouched).  In place. *)

val normalize_cols : float Smatrix.t -> unit

val filter_matrix : 'a Smatrix.t -> (int -> int -> bool) -> 'a Smatrix.t
(** The entries whose position satisfies the predicate ({!Smatrix.filter}
    on positions). *)

val lower_triangle : ?strict:bool -> 'a Smatrix.t -> 'a Smatrix.t
(** Entries with [col <= row] ([col < row] when [strict], the default is
    [strict = true] as triangle counting needs the strict part). *)

val upper_triangle : ?strict:bool -> 'a Smatrix.t -> 'a Smatrix.t

val identity : 'a Dtype.t -> int -> 'a Smatrix.t
(** n×n identity with the dtype's one. *)

val diag : 'a Svector.t -> 'a Smatrix.t
(** Square matrix with the vector on the diagonal. *)

val row_degrees : 'a Smatrix.t -> int array
(** Stored entries per row. *)
