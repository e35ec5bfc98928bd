(** Index arguments of [extract]/[assign]: the C API's [GrB_ALL], explicit
    index arrays, and Python-slice-style ranges (what PyGB's [2:4]
    subscripts lower to). *)

type t =
  | All
  | List of int array
  | Range of { start : int; stop : int }  (** half-open [start, stop) *)

exception Invalid_index of string

val length : t -> int -> int
(** [length t dim] — number of selected indices against dimension [dim]. *)

val resolve : t -> int -> int array
(** Materialize the selected indices.  @raise Invalid_index if any index
    falls outside [0, dim) or a range is malformed. *)

val check_no_duplicates : int array -> unit
(** @raise Invalid_index on duplicates — assign targets must be unique.
    Indices must be non-negative; costs O(length + max index). *)

val resolve_unique : t -> int -> int array
(** {!resolve}, then {!check_no_duplicates} for [List] ([All] and
    [Range] are duplicate-free by construction) — the target set of an
    assign. *)

val pp : Format.formatter -> t -> unit
