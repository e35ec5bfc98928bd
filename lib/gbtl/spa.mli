(** Sparse accumulator (SPA) for Gustavson-style matrix kernels: a dense
    value buffer plus an occupancy flag array and a touched list, so that
    clearing between rows costs O(touched) instead of O(n). *)

type 'a t

val create : int -> dummy:'a -> 'a t
(** [dummy] initializes the dense buffer; never observable. *)

val size : 'a t -> int
val occupied : 'a t -> int -> bool
val get : 'a t -> int -> 'a
(** Undefined unless [occupied]. *)

val set : 'a t -> int -> 'a -> unit
(** Insert or overwrite. *)

val accumulate : 'a t -> int -> 'a -> add:('a -> 'a -> 'a) -> unit
(** [set] if vacant, combine with [add] otherwise. *)

val count : 'a t -> int
(** Number of occupied slots. *)

val iter_sorted : (int -> 'a -> unit) -> 'a t -> unit
(** [iter_sorted f s] applies [f index value] to the occupied slots in
    ascending index order, allocating nothing when the touched list has
    room to sort in place: a scan of the occupancy flags when at least
    an eighth of the slots are occupied, an in-place sort of the touched
    list otherwise. *)

val extract : 'a t -> 'a Entries.t
(** Occupied (index, value) pairs in ascending index order. *)

val clear : 'a t -> unit
(** O(number of touched slots). *)
