(** Scalar element types of the GraphBLAS containers.

    GraphBLAS (and GBTL) parameterize containers and operations over the
    eleven C plain-old-data types.  We mirror them with a GADT so that a
    kernel specialized at one ['a t] witness is monomorphic, exactly like
    an instantiated C++ template.

    Representation choices (documented deviations in DESIGN.md §10):
    - [Int8]..[Int32] and [UInt8]..[UInt32] are stored in a native [int]
      and wrapped to their width after every arithmetic operation.
    - [Int64] is stored in a native 63-bit [int].
    - [UInt64] is stored in an [int64] with unsigned comparison/division.
    - [FP32] is stored in a [float] and rounded to single precision
      whenever a value is normalized. *)

type _ t =
  | Bool : bool t
  | Int8 : int t
  | Int16 : int t
  | Int32 : int t
  | Int64 : int t
  | UInt8 : int t
  | UInt16 : int t
  | UInt32 : int t
  | UInt64 : int64 t
  | FP32 : float t
  | FP64 : float t

(** Existentially packed dtype, used by the dynamically typed DSL layer. *)
type packed = P : 'a t -> packed

(** Type-equality witness used to unpack existentials safely. *)
type (_, _) eq = Equal : ('a, 'a) eq

val name : _ t -> string
(** Canonical name, matching the C type spelling used in JIT signatures
    (e.g. ["int64_t"], ["double"]). *)

val short_name : _ t -> string
(** Compact name used in cache keys and test labels (e.g. ["i64"]). *)

val of_name : string -> packed
(** Inverse of both {!name} and {!short_name}.
    @raise Invalid_argument on unknown names. *)

val all : packed list
(** The eleven dtypes, in upcast-rank order. *)

val rank : _ t -> int
(** Position in the C usual-arithmetic-conversion order used for automatic
    upcasts: bool < int8 < uint8 < ... < uint64 < float < double. *)

val size_bits : _ t -> int

val is_integral : _ t -> bool
val is_signed : _ t -> bool
val is_float : _ t -> bool

val equal_witness : 'a t -> 'b t -> ('a, 'b) eq option
val equal_packed : packed -> packed -> bool

val promote : packed -> packed -> packed
(** [promote a b] is the common dtype both operands upcast to: the one of
    greater {!rank}. *)

val normalizer : 'a t -> 'a -> 'a
(** [normalizer dt] wraps/rounds a raw value into the dtype's domain
    (sign-extend + mask for small integers, single-precision rounding
    for [FP32], the identity for the other dtypes).  The dtype is
    matched once, when the function is built. *)

val normalize : 'a t -> 'a -> 'a
(** [normalize dt v] is [normalizer dt v]. *)

val caster : from:'a t -> into:'b t -> 'a -> 'b
(** [caster ~from ~into] is the conversion between two dtypes, following
    C conversion rules (truncation towards zero for float->int, wrapping
    for narrowing integer casts).  The pair is matched once, when the
    function is built; loops over many values build it outside. *)

val cast : from:'a t -> into:'b t -> 'a -> 'b
(** [cast ~from ~into v] is [caster ~from ~into v]. *)

val zero : 'a t -> 'a
val one : 'a t -> 'a

val min_value : 'a t -> 'a
(** Most negative representable value ([neg_infinity] for floats). *)

val max_value : 'a t -> 'a
(** Largest representable value ([infinity] for floats). *)

val of_float : 'a t -> float -> 'a
val to_float : 'a t -> 'a -> float

val of_int64 : 'a t -> int64 -> 'a
val to_int64 : 'a t -> 'a -> int64
(** Exact integer view (truncating for floats); with {!to_float} and
    {!of_float} it spells each {!caster} entry one value at a time. *)

val of_int : 'a t -> int -> 'a
val to_bool : 'a t -> 'a -> bool
(** C truthiness: nonzero is [true]. *)

val truths : 'a t -> 'a array -> int -> bool array
(** [truths dt vs n] is {!to_bool} of [vs.(0)] .. [vs.(n-1)], in one
    pass with the dtype matched once. *)

val of_bool : 'a t -> bool -> 'a

val to_string : 'a t -> 'a -> string
val pp_value : 'a t -> Format.formatter -> 'a -> unit

val compare_values : 'a t -> 'a -> 'a -> int
(** Total order consistent with the dtype's arithmetic comparison
    (unsigned for [UInt64]). *)

val equal_values : 'a t -> 'a -> 'a -> bool
