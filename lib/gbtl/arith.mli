(** Per-dtype primitive arithmetic.

    A single record of monomorphic closures per dtype; the operator
    algebra ({!Binop}, {!Unaryop}, {!Monoid}, {!Semiring}) is built on top
    of it.  Every result is normalized back into the dtype's domain (width
    wrapping / single-precision rounding), mirroring C arithmetic on the
    corresponding POD type.  The normalization is chosen once, when the
    record is built: [Int64] and [FP64] get the plain OCaml operators. *)

type 'a t = {
  dtype : 'a Dtype.t;
  add : 'a -> 'a -> 'a;
  sub : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  div : 'a -> 'a -> 'a;
      (** Integer division by zero yields [zero] (documented deviation: C
          leaves it undefined). *)
  neg : 'a -> 'a;
  min : 'a -> 'a -> 'a;
  max : 'a -> 'a -> 'a;
  eq : 'a -> 'a -> bool;
  lt : 'a -> 'a -> bool;
  to_bool : 'a -> bool;
  of_bool : bool -> 'a;
  zero : 'a;
  one : 'a;
  min_value : 'a;
  max_value : 'a;
}

val make : 'a Dtype.t -> 'a t
