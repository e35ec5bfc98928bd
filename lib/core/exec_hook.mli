(** Execution-mode switch and planner hooks.

    The nonblocking execution engine lives in [lib/exec], one library
    above this one, so [Expr.force] cannot call it directly.  Instead the
    engine registers evaluator closures here at initialization, and
    [Expr.force] / [Expr.reduce_scalar] divert through them whenever the
    mode is [Nonblocking].  With no engine linked (or in the default
    [Blocking] mode) behavior is exactly the seed's eager evaluator. *)

type mode = Blocking | Nonblocking

val mode : unit -> mode
val set_mode : mode -> unit

val with_mode : mode -> (unit -> 'a) -> 'a
(** Run [f] under the given mode, restoring the previous mode on exit
    (also on exception). *)

val evaluator : Obj.t option ref
(** [?mask:Expr.mask_spec -> Expr.t -> Container.t], installed by
    [Exec]. *)

val reducer : Obj.t option ref
(** [op:string -> identity:string -> Expr.t -> float], installed by
    [Exec]. *)
