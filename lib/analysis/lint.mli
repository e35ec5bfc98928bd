(** The analysis side of [ogb lint]: effect-system self-tests over
    seeded fixture plans (a CSC-cache hazard, a representation hazard, an
    aliased-operand hazard, and a hazard-free control — all lowered and
    planned by the real pipeline).  The CLI aggregates these with the
    daemon's {!Server.Audit} and exits nonzero on any finding. *)

type finding = { area : string; detail : string }

val describe : finding -> string

val run : unit -> finding list
(** Empty on a healthy tree. *)
