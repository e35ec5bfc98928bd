val reload : unit -> unit
(** No-op: nothing is calibrated.  Kept for bench/e2e/jitenv.ml, whose
    [empty_memory] calls it between passes. *)
