(* No-op stub for bench/e2e/jitenv.ml: nothing is calibrated any more. *)
let reload () = ()
