(** Static-verifier hook.

    The analysis library sits above exec in the build graph, so the
    rewrite pipeline cannot call it directly; instead analysis installs
    a checker here and exec invokes it at every stage:

    - ["lower"] — on the freshly lowered plan, before any rewrite;
    - after each pass: ["sink_transpose"], ["apply_chain"],
      ["apply_ewise"], ["mult_reduce"], ["push_mask"],
      ["select_layout"];
    - ["pre-schedule"] — in [Exec.force]/[Exec.reduce], right before the
      domain scheduler starts, on every force.

    The first two run when the planner rewrites a plan, which it does
    once per DAG shape ({!Planner}); a repeated shape replays the
    verified result and is checked at ["pre-schedule"] only.

    A checker reports a defect by raising; the exception aborts the
    pipeline, rejecting the rewrite as a miscompile before any kernel
    runs. *)

val install : (Plan.t -> stage:string -> unit) -> unit
val uninstall : unit -> unit
val installed : unit -> bool

val run : Plan.t -> stage:string -> unit
(** No-op when nothing is installed. *)
