(* Inversion point for the static plan verifier.  lib/analysis (which
   depends on this library, so it cannot be called directly) installs a
   checker here; the rewrite pipeline invokes it on the freshly lowered
   plan and again after every pass (once per DAG shape: the planner
   replays the result for later forces), and the executor invokes it
   on every force just before scheduling.  A checker signals a defect
   by raising — the exception propagates out of Rewrite.run /
   Exec.force, so a fusion pass that breaks shape/dtype inference is
   rejected as a miscompile instead of executing. *)

let hook : (Plan.t -> stage:string -> unit) option ref = ref None

let install f = hook := Some f
let uninstall () = hook := None
let installed () = Option.is_some !hook

let run plan ~stage =
  match !hook with None -> () | Some f -> f plan ~stage
