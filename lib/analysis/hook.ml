(* The effect analysis is mandatory but must degrade loudly rather than
   take the pipeline down with it: a hazard verdict propagates (that is
   the analysis doing its job), anything else — including the armed
   ["analysis.effects.exn"] chaos fault — is reported on stderr and
   counted, and the plan runs unchecked. *)
let run_effects fix_races ~infos plan ~stage =
  try
    Jit.Jit_stats.record_effects_check ();
    if Fault.fire "analysis.effects.exn" then
      raise (Fault.Injected "analysis.effects.exn");
    match fix_races with
    | Some strategy -> (
      (* the remedy changes storage and edges, never shapes, so the
         verifier's inference serves both passes; with nothing found
         there is nothing left to re-check *)
      match Effects.remedy ~infos ~strategy plan with
      | [] -> ()
      | found -> (
        Jit.Jit_stats.record_effects_hazard ~count:(List.length found);
        match Effects.find ~infos plan with
        | [] -> ()
        | remaining ->
          raise (Effects.Effect_hazard { stage; hazards = remaining })))
    | None ->
      (* verify-only mode: surface the count, let the caller decide *)
      Jit.Jit_stats.record_effects_hazard
        ~count:(List.length (Effects.find ~infos plan))
  with
  | Effects.Effect_hazard _ as e -> raise e
  | e ->
    Jit.Jit_stats.record_effects_degraded ();
    Printf.eprintf
      "ogb: effect analysis degraded at %s (plan runs unchecked): %s\n%!"
      stage (Printexc.to_string e)

let checker fix_races plan ~stage =
  let infos = Verify.check_infer ~stage plan in
  if stage = "pre-schedule" then run_effects fix_races ~infos plan ~stage

let install ?(fix_races = Some Effects.Prebuild) () =
  Exec.Verify_hook.install (checker fix_races)

let uninstall () = Exec.Verify_hook.uninstall ()
