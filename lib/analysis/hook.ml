let to_effects_strategy = function
  | Races.Prebuild -> Effects.Prebuild
  | Races.Edge -> Effects.Edge

(* The effect analysis is mandatory but must degrade loudly rather than
   take the pipeline down with it: a hazard verdict propagates (that is
   the analysis doing its job), anything else — including the armed
   ["analysis.effects.exn"] chaos fault — is reported on stderr and
   counted, and the plan runs unchecked. *)
let run_effects fix_races plan ~stage =
  try
    Jit.Jit_stats.record_effects_check ();
    if Fault.fire "analysis.effects.exn" then
      raise (Fault.Injected "analysis.effects.exn");
    match fix_races with
    | Some strategy ->
      let found =
        Effects.remedy ~strategy:(to_effects_strategy strategy) plan
      in
      Jit.Jit_stats.record_effects_hazard ~count:(List.length found);
      (match Effects.find plan with
      | [] -> ()
      | remaining ->
        raise (Effects.Effect_hazard { stage; hazards = remaining }))
    | None ->
      (* verify-only mode: surface the count, let the caller decide *)
      Jit.Jit_stats.record_effects_hazard
        ~count:(List.length (Effects.find plan))
  with
  | Effects.Effect_hazard _ as e -> raise e
  | e ->
    Jit.Jit_stats.record_effects_degraded ();
    Printf.eprintf
      "ogb: effect analysis degraded at %s (plan runs unchecked): %s\n%!"
      stage (Printexc.to_string e)

let checker fix_races plan ~stage =
  Verify.check ~stage plan;
  if stage = "pre-schedule" then run_effects fix_races plan ~stage

let install ?(fix_races = Some Races.Prebuild) () =
  Exec.Verify_hook.install (checker fix_races)

let uninstall () = Exec.Verify_hook.uninstall ()
