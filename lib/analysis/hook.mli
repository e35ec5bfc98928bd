(** Wiring the analyzer into the execution engine.

    {!install} registers a checker with {!Exec.Verify_hook}, so the
    nonblocking pipeline runs {!Verify.check} on every plan at the
    ["lower"] stage, after each rewrite pass, and at ["pre-schedule"].

    The {!Effects} stage is mandatory at ["pre-schedule"].  With a
    remedy strategy (default {!Races.Prebuild}) hazards are repaired in
    place and any survivor raises {!Effects.Effect_hazard}; with
    [fix_races = None] hazards are counted ({!Jit.Jit_stats}) but
    execution proceeds — the caller asked to observe, not to fix.

    Any non-hazard exception out of the analysis (including the armed
    ["analysis.effects.exn"] fault point) degrades loudly: one stderr
    line, one degraded-counter tick, and the plan runs unchecked. *)

val install : ?fix_races:Races.strategy option -> unit -> unit
(** [fix_races] defaults to [Some Races.Prebuild]; pass [None] to
    verify/observe only (hazards still counted). *)

val uninstall : unit -> unit
