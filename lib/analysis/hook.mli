(** Wiring the analyzer into the execution engine.

    {!install} registers a checker with {!Exec.Verify_hook}, so the
    nonblocking pipeline runs {!Verify.check} at the ["lower"] stage
    and after each rewrite pass of every plan the planner rewrites (a
    DAG shape's first force; later forces replay the cached result,
    see {!Exec.Planner}), and at ["pre-schedule"] on every force.

    The {!Effects} stage is mandatory at ["pre-schedule"] and reuses the
    verifier's inference from that stage.  With a remedy strategy
    (default {!Effects.Prebuild}) hazards are repaired in place and any
    survivor raises {!Effects.Effect_hazard}; with
    [fix_races = None] hazards are counted ({!Jit.Jit_stats}) but
    execution proceeds — the caller asked to observe, not to fix.

    Any non-hazard exception out of the analysis (including the armed
    ["analysis.effects.exn"] fault point) degrades loudly: one stderr
    line, one degraded-counter tick, and the plan runs unchecked. *)

val install : ?fix_races:Effects.strategy option -> unit -> unit
(** [fix_races] defaults to [Some Effects.Prebuild]; pass [None] to
    verify/observe only (hazards still counted). *)

val uninstall : unit -> unit
