(** The plan optimizer.

    {!optimize} applies {!Rewrite.run_with} under the pinned schedule
    ({!pin}, else [OGB_SCHEDULE]) or, without a pin, the greedy default,
    and stamps the plan's [schedule_desc]. *)

val optimize : Plan.t -> unit
(** Apply and record a schedule for a freshly lowered plan. *)

val pin : Cost.Schedule.t option -> unit
(** Programmatic schedule pin (the CLI's [--schedule]); [None] returns
    control to [OGB_SCHEDULE], else the greedy default. *)

val pinned : unit -> Cost.Schedule.t option
(** Effective pin: the programmatic one, else [OGB_SCHEDULE]. *)

val counters : unit -> (string * int) list
(** [pinned] (plans optimized under a pin), plus [searches] and
    [cache_hits], always 0, which bench/e2e/probes.ml reads. *)

val clear_cache : unit -> unit
(** No-op: there is no schedule cache.  Kept for bench/e2e (jitenv.ml,
    probes.ml). *)
