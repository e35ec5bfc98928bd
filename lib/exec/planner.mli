(** The plan optimizer.

    {!optimize} applies {!Rewrite.run_with} under the pinned schedule
    ({!pin}, else [OGB_SCHEDULE]) or, without a pin, the greedy default,
    and stamps the plan's [schedule_desc].

    The rewritten plan is cached per DAG shape.  The key holds every
    node's op with its parameters, kind and deps, each leaf's kind,
    dtype, shape and (vectors) density, the sink mask's kind, dtype,
    shape and complement flag, the format and fusion toggles, the pinned
    schedule and whether a verifier is installed.  A repeated shape
    binds the new leaves and mask into a copy of the cached plan; the
    rewrite passes and their per-stage verifications do not run again.
    Plans holding index sets or select predicates are never cached.  The
    cache holds no container, has a fixed capacity and is safe to share
    between domains. *)

val optimize : Plan.t -> Plan.t
(** Optimize a freshly lowered plan and return the plan to execute:
    the argument itself, rewritten in place, when its shape is new (or
    uncacheable), else a fresh copy of the cached plan bound to the
    argument's leaves and mask, carrying the same rewrite events. *)

val pin : Cost.Schedule.t option -> unit
(** Programmatic schedule pin (the CLI's [--schedule]); [None] returns
    control to [OGB_SCHEDULE], else the greedy default. *)

val pinned : unit -> Cost.Schedule.t option
(** Effective pin: the programmatic one, else [OGB_SCHEDULE]. *)

val counters : unit -> (string * int) list
(** Since startup: [searches] (rewrite-pipeline runs: cache misses and
    uncacheable plans), [cache_hits] (plans bound from the cache) and
    [pinned] (plans optimized under a pin). *)

val clear_cache : unit -> unit
(** Empty the shape cache: the next force of every shape runs the
    pipeline again. *)
