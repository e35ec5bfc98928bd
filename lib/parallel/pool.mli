(** Shared, lazily-started domain pool for inter-op parallelism: the
    helper domains the nonblocking exec scheduler runs ready plan nodes
    on.  Kernels never split across domains; each runs sequentially on
    the domain that executes its node.

    Sized by [OGB_DOMAINS] (helper domains = domains − 1; the caller is
    the remaining worker). *)

val domains : unit -> int
(** Resolved domain budget: programmatic override, else [OGB_DOMAINS],
    else [min 4 (Domain.recommended_domain_count ())].  The environment
    is read on the first call that needs it; later changes to
    [OGB_DOMAINS] are not seen. *)

val set_domains : int -> unit
(** Override the domain budget (clamped to ≥ 1).  The pool resizes
    lazily on the next use. *)

val clear_domains_override : unit -> unit

type handle
(** Completion handle for {!spawn_helpers}. *)

val spawn_helpers : int -> (unit -> unit) -> handle
(** Offer up to [k] copies of a worker function to idle pool domains
    (the exec scheduler's inter-op workers).  Fewer (possibly zero) may
    actually start when the pool is busy or smaller; the function must
    be written so the caller completes all work alone in that case. *)

val join : handle -> unit
(** Wait until every actually-started helper has returned. *)

val counters : unit -> (string * int) list
(** Helper activity since startup:
    - [par_jobs]: {!spawn_helpers} calls granted at least one helper;
    - [seq_jobs]: {!spawn_helpers} calls granted none (the caller ran
      every node alone — a single-domain budget or a busy pool);
    - [chunks]: helper tasks run to completion. *)

val busy_seconds : unit -> float
(** Cumulative monotonic time spent inside helper tasks (all helper
    domains). *)
