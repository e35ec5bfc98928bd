(** Domain-parallel plan execution.  Ready DAG nodes run concurrently on
    a small pool of OCaml domains (work queue + mutex/condvar); with one
    domain the scheduler degrades to a deterministic sequential walk of
    the topological order.  Either way every node is a pure function of
    its dependency values, so results are identical.

    Failure containment: the first node failure cancels every queued
    node, the pool drains and joins, and {!run} re-executes the plan
    sequentially before giving up (the trace's [degraded] flag records
    this).  Failures that survive both attempts surface as located
    {!Node_error} values. *)

exception Node_error of { id : int; label : string; error : exn }
(** A node failure located by plan-node id and operator label. *)

val set_domains : int -> unit
(** Override the worker-domain count for this process (clamped to
    [>= 1]); takes precedence over [OGB_DOMAINS]. *)

val clear_domains_override : unit -> unit

val domain_count : unit -> int
(** The domain budget of the next run: 1 under {!Ogb.Exec_hook.force_sequential}
    (MiniVM re-entrancy), else the {!set_domains} override, else
    [OGB_DOMAINS], else [min 4 (Domain.recommended_domain_count ())]. *)

val run : Plan.t -> Plan.value * Trace.t
(** Execute the (already-optimized) plan and return the root value plus
    the execution trace.  A plan whose kernels form a chain
    ({!Plan.kernel_chain}, e.g. one kernel over leaves) runs on the
    caller without waking pool helpers.  Under a multi-domain budget
    a failure — parallel or such an inline run — counts as a worker
    failure and triggers one sequential re-execution; if that fails too
    the located {!Node_error} is re-raised. *)
