(** Nonblocking execution engine.

    In [Blocking] mode (the default) terminating operations evaluate
    expression trees eagerly, exactly as before.  Under
    [with_mode Nonblocking] they instead lower into a {!Plan} DAG with
    common-subexpression sharing, run the {!Rewrite} passes through
    the {!Planner} (the greedy pipeline or a pinned schedule, once per
    DAG shape), and
    execute the nodes in topological order on the caller's domain
    ({!Scheduler}) — producing bit-identical containers.

    Loading this module registers the engine with the core library
    ({!Ogb.Exec_hook}), which is what lets [Ops.set]/[update] and
    [Expr.force] divert here without a dependency cycle. *)

module Plan = Plan
module Rewrite = Rewrite
module Planner = Planner
module Scheduler = Scheduler
module Trace = Trace
module Verify_hook = Verify_hook
module Iterate = Iterate

type mode = Ogb.Exec_hook.mode = Blocking | Nonblocking

val mode : unit -> mode
val set_mode : mode -> unit

val with_mode : mode -> (unit -> 'a) -> 'a
(** [with_mode m f] runs [f] with the execution mode set to [m],
    restoring the previous mode afterwards (exception-safe). *)

val set_containment : bool -> unit
(** Enable/disable execution-failure containment (default on; the
    environment variable [OGB_EXEC_CONTAINMENT=0] disables it at
    startup).  With containment on, a scheduler failure makes
    {!force}/{!reduce} fall back to the blocking eager evaluator instead
    of raising.  Plan-verifier
    rejections always propagate regardless of this setting. *)

val containment_enabled : unit -> bool

val force : ?mask:Ogb.Expr.mask_spec -> Ogb.Expr.t -> Ogb.Container.t
(** Lower, optimize, and execute an expression destined for a container
    sink.  This is what [Expr.force] calls in [Nonblocking] mode. *)

val reduce : op:string -> identity:string -> Ogb.Expr.t -> float
(** Lower, optimize, and execute an expression terminated by a scalar
    monoid reduction. *)

val plan_force : ?mask:Ogb.Expr.mask_spec -> Ogb.Expr.t -> Plan.t
(** The optimized plan {!force} would execute (for tests and the CLI
    plan dump). *)

val plan_reduce : op:string -> identity:string -> Ogb.Expr.t -> Plan.t

val explain : ?mask:Ogb.Expr.mask_spec -> Ogb.Expr.t -> string
val explain_reduce : op:string -> identity:string -> Ogb.Expr.t -> string

val last_trace : unit -> Trace.t option
(** Trace of the most recent nonblocking run in this domain. *)
