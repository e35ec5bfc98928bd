(** Fusion passes over the plan DAG.  Each pass rewrites node ops and
    edges only — per-node semantics stay those of the blocking
    evaluator, so the optimized plan computes bit-identical results.
    Producer-into-consumer fusions are gated on the producer having a
    single consumer ({!Plan.refcounts}). *)

val sink_transpose : Plan.t -> unit
(** Absorb [Transpose] nodes into consumer kernel flags (matmul, ewise,
    apply, reduce-rows, matrix extract), erase vector and double
    transposes; mirrors the blocking evaluator's operand absorption. *)

val fuse_apply_chain : Plan.t -> unit
(** apply∘apply → one [ApplyChain] (one compiled kernel for vectors). *)

val fuse_apply_ewise : Plan.t -> unit
(** apply-chain over a vector ewise → one [EwiseApply] kernel (the
    blocking evaluator's fused-module gate, applied DAG-wide). *)

val fuse_mult_reduce : Plan.t -> unit
(** scalar reduce over vector eWiseMult → one [EwiseMultReduce] pass
    with no intermediate vector. *)

val push_mask : Plan.t -> unit
(** Move the sink's write mask into the producing root Mat×Mat matmul,
    exactly when the blocking evaluator would. *)

val select_layout : ?schedule:Cost.Schedule.t -> Plan.t -> unit
(** When the format layer is on ([Gbtl.Format_stats.enabled]), annotate
    transposed Mat×Vec matmuls with the CSC dispatch the kernel will
    use ({!Plan.layout}).  The schedule's pull/push pin wins; [Auto]
    refines by the fill heuristic when the vector operand's fill ratio
    is known at planning time.  Records [csc_dispatch] and
    [dir_pull]/[dir_push] events. *)

val run_with : ?schedule:Cost.Schedule.t -> Plan.t -> unit
(** The pipeline under a schedule: transpose sinking, then (when
    {!Ogb.Expr.fusion} is enabled) the three fusion passes, mask
    push-down, layout selection, and dead-node elimination — each pass
    gated on its schedule rule (all enabled in the default schedule).
    The installed {!Verify_hook} re-checks the plan after every pass. *)

val run : Plan.t -> unit
(** [run_with] under the default (greedy, all-passes-on) schedule. *)
