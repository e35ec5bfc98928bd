(** Static plan verifier: shape/dtype inference over {!Exec.Plan} DAGs.

    {!infer} mirrors {!Exec.Plan.execute_node} rule for rule — matrix
    and vector dimensions through transposes, operand dtype promotion,
    mask kind/shape agreement, operator instantiation at the inferred
    dtype — but without running any kernel, so a malformed plan is
    rejected before execution instead of failing (or silently reading
    out of bounds, as an untyped [mxv] would) mid-schedule.

    {!check} additionally compares the inference against the last
    snapshot taken for the same plan value: the rewrite pipeline calls
    it after every fusion pass (through {!Exec.Verify_hook}), so a pass
    that changes a surviving node's inferred shape or dtype — a
    miscompile — is rejected with a diagnostic naming the stage and
    node. *)

type shape = S_vec of int | S_mat of int * int | S_scalar

type info = { shape : shape; dtype : Gbtl.Dtype.packed }

exception Verify_error of { stage : string; node : int; message : string }
(** A static defect: [node] is the plan node id the defect anchors to,
    [stage] the pipeline stage that observed it ("lower",
    "sink_transpose", ..., "pre-schedule", or "query" outside the
    pipeline). *)

val shape_to_string : shape -> string
val info_to_string : info -> string
val equal_info : info -> info -> bool

val message : exn -> string option
(** [Some rendered] for {!Verify_error}, [None] otherwise. *)

val infer : ?stage:string -> Exec.Plan.t -> (int, info) Hashtbl.t
(** Infer shape and dtype for every reachable node, in topological
    order.  @raise Verify_error on the first defect. *)

val root_info : ?stage:string -> Exec.Plan.t -> info
(** Inference for the plan's root, after checking the whole DAG and the
    sink mask. *)

val check : stage:string -> Exec.Plan.t -> unit
(** Full verification pass: {!infer}, sink-mask agreement, and
    comparison against the previous stage's snapshot of the same plan
    (dropped again once the ["pre-schedule"] stage passes).
    @raise Verify_error *)

val check_infer : stage:string -> Exec.Plan.t -> (int, info) Hashtbl.t
(** {!check}, returning the inference it made (for callers that analyze
    the same plan next, as the effects stage does). *)

val report : Exec.Plan.t -> string
(** Human-readable per-node inference listing (CLI [analyze]). *)
