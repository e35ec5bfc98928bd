(* Nonblocking execution engine (paper §V's planned lazy-evaluation
   mode): terminating operations lower the deferred expression into a
   plan DAG (CSE), run multi-op fusion rewrites, and execute ready nodes
   on a domain pool.  Registers itself with the core library's
   Exec_hook so Ops.set/update and Expr.force divert here when the mode
   is Nonblocking. *)

module Plan = Plan
module Rewrite = Rewrite
module Planner = Planner
module Scheduler = Scheduler
module Trace = Trace
module Verify_hook = Verify_hook
module Iterate = Iterate

type mode = Ogb.Exec_hook.mode = Blocking | Nonblocking

let mode = Ogb.Exec_hook.mode
let set_mode = Ogb.Exec_hook.set_mode
let with_mode = Ogb.Exec_hook.with_mode

let last_trace_ref = ref None
let last_trace () = !last_trace_ref

let plan_force ?mask e =
  let p = Plan.of_expr ?mask e in
  Planner.optimize p;
  p

let plan_reduce ~op ~identity e =
  let p = Plan.of_expr_reduce ~op ~identity e in
  Planner.optimize p;
  p

(* Failure containment (last rung of the degradation ladder): when the
   scheduler fails even after its own sequential re-run, re-evaluate the
   expression on the blocking eager path, which shares no scheduler or
   native-compilation state with the engine.  Scoped to execution only —
   plan-construction and verifier failures still propagate, because a
   rejected plan is a miscompile to report, not a fault to absorb. *)
let containment =
  ref
    (match Sys.getenv_opt "OGB_EXEC_CONTAINMENT" with
    | Some ("0" | "off" | "false") -> false
    | _ -> true)

let set_containment b = containment := b
let containment_enabled () = !containment

(* The flag says whether the write mask went into the root product
   ([Rewrite.push_mask] took it off the sink), as {!Ogb.Expr.force_masked}
   reports it for the blocking evaluator. *)
let force_masked ?mask e =
  let p = plan_force ?mask e in
  let pushed = mask <> None && p.Plan.sink_mask = None in
  Verify_hook.run p ~stage:"pre-schedule";
  match Scheduler.run p with
  | Plan.V_cont c, trace ->
    last_trace_ref := Some trace;
    (c, pushed)
  | Plan.V_scal _, _ -> invalid_arg "Exec.force: plan produced a scalar"
  | exception ex when !containment ->
    Jit.Jit_stats.record_blocking_fallback ();
    ignore ex;
    Ogb.Expr.force_blocking_masked ?mask e

let force ?mask e = fst (force_masked ?mask e)

let reduce ~op ~identity e =
  let p = plan_reduce ~op ~identity e in
  Verify_hook.run p ~stage:"pre-schedule";
  match Scheduler.run p with
  | Plan.V_scal s, trace ->
    last_trace_ref := Some trace;
    s
  | Plan.V_cont _, _ -> invalid_arg "Exec.reduce: plan produced a container"
  | exception ex when !containment ->
    Jit.Jit_stats.record_blocking_fallback ();
    ignore ex;
    Ogb.Expr.reduce_scalar_blocking ~op ~identity e

let explain ?mask e = Plan.to_string (plan_force ?mask e)

let explain_reduce ~op ~identity e =
  Plan.to_string (plan_reduce ~op ~identity e)

(* Hook registration: the closures must have exactly the types the core
   library casts them back to (see Exec_hook). *)
let force_hook :
    ?mask:Ogb.Expr.mask_spec -> Ogb.Expr.t -> Ogb.Container.t * bool =
 fun ?mask e -> force_masked ?mask e

let reduce_hook : op:string -> identity:string -> Ogb.Expr.t -> float =
 fun ~op ~identity e -> reduce ~op ~identity e

let () =
  Ogb.Exec_hook.evaluator := Some (Obj.repr force_hook);
  Ogb.Exec_hook.reducer := Some (Obj.repr reduce_hook)
