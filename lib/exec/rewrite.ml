(* Multi-op fusion over the plan DAG.  Every pass only rewrites node ops
   and dependency edges — execution semantics per node stay those of the
   blocking evaluator, so the rewritten plan computes bit-identical
   containers.  Fusions that merge a producer into its consumer are
   gated on the producer having exactly one consumer. *)

let record plan name =
  Jit.Jit_stats.record_fusion name;
  plan.Plan.events <-
    (match plan.Plan.events with
    | (n, c) :: rest when n = name -> (n, c + 1) :: rest
    | evs -> (name, 1) :: evs)

(* Replace every use of [old_id] (including the root) with [new_id]. *)
let redirect plan ~old_id ~new_id =
  Hashtbl.iter
    (fun _ n ->
      Array.iteri
        (fun i d -> if d = old_id then n.Plan.deps.(i) <- new_id)
        n.Plan.deps)
    plan.Plan.tbl;
  if plan.Plan.root = old_id then plan.Plan.root <- new_id

(* -- transpose sinking --
   The blocking evaluator absorbs [Transpose] wrappers into kernel flags
   (eval_operand); mirror that here so no transpose materializes unless
   a consumer has no flag for it.  Also erases identity transposes:
   vector transposes and double transposes. *)
let sink_transpose plan =
  let changed = ref true in
  let total = ref 0 in
  let transpose_child n =
    match n.Plan.op with Plan.Transpose -> Some n.Plan.deps.(0) | _ -> None
  in
  while !changed do
    changed := false;
    List.iter
      (fun id ->
        match Hashtbl.find_opt plan.Plan.tbl id with
        | None -> ()
        | Some n -> (
          let dep i = Plan.node plan n.Plan.deps.(i) in
          let absorb i =
            match transpose_child (dep i) with
            | Some child when (dep i).Plan.kind = Plan.K_mat ->
              n.Plan.deps.(i) <- child;
              incr total;
              changed := true;
              true
            | _ -> false
          in
          match n.Plan.op with
          | Plan.Transpose -> (
            let d = dep 0 in
            if d.Plan.kind = Plan.K_vec then begin
              (* vector transpose is the identity *)
              redirect plan ~old_id:id ~new_id:d.Plan.id;
              incr total;
              changed := true
            end
            else
              match transpose_child d with
              | Some grandchild ->
                (* T(T(x)) = x *)
                redirect plan ~old_id:id ~new_id:grandchild;
                incr total;
                changed := true
              | None -> ())
          | Plan.MatMul m ->
            if absorb 0 then
              n.Plan.op <- Plan.MatMul { m with transpose_a = not m.transpose_a };
            (match n.Plan.op with
            | Plan.MatMul m ->
              if absorb 1 then
                n.Plan.op <-
                  Plan.MatMul { m with transpose_b = not m.transpose_b }
            | _ -> ())
          | Plan.Ewise e ->
            if absorb 0 then
              n.Plan.op <- Plan.Ewise { e with transpose_a = not e.transpose_a };
            (match n.Plan.op with
            | Plan.Ewise e ->
              if absorb 1 then
                n.Plan.op <-
                  Plan.Ewise { e with transpose_b = not e.transpose_b }
            | _ -> ())
          | Plan.ApplyChain a ->
            if absorb 0 then
              n.Plan.op <- Plan.ApplyChain { a with transpose = not a.transpose }
          | Plan.ReduceRows r ->
            if absorb 0 then
              n.Plan.op <- Plan.ReduceRows { r with transpose = not r.transpose }
          | Plan.ExtractMat e ->
            if absorb 0 then
              n.Plan.op <- Plan.ExtractMat { e with transpose = not e.transpose }
          | _ -> ()))
      (Plan.topo plan)
  done;
  for _ = 1 to !total do
    record plan "transpose_sink"
  done

(* -- apply∘apply --
   An apply chain feeding another apply chain collapses into one chain
   (one compiled kernel for vectors).  The outer node must not transpose
   the inner result, and the inner node must have no other consumer. *)
let fuse_apply_chain plan =
  let changed = ref true in
  while !changed do
    changed := false;
    let refs = Plan.refcounts plan in
    List.iter
      (fun id ->
        match Hashtbl.find_opt plan.Plan.tbl id with
        | None -> ()
        | Some n -> (
          match n.Plan.op with
          | Plan.ApplyChain { chain = outer; transpose = false } -> (
            let d = Plan.node plan n.Plan.deps.(0) in
            match d.Plan.op, Hashtbl.find_opt refs d.Plan.id with
            | Plan.ApplyChain { chain = inner; transpose }, Some 1 ->
              n.Plan.op <-
                Plan.ApplyChain { chain = inner @ outer; transpose };
              n.Plan.deps <- d.Plan.deps;
              Hashtbl.remove plan.Plan.tbl d.Plan.id;
              record plan "apply_chain";
              changed := true
            | _ -> ())
          | _ -> ()))
      (Plan.topo plan)
  done

(* -- apply∘ewise --
   The blocking evaluator's fused-module path (apply chain over a
   vector element-wise op compiles to one kernel); same gate here:
   both ewise operands statically vectors, plus single-consumer. *)
let fuse_apply_ewise plan =
  let refs = Plan.refcounts plan in
  List.iter
    (fun id ->
      match Hashtbl.find_opt plan.Plan.tbl id with
      | None -> ()
      | Some n -> (
        match n.Plan.op with
        | Plan.ApplyChain { chain; transpose = false } -> (
          let d = Plan.node plan n.Plan.deps.(0) in
          match d.Plan.op, Hashtbl.find_opt refs d.Plan.id with
          | Plan.Ewise { kind; op; _ }, Some 1
            when (Plan.node plan d.Plan.deps.(0)).Plan.kind = Plan.K_vec
                 && (Plan.node plan d.Plan.deps.(1)).Plan.kind = Plan.K_vec ->
            n.Plan.op <- Plan.EwiseApply { kind; op; chain };
            n.Plan.deps <- d.Plan.deps;
            Hashtbl.remove plan.Plan.tbl d.Plan.id;
            record plan "apply_ewise"
          | _ -> ())
        | _ -> ()))
    (Plan.topo plan)

(* -- mult∘reduce --
   A scalar reduction over a vector eWiseMult runs as one intersection
   pass that folds with the monoid, skipping the temporary vector. *)
let fuse_mult_reduce plan =
  let refs = Plan.refcounts plan in
  List.iter
    (fun id ->
      match Hashtbl.find_opt plan.Plan.tbl id with
      | None -> ()
      | Some n -> (
        match n.Plan.op with
        | Plan.ReduceScalar { op = monoid_op; identity } -> (
          let d = Plan.node plan n.Plan.deps.(0) in
          match d.Plan.op, Hashtbl.find_opt refs d.Plan.id with
          | Plan.Ewise { kind = `Mult; op; _ }, Some 1
            when (Plan.node plan d.Plan.deps.(0)).Plan.kind = Plan.K_vec
                 && (Plan.node plan d.Plan.deps.(1)).Plan.kind = Plan.K_vec ->
            n.Plan.op <- Plan.EwiseMultReduce { op; monoid_op; identity };
            n.Plan.deps <- d.Plan.deps;
            Hashtbl.remove plan.Plan.tbl d.Plan.id;
            record plan "mult_reduce"
          | _ -> ())
        | _ -> ()))
    (Plan.topo plan)

(* -- mask push-down --
   The blocking evaluator hands the sink's write mask to the producing
   product when (and only when) the expression root is a matmul whose
   result kind matches the mask's: a matrix mask into Mat×Mat, where the
   kernel prunes by mask structure, a vector mask into mat×vec or
   vec×mat, where the kernel gathers or keeps only allowed outputs
   ([Ogb.Expr.product] takes it).  Mirror exactly: same gate, same
   single site.  A pushed mask leaves the sink, which tells the write
   step that the result is already masked. *)
let push_mask plan =
  match plan.Plan.sink_mask with
  | None -> ()
  | Some spec -> (
    let r = Plan.root plan in
    let kind i = (Plan.node plan r.Plan.deps.(i)).Plan.kind in
    match r.Plan.op with
    | Plan.MatMul m
      when match kind 0, kind 1, spec.Ogb.Expr.container with
           | Plan.K_mat, Plan.K_mat, Ogb.Container.Mat _
           | Plan.K_mat, Plan.K_vec, Ogb.Container.Vec _
           | Plan.K_vec, Plan.K_mat, Ogb.Container.Vec _ ->
             true
           | _, _, _ -> false ->
      r.Plan.op <- Plan.MatMul { m with masked = Some spec };
      plan.Plan.sink_mask <- None;
      record plan "mask_push"
    | _ -> ())

(* -- layout selection --
   With the format layer on, a Mat×Vec matmul carrying a transpose_a
   flag (sunk there by sink_transpose from an explicit Transpose node)
   dispatches on the matrix's lazily cached CSC side rather than
   materializing Aᵀ.  The direction each such node takes comes from the
   schedule: a pinned pull/push layout (OGB_SCHEDULE or --schedule)
   wins; [Auto] takes the kernel's own rule when the vector operand is
   a plan leaf (pull when it is dense, which the fill rules make it at
   1/4 of a size-≥32 vector) and otherwise leaves that rule to the
   kernel at run time ([L_csc]).  Plan.execute_node forces pinned directions
   through the kernel's [direction] override; both directions are
   bit-identical, so this trades time only. *)
let select_layout ?(schedule = Cost.Schedule.default) plan =
  if Gbtl.Format_stats.enabled () then
    List.iter
      (fun id ->
        let n = Plan.node plan id in
        match n.Plan.op with
        | Plan.MatMul ({ transpose_a = true; layout = Plan.L_default; _ } as m)
          when (Plan.node plan n.Plan.deps.(0)).Plan.kind = Plan.K_mat
               && (Plan.node plan n.Plan.deps.(1)).Plan.kind = Plan.K_vec ->
          let heuristic () =
            match (Plan.node plan n.Plan.deps.(1)).Plan.op with
            | Plan.Leaf (Ogb.Container.Vec (_, v)) ->
              if Gbtl.Svector.is_dense v then Plan.L_csc_pull
              else Plan.L_csc_push
            | _ -> Plan.L_csc
          in
          let layout =
            match schedule.Cost.Schedule.layout with
            | Cost.Schedule.Pull -> Plan.L_csc_pull
            | Cost.Schedule.Push -> Plan.L_csc_push
            | Cost.Schedule.Auto -> heuristic ()
          in
          n.Plan.op <- Plan.MatMul { m with layout };
          record plan "csc_dispatch";
          (match layout with
          | Plan.L_csc_pull -> record plan "dir_pull"
          | Plan.L_csc_push -> record plan "dir_push"
          | _ -> ())
        | _ -> ())
      (Plan.topo plan)

(* Apply the rewrite pipeline under a schedule: each pass fires only
   when the schedule enables its rule (all on by default — the greedy
   pipeline), and layout selection takes the schedule's direction
   choices.  Each stage re-checks the plan through the installed static
   verifier (no-op when none): a pass that changes a surviving node's
   inferred shape or dtype is a miscompile and aborts here. *)
let run_with ?(schedule = Cost.Schedule.default) plan =
  let enabled r = Cost.Schedule.rule_enabled schedule r in
  let dead = ref 0 in
  let sweep () = dead := !dead + Plan.drop_dead plan in
  let verify stage = Verify_hook.run plan ~stage in
  verify "lower";
  if enabled "sink_transpose" then begin
    sink_transpose plan;
    sweep ();
    verify "sink_transpose"
  end;
  if Ogb.Expr.fusion () then begin
    if enabled "apply_chain" then begin
      fuse_apply_chain plan;
      sweep ();
      verify "apply_chain"
    end;
    if enabled "apply_ewise" then begin
      fuse_apply_ewise plan;
      sweep ();
      verify "apply_ewise"
    end;
    if enabled "mult_reduce" then begin
      fuse_mult_reduce plan;
      sweep ();
      verify "mult_reduce"
    end
  end;
  if enabled "push_mask" then begin
    push_mask plan;
    sweep ();
    verify "push_mask"
  end;
  select_layout ~schedule plan;
  verify "select_layout";
  Plan.record_event plan "dce" !dead

let run plan = run_with plan
