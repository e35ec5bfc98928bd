(* Nonblocking execution engine: equivalence with the blocking
   evaluator on random expression trees (bit-identical containers), plus
   unit tests for the plan rewrites (CSE, apply-chain fusion,
   apply-over-ewise, mult-reduce, transpose sinking, mask push-down) on
   hand-built expressions. *)

open Gbtl

let f64 = Dtype.FP64

let leaves_of_models models =
  Array.map
    (fun m -> Ogb.Container.of_svector (Dense_ref.svector_of_vec f64 m))
    models

(* -- property: Nonblocking ≡ Blocking on random trees -- *)

let qcheck_equivalence =
  Helpers.qtest ~count:300 "nonblocking matches blocking bit-for-bit"
    (QCheck.make Test_expr_random.case_gen ~print:Test_expr_random.print_case)
    (fun (e, leaf_models) ->
      let leaves = leaves_of_models leaf_models in
      let expr = Test_expr_random.to_expr leaves e in
      let blocking = Ogb.Expr.force_blocking expr in
      let nonblocking = Exec.force expr in
      Ogb.Container.equal blocking nonblocking)

let qcheck_equivalence_via_hook =
  Helpers.qtest ~count:150 "Expr.force diverts through the mode hook"
    (QCheck.make Test_expr_random.case_gen ~print:Test_expr_random.print_case)
    (fun (e, leaf_models) ->
      let leaves = leaves_of_models leaf_models in
      let expr = Test_expr_random.to_expr leaves e in
      let blocking = Ogb.Expr.force_blocking expr in
      let nonblocking =
        Exec.with_mode Exec.Nonblocking (fun () -> Ogb.Expr.force expr)
      in
      Ogb.Container.equal blocking nonblocking)

let qcheck_equivalence_unfused =
  Helpers.qtest ~count:150 "equivalence holds with fusion disabled"
    (QCheck.make Test_expr_random.case_gen ~print:Test_expr_random.print_case)
    (fun (e, leaf_models) ->
      let leaves = leaves_of_models leaf_models in
      let expr = Test_expr_random.to_expr leaves e in
      Ogb.Expr.set_fusion false;
      Fun.protect
        ~finally:(fun () -> Ogb.Expr.set_fusion true)
        (fun () ->
          Ogb.Container.equal
            (Ogb.Expr.force_blocking expr)
            (Exec.force expr)))

let qcheck_reduce_equivalence =
  Helpers.qtest ~count:200 "scalar reduction matches blocking bit-for-bit"
    (QCheck.make Test_expr_random.case_gen ~print:Test_expr_random.print_case)
    (fun (e, leaf_models) ->
      let leaves = leaves_of_models leaf_models in
      let expr = Test_expr_random.to_expr leaves e in
      let blocking =
        Ogb.Expr.reduce_scalar_blocking ~op:"Plus" ~identity:"0" expr
      in
      let nonblocking = Exec.reduce ~op:"Plus" ~identity:"0" expr in
      Float.equal blocking nonblocking)

(* -- unit tests: rewrites on hand-built expressions -- *)

let vec_a () =
  Ogb.Container.of_svector
    (Dense_ref.svector_of_vec f64
       [| Some 1.; None; Some 2.; Some (-3.); None; Some 4. |])

let vec_b () =
  Ogb.Container.of_svector
    (Dense_ref.svector_of_vec f64
       [| None; Some 5.; Some (-1.); None; Some 2.; Some 0.5 |])

let mat_a () = Lazy.force Test_expr_random.fixed_matrix_cont

let with_plus f = Ogb.Context.with_ops [ Ogb.Context.binary "Plus" ] f
let with_times f = Ogb.Context.with_ops [ Ogb.Context.binary "Times" ] f

let count_ops plan pred =
  List.fold_left
    (fun acc id ->
      if pred (Exec.Plan.node plan id).Exec.Plan.op then acc + 1 else acc)
    0
    (Exec.Plan.topo plan)

let test_cse () =
  let a = vec_a () and b = vec_b () in
  let s = with_plus (fun () -> Ogb.Expr.add (Ogb.Expr.of_container a) (Ogb.Expr.of_container b)) in
  let e = with_times (fun () -> Ogb.Expr.mult s s) in
  let plan = Exec.plan_force e in
  Alcotest.(check int) "shared subtree lowers once" 4 (Exec.Plan.size plan);
  Alcotest.(check bool) "cse recorded" true (Exec.Plan.cse_merged plan >= 1);
  let root = Exec.Plan.root plan in
  Alcotest.(check bool) "root consumes the shared node twice" true
    (root.Exec.Plan.deps.(0) = root.Exec.Plan.deps.(1))

let test_apply_chain_fusion () =
  let a = vec_a () in
  let e =
    Ogb.Expr.apply ~f:(Jit.Op_spec.Named "AdditiveInverse")
      (Ogb.Expr.apply ~f:(Jit.Op_spec.Named "Identity")
         (Ogb.Expr.of_container a))
  in
  let plan = Exec.plan_force e in
  Alcotest.(check int) "two applies collapse to one node" 2
    (Exec.Plan.size plan);
  match (Exec.Plan.root plan).Exec.Plan.op with
  | Exec.Plan.ApplyChain { chain; transpose = false } ->
    Alcotest.(check (list string))
      "chain is innermost-first"
      [ "Identity"; "AdditiveInverse" ]
      (List.map Jit.Op_spec.unary_name chain)
  | op -> Alcotest.failf "expected ApplyChain, got %s" (Exec.Plan.op_label op)

let test_apply_ewise_fusion () =
  let a = vec_a () and b = vec_b () in
  let e =
    Ogb.Expr.apply ~f:(Jit.Op_spec.Named "AdditiveInverse")
      (with_plus (fun () ->
           Ogb.Expr.add (Ogb.Expr.of_container a) (Ogb.Expr.of_container b)))
  in
  let plan = Exec.plan_force e in
  Alcotest.(check int) "apply folds into the ewise node" 3
    (Exec.Plan.size plan);
  match (Exec.Plan.root plan).Exec.Plan.op with
  | Exec.Plan.EwiseApply { kind = `Add; op = "Plus"; chain = [ f ] } ->
    Alcotest.(check string) "chain" "AdditiveInverse" (Jit.Op_spec.unary_name f)
  | op -> Alcotest.failf "expected EwiseApply, got %s" (Exec.Plan.op_label op)

let test_mult_reduce_fusion () =
  let a = vec_a () and b = vec_b () in
  let e =
    with_times (fun () ->
        Ogb.Expr.mult (Ogb.Expr.of_container a) (Ogb.Expr.of_container b))
  in
  let plan = Exec.plan_reduce ~op:"Plus" ~identity:"0" e in
  Alcotest.(check int) "reduce folds into the mult node" 3
    (Exec.Plan.size plan);
  match (Exec.Plan.root plan).Exec.Plan.op with
  | Exec.Plan.EwiseMultReduce { op = "Times"; monoid_op = "Plus"; identity = "0" }
    ->
    ()
  | op ->
    Alcotest.failf "expected EwiseMultReduce, got %s" (Exec.Plan.op_label op)

let test_transpose_sink () =
  let a = mat_a () and x = vec_a () in
  let e =
    Ogb.Expr.matmul
      (Ogb.Expr.transpose (Ogb.Expr.of_container a))
      (Ogb.Expr.of_container x)
  in
  let plan = Exec.plan_force e in
  Alcotest.(check int) "transpose absorbed into the matmul flag" 0
    (count_ops plan (function Exec.Plan.Transpose -> true | _ -> false));
  (match (Exec.Plan.root plan).Exec.Plan.op with
  | Exec.Plan.MatMul { transpose_a = true; transpose_b = false; _ } -> ()
  | op -> Alcotest.failf "expected MatMul[Ta], got %s" (Exec.Plan.op_label op));
  (* double transpose cancels entirely *)
  let e2 =
    Ogb.Expr.matmul
      (Ogb.Expr.transpose (Ogb.Expr.transpose (Ogb.Expr.of_container a)))
      (Ogb.Expr.of_container x)
  in
  let plan2 = Exec.plan_force e2 in
  Alcotest.(check int) "double transpose erased" 0
    (count_ops plan2 (function Exec.Plan.Transpose -> true | _ -> false));
  match (Exec.Plan.root plan2).Exec.Plan.op with
  | Exec.Plan.MatMul { transpose_a = false; _ } -> ()
  | op -> Alcotest.failf "expected MatMul, got %s" (Exec.Plan.op_label op)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_select_layout () =
  let a = mat_a () and x = vec_a () in
  let e =
    Ogb.Expr.matmul
      (Ogb.Expr.transpose (Ogb.Expr.of_container a))
      (Ogb.Expr.of_container x)
  in
  let plan = Exec.plan_force e in
  (match (Exec.Plan.root plan).Exec.Plan.op with
  | Exec.Plan.MatMul { layout = Exec.Plan.L_csc_push; _ } ->
    (* the leaf vector has 6 slots (< 32), so the kernel will push *)
    ()
  | op ->
    Alcotest.failf "expected csc push layout, got %s" (Exec.Plan.op_label op));
  Alcotest.(check bool) "csc_dispatch event recorded" true
    (List.mem_assoc "csc_dispatch" (Exec.Plan.events plan));
  Alcotest.(check bool) "dir_push event recorded" true
    (List.mem_assoc "dir_push" (Exec.Plan.events plan));
  Alcotest.(check bool) "plan dump shows the CSC dispatch" true
    (contains_sub (Exec.Plan.to_string plan) "[a:csc]");
  (* with the format layer off the annotation never fires *)
  Format_stats.with_enabled false (fun () ->
      let plan = Exec.plan_force e in
      match (Exec.Plan.root plan).Exec.Plan.op with
      | Exec.Plan.MatMul { layout = Exec.Plan.L_default; _ } -> ()
      | op ->
        Alcotest.failf "expected default layout, got %s"
          (Exec.Plan.op_label op))

let test_mask_push () =
  let a = mat_a () in
  let spec = { Ogb.Expr.container = a; complemented = false } in
  let e =
    Ogb.Expr.matmul (Ogb.Expr.of_container a)
      (Ogb.Expr.transpose (Ogb.Expr.of_container a))
  in
  let plan = Exec.plan_force ~mask:spec e in
  (match (Exec.Plan.root plan).Exec.Plan.op with
  | Exec.Plan.MatMul { masked = Some m; transpose_b = true; _ } ->
    Alcotest.(check bool) "mask container preserved" true
      (m.Ogb.Expr.container == a)
  | op ->
    Alcotest.failf "expected masked MatMul[Tb], got %s" (Exec.Plan.op_label op));
  Alcotest.(check bool) "sink mask consumed" true (plan.Exec.Plan.sink_mask = None);
  (* a vector-result matmul keeps the mask at the sink, like blocking *)
  let ev =
    Ogb.Expr.matmul (Ogb.Expr.of_container a)
      (Ogb.Expr.of_container (vec_a ()))
  in
  let planv = Exec.plan_force ~mask:spec ev in
  match (Exec.Plan.root planv).Exec.Plan.op with
  | Exec.Plan.MatMul { masked = None; _ } -> ()
  | op -> Alcotest.failf "expected unmasked MatMul, got %s" (Exec.Plan.op_label op)

let test_ops_set_routing () =
  let a = mat_a () in
  let target_b = Ogb.Container.dup a and target_nb = Ogb.Container.dup a in
  let expr () =
    let open Ogb.Ops.Infix in
    !!a @. tr !!a
  in
  Ogb.Ops.set ~mask:(Ogb.Ops.Mask a) target_b (expr ());
  Exec.with_mode Exec.Nonblocking (fun () ->
      Ogb.Ops.set ~mask:(Ogb.Ops.Mask a) target_nb (expr ()));
  Alcotest.(check bool) "masked matmul assignment identical" true
    (Ogb.Container.equal target_b target_nb)

let test_trace () =
  (* asserts exact per-node trace bookkeeping, which a globally armed
     chaos spec (OGB_FAULTS worker faults) legitimately perturbs *)
  Fault.suspended @@ fun () ->
  let a = vec_a () and b = vec_b () in
  let e =
    Ogb.Expr.apply ~f:(Jit.Op_spec.Named "AdditiveInverse")
      (with_plus (fun () ->
           Ogb.Expr.add (Ogb.Expr.of_container a) (Ogb.Expr.of_container b)))
  in
  ignore (Exec.force e);
  match Exec.last_trace () with
  | None -> Alcotest.fail "no trace recorded"
  | Some t ->
    Alcotest.(check int) "one event per executed node" 3
      (List.length t.Exec.Trace.nodes);
    Alcotest.(check bool) "apply_ewise rewrite recorded" true
      (List.mem_assoc "apply_ewise" t.Exec.Trace.rewrites);
    Alcotest.(check bool) "kernel lookups attributed" true
      (t.Exec.Trace.lookups >= 1)

let suite =
  [ Helpers.to_alcotest qcheck_equivalence;
    Helpers.to_alcotest qcheck_equivalence_via_hook;
    Helpers.to_alcotest qcheck_equivalence_unfused;
    Helpers.to_alcotest qcheck_reduce_equivalence;
    Alcotest.test_case "CSE shares structurally equal subtrees" `Quick test_cse;
    Alcotest.test_case "apply chains fuse to one kernel" `Quick
      test_apply_chain_fusion;
    Alcotest.test_case "apply over ewise fuses to one kernel" `Quick
      test_apply_ewise_fusion;
    Alcotest.test_case "mult feeding reduce fuses to one pass" `Quick
      test_mult_reduce_fusion;
    Alcotest.test_case "transposes sink into kernel flags" `Quick
      test_transpose_sink;
    Alcotest.test_case "sink mask pushes into the root matmul" `Quick
      test_mask_push;
    Alcotest.test_case "transposed mxv annotated with CSC dispatch" `Quick
      test_select_layout;
    Alcotest.test_case "Ops.set routes through the engine" `Quick
      test_ops_set_routing;
    Alcotest.test_case "execution trace records nodes and rewrites" `Quick
      test_trace;
  ]
