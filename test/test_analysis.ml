(* Static analysis: plan verifier (shape/dtype inference, miscompile
   snapshots), CSC-cache race detection and remedies, MiniVM scope/arity
   checking, abstract interpretation of the tier-1 encodings, and
   analyzer-driven ahead-of-time JIT warm-up. *)

open Gbtl
module Plan = Exec.Plan
module Verify = Analysis.Verify
module Effects = Analysis.Effects

let f64 = Dtype.FP64

let vec n x =
  Ogb.Container.of_svector (Svector.of_dense f64 (Array.make n x))

let leaf c = Ogb.Expr.of_container c

let with_arith f =
  Ogb.Context.with_ops
    [ Ogb.Context.semiring "Arithmetic"; Ogb.Context.binary "Plus" ]
    f

let expect_verify_error ~substr f =
  try
    ignore (f ());
    Alcotest.failf "expected a Verify_error mentioning %S" substr
  with Verify.Verify_error { message; _ } ->
    if not (Helpers.contains_substring message substr) then
      Alcotest.failf "diagnostic %S does not mention %S" message substr

(* -- seeded defects: each caught statically with the right message -- *)

let test_defect_ewise_dims () =
  let e = with_arith (fun () -> Ogb.Expr.add (leaf (vec 3 1.0)) (leaf (vec 4 1.0))) in
  let plan = Plan.of_expr e in
  expect_verify_error ~substr:"element-wise operation on vectors of sizes 3 and 4"
    (fun () -> Verify.check ~stage:"lower" plan)

let test_defect_mxv_dims () =
  let m =
    Ogb.Container.of_smatrix (Smatrix.of_coo f64 3 4 [ (0, 0, 1.0); (2, 3, 2.0) ])
  in
  let e = with_arith (fun () -> Ogb.Expr.matmul (leaf m) (leaf (vec 5 1.0))) in
  let plan = Plan.of_expr e in
  expect_verify_error ~substr:"mxv dimension mismatch"
    (fun () -> Verify.check ~stage:"lower" plan)

let test_defect_unknown_operator () =
  (* an operator name no dtype can instantiate: the static analogue of a
     dtype/operator clash, caught before any kernel is generated *)
  let e = with_arith (fun () -> Ogb.Expr.add (leaf (vec 4 1.0)) (leaf (vec 4 2.0))) in
  let plan = Plan.of_expr e in
  Verify.check ~stage:"lower" plan;
  let root = Plan.root plan in
  (match root.Plan.op with
  | Plan.Ewise { kind; op = _; transpose_a; transpose_b } ->
    root.Plan.op <- Plan.Ewise { kind; op = "NoSuchOp"; transpose_a; transpose_b }
  | _ -> Alcotest.fail "expected an ewise root");
  expect_verify_error ~substr:"unknown binary operator \"NoSuchOp\""
    (fun () -> Verify.check ~stage:"lower" plan)

let test_defect_miscompile_between_stages () =
  (* simulate a broken rewrite pass: if a node's inferred shape changes
     between two stages of the same plan, the snapshot comparison calls
     it a miscompile *)
  let e =
    Ogb.Expr.apply ~f:(Jit.Op_spec.Named "AdditiveInverse") (leaf (vec 4 1.0))
  in
  let plan = Plan.of_expr e in
  Verify.check ~stage:"lower" plan;
  let leaf_node =
    List.find
      (fun id ->
        match (Plan.node plan id).Plan.op with Plan.Leaf _ -> true | _ -> false)
      (Plan.topo plan)
  in
  (Plan.node plan leaf_node).Plan.op <- Plan.Leaf (vec 5 1.0);
  expect_verify_error ~substr:"miscompile"
    (fun () -> Verify.check ~stage:"sink_transpose" plan)

(* -- races: aliased concurrent CSC builds, and both remedies -- *)

let race_plan () =
  (* y = A.T@u + A.T@v: after transpose sinking both matmuls dispatch on
     A's lazily built CSC index, and the scheduler runs them
     concurrently.  The operands are filled-in 64-vectors so layout
     selection picks the pull direction (push never builds the index and
     the layout-aware analysis knows it); the plan is rewritten without
     the planner so the fixture's layouts are deterministic. *)
  let m = Smatrix.of_coo f64 64 64 [ (0, 1, 1.0); (3, 2, 2.0); (7, 5, 1.0) ] in
  let ac = Ogb.Container.of_smatrix m in
  let e =
    with_arith (fun () ->
        let a = leaf ac in
        Ogb.Expr.add
          (Ogb.Expr.matmul (Ogb.Expr.transpose a) (leaf (vec 64 1.0)))
          (Ogb.Expr.matmul (Ogb.Expr.transpose a) (leaf (vec 64 2.0))))
  in
  let plan = Plan.of_expr e in
  Exec.Rewrite.run plan;
  plan

(* The CSC-cache hazards among a hazard list: the races these cases
   are about. *)
let csc hs =
  List.filter (fun (h : Effects.hazard) -> h.Effects.cls = Effects.Csc_cache) hs

let test_race_found () =
  let plan = race_plan () in
  (match Format_stats.with_enabled false (fun () -> csc (Effects.find plan)) with
  | [] -> ()
  | _ -> Alcotest.fail "format layer disabled: no CSC build, no race");
  match csc (Effects.find ~assume_formats:true plan) with
  | [ h ] ->
    (match h.Effects.kind with
    | Effects.Write_write -> ()
    | Effects.Read_write -> Alcotest.fail "expected a write-write conflict");
    if not (Helpers.contains_substring (Effects.describe h) "CSC cache") then
      Alcotest.failf "describe: %s" (Effects.describe h)
  | hs -> Alcotest.failf "expected exactly one conflict, got %d" (List.length hs)

let test_race_remedy_prebuild () =
  Format_stats.with_enabled true (fun () ->
      let plan = race_plan () in
      (match csc (Effects.remedy ~strategy:Effects.Prebuild plan) with
      | [ _ ] -> ()
      | hs -> Alcotest.failf "expected one conflict, got %d" (List.length hs));
      Alcotest.(check int) "prebuild clears the conflict" 0
        (List.length (csc (Effects.find plan))))

let test_race_remedy_edge () =
  Format_stats.with_enabled true (fun () ->
      let plan = race_plan () in
      (match csc (Effects.remedy ~strategy:Effects.Edge plan) with
      | [ _ ] -> ()
      | hs -> Alcotest.failf "expected one conflict, got %d" (List.length hs));
      Alcotest.(check int) "edge serializes the pair" 0
        (List.length (csc (Effects.find plan)));
      (* the extra dependency edge must not have broken verification *)
      Verify.check ~stage:"query" plan)

(* -- MiniVM static checking -- *)

let test_vm_scope_tier1_clean () =
  List.iter
    (fun (e : Analysis.Tier1.entry) ->
      match Analysis.Vm_check.check e.Analysis.Tier1.program with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "%s: unexpected finding: %s" e.Analysis.Tier1.name
          (Analysis.Vm_check.describe f))
    Analysis.Tier1.all

let test_vm_unbound_agreement () =
  (* the static diagnostic is verbatim the message the interpreter
     raises for the same defect *)
  let open Minivm.Ast in
  let program =
    [ Def ("f", [], [ Return (Var "nope") ]); ExprStmt (Call (Var "f", [])) ]
  in
  let static =
    match Analysis.Vm_check.check program with
    | [ f ] ->
      (match f.Analysis.Vm_check.what with
      | Analysis.Vm_check.Unbound -> f.Analysis.Vm_check.message
      | _ -> Alcotest.fail "expected an unbound-variable finding")
    | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)
  in
  let dynamic =
    try
      ignore (Minivm.Interp.run ~env:(Analysis.Vm_check.default_env ()) program);
      Alcotest.fail "interpreter accepted the unbound variable"
    with Minivm.Vm_error.Unbound_variable _ as e ->
      Option.get (Minivm.Vm_error.to_string e)
  in
  Alcotest.(check string) "static and dynamic diagnostics agree" dynamic static

let test_vm_arity_and_method () =
  let open Minivm.Ast in
  let program =
    [ Def ("f", [ "x" ], [ Return (Var "x") ]);
      ExprStmt (Call (Var "f", [ Const (Minivm.Value.Int 1);
                                 Const (Minivm.Value.Int 2) ]));
      ExprStmt (Method (Var "AllIndices", "frobnicate", [])) ]
  in
  let whats = List.map (fun f -> f.Analysis.Vm_check.what)
      (Analysis.Vm_check.check program) in
  Alcotest.(check bool) "arity finding" true
    (List.mem Analysis.Vm_check.Arity whats);
  Alcotest.(check bool) "unknown-method finding" true
    (List.mem Analysis.Vm_check.Unknown_method whats)

(* -- abstract interpretation of tier-1 encodings -- *)

let keys entry n =
  List.map Jit.Kernel_sig.key
    (Analysis.Tier1.signatures entry ~n)

let find_entry name = Option.get (Analysis.Tier1.find name)

(* graph.T @ frontier under the ~levels mask: the column gather's push
   on a sparse frontier, its pull on a dense one, and the masked pull *)
let test_abstract_bfs () =
  let ks = keys (find_entry "bfs") 64 in
  Alcotest.(check int) "bfs reaches three kernels" 3 (List.length ks);
  List.iter
    (fun k ->
      Alcotest.(check bool) ("mxv: " ^ k) true
        (Helpers.contains_substring k "mxv|T:bool"))
    ks;
  let has sub = List.exists (fun k -> Helpers.contains_substring k sub) ks in
  Alcotest.(check bool) "masked pull" true (has "masked_pull");
  Alcotest.(check bool) "dense frontier" true (has "u:dense")

let test_abstract_pagerank () =
  let ks = keys (find_entry "pagerank") 64 in
  let has sub = List.exists (fun k -> Helpers.contains_substring k sub) ks in
  Alcotest.(check bool) "vxm reached" true (has "vxm|T:double");
  Alcotest.(check bool) "damping apply with bound constant" true
    (has "apply_m|T:double|f:Times$bind2nd:0.84999999999999998");
  Alcotest.(check bool) "teleport apply depends on n" true
    (has "Plus$bind2nd:0.0023437500000000003");
  Alcotest.(check bool) "convergence reduce" true
    (has "reduce_v_scalar|T:double")

let test_abstract_triangle () =
  let ks = keys (find_entry "tc") 32 in
  let has sub = List.exists (fun k -> Helpers.contains_substring k sub) ks in
  Alcotest.(check bool) "masked mxm" true (has "mxm|T:int64_t");
  Alcotest.(check bool) "mask+transpose_b flags" true
    (has "mask,transpose_b");
  Alcotest.(check bool) "scalar reduce" true (has "reduce_m_scalar|T:int64_t")

(* [ogb analyze], [ogb run] and the wire share one name per algorithm:
   the tier-1 encodings are exactly the registry entries with a vm tier. *)
let test_tier1_names_match_registry () =
  let module R = Algorithms.Registry in
  let vm_names =
    List.filter_map
      (fun (e : R.entry) -> if List.mem R.Vm e.tiers then Some e.name else None)
      R.all
  in
  Alcotest.(check (list string)) "tier-1 names"
    (List.sort compare vm_names)
    (List.sort compare
       (List.map (fun (e : Analysis.Tier1.entry) -> e.name) Analysis.Tier1.all))

(* -- ahead-of-time warm-up: the acceptance criterion -- *)

(* n = 16 keeps every vector sparse (below the size-32 densify floor);
   at n = 64 the frontier and the ranks turn dense, so the warm set must
   hold the dense-layout signatures too. *)
let warm_zero_first_iteration_compiles n =
  let sigs =
    Analysis.Tier1.signatures (find_entry "bfs") ~n
    @ Analysis.Tier1.signatures (find_entry "pagerank") ~n
  in
  Jit.Dispatch.clear_memory_cache ();
  List.iter
    (fun (o : Analysis.Warmup.outcome) ->
      match o.Analysis.Warmup.status with
      | Analysis.Warmup.Skipped reason ->
        Alcotest.failf "warm-up skipped %s: %s"
          (Jit.Kernel_sig.key o.Analysis.Warmup.sig_)
          reason
      | _ -> ())
    (Analysis.Warmup.warm sigs);
  let before = Jit.Jit_stats.snapshot () in
  let g =
    Graphs.Convert.matrix_of_edges f64 (Graphs.Generators.complete n)
  in
  ignore
    (Algorithms.Bfs.vm_loops
       (Ogb.Container.of_smatrix (Smatrix.cast ~into:Dtype.Bool g))
       ~src:0);
  ignore (Algorithms.Pagerank.vm_loops (Ogb.Container.of_smatrix g));
  let after = Jit.Jit_stats.snapshot () in
  Alcotest.(check int) "zero first-iteration compiles" 0
    (after.Jit.Jit_stats.compiles - before.Jit.Jit_stats.compiles);
  Alcotest.(check int) "zero first-iteration disk loads" 0
    (after.Jit.Jit_stats.disk_hits - before.Jit.Jit_stats.disk_hits)

let test_warm_zero_first_iteration_compiles () =
  List.iter warm_zero_first_iteration_compiles [ 16; 64 ]

(* -- property: accepted random DAGs stay accepted through the whole
      rewrite pipeline (the hook re-verifies after every pass) -- *)

let qcheck_verifier_preserved =
  Helpers.qtest ~count:150
    "verifier-accepted random plans stay accepted after every fusion pass"
    (QCheck.make Test_expr_random.case_gen ~print:Test_expr_random.print_case)
    (fun (e, leaf_models) ->
      let leaves =
        Array.map
          (fun m -> Ogb.Container.of_svector (Dense_ref.svector_of_vec f64 m))
          leaf_models
      in
      Analysis.Hook.install ();
      Fun.protect ~finally:Analysis.Hook.uninstall (fun () ->
          let expr = Test_expr_random.to_expr leaves e in
          (* plan_force verifies at "lower" and after each rewrite pass
             via the hook; a regression raises Verify_error and fails
             the property *)
          let plan = Exec.plan_force expr in
          ignore (Verify.root_info ~stage:"query" plan);
          (* and the verified plan still executes end to end *)
          ignore (Exec.force expr);
          true))

let suite =
  [ Alcotest.test_case "defect: ewise dimension mismatch" `Quick
      test_defect_ewise_dims;
    Alcotest.test_case "defect: mxv dimension mismatch" `Quick
      test_defect_mxv_dims;
    Alcotest.test_case "defect: unknown operator at dtype" `Quick
      test_defect_unknown_operator;
    Alcotest.test_case "defect: shape change between stages is a miscompile"
      `Quick test_defect_miscompile_between_stages;
    Alcotest.test_case "races: concurrent CSC builds detected" `Quick
      test_race_found;
    Alcotest.test_case "races: prebuild remedy" `Quick test_race_remedy_prebuild;
    Alcotest.test_case "races: edge remedy" `Quick test_race_remedy_edge;
    Alcotest.test_case "minivm: tier-1 encodings are scope/arity clean" `Quick
      test_vm_scope_tier1_clean;
    Alcotest.test_case "minivm: static unbound matches interpreter verbatim"
      `Quick test_vm_unbound_agreement;
    Alcotest.test_case "minivm: arity and unknown-method findings" `Quick
      test_vm_arity_and_method;
    Alcotest.test_case "abstract: bfs kernel set" `Quick test_abstract_bfs;
    Alcotest.test_case "abstract: pagerank kernel set" `Quick
      test_abstract_pagerank;
    Alcotest.test_case "abstract: triangle kernel set" `Quick
      test_abstract_triangle;
    Alcotest.test_case "tier-1 names are the registry's vm entries" `Quick
      test_tier1_names_match_registry;
    Alcotest.test_case "warm-up: zero first-iteration compiles" `Quick
      test_warm_zero_first_iteration_compiles;
    Helpers.to_alcotest qcheck_verifier_preserved;
  ]
