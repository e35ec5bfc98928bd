(* Effect & disjointness analysis: adversarial plans with ground-truth
   hazard seeding driven through the footprint inference, the clean
   lint and daemon-audit runs, and the degrade-loudly contract of the
   mandatory analysis hook. *)

open Gbtl
module Plan = Exec.Plan
module Effects = Analysis.Effects

let f64 = Dtype.FP64

let with_arith f =
  Ogb.Context.with_ops
    [ Ogb.Context.semiring "Arithmetic"; Ogb.Context.binary "Plus" ]
    f

let mat n =
  Smatrix.of_coo f64 n n [ (0, 1, 1.0); (3, 2, 2.0); (7, 5, 1.0) ]

let vec n x = Ogb.Container.of_svector (Svector.of_dense f64 (Array.make n x))

(* -- adversarial scenarios, each with its ground-truth hazard class --

   Sizes stay >= 32 so the layout heuristic picks pull for filled
   vectors (the CSC-building direction); representation hazards are
   layout-independent.  Plans are lowered and rewritten without the
   planner so the seeded layout is deterministic. *)

type scenario =
  | Shared_uncached of int  (* y = A.T@u + A.T@v, one uncached A: CSC WW *)
  | Shared_cached of int  (* same, but the index is prebuilt: clean *)
  | Shared_dense_vec of int  (* (u+w1)+(u+w2): rep switch on shared u *)
  | Aliased_vec of int  (* two containers over one storage: rep switch *)
  | Inplace_accum of int  (* y = u + (A@u): consumers ordered, clean *)
  | Single_toucher of int  (* one transposed pull: no second toucher *)

let print_scenario = function
  | Shared_uncached n -> Printf.sprintf "shared-uncached-leaf(n=%d)" n
  | Shared_cached n -> Printf.sprintf "shared-cached-leaf(n=%d)" n
  | Shared_dense_vec n -> Printf.sprintf "shared-dense-vec(n=%d)" n
  | Aliased_vec n -> Printf.sprintf "aliased-operands(n=%d)" n
  | Inplace_accum n -> Printf.sprintf "in-place-accum(n=%d)" n
  | Single_toucher n -> Printf.sprintf "single-toucher(n=%d)" n

let expected_cls = function
  | Shared_uncached _ -> Some Effects.Csc_cache
  | Shared_dense_vec _ | Aliased_vec _ -> Some Effects.Rep_switch
  | Shared_cached _ | Inplace_accum _ | Single_toucher _ -> None

let expr_of sc =
  let open Ogb.Ops.Infix in
  with_arith (fun () ->
      match sc with
      | Shared_uncached n ->
        let a = Ogb.Container.of_smatrix (mat n) in
        (tr !!a @. !!(vec n 1.0)) +: (tr !!a @. !!(vec n 2.0))
      | Shared_cached n ->
        let sm = mat n in
        Smatrix.ensure_csc sm;
        let a = Ogb.Container.of_smatrix sm in
        (tr !!a @. !!(vec n 1.0)) +: (tr !!a @. !!(vec n 2.0))
      | Shared_dense_vec n ->
        let u = vec n 1.0 in
        (!!u +: !!(vec n 2.0)) +: (!!u +: !!(vec n 3.0))
      | Aliased_vec n ->
        let sv = Svector.of_dense f64 (Array.make n 1.0) in
        let u1 = Ogb.Container.of_svector sv
        and u2 = Ogb.Container.of_svector sv in
        (!!u1 +: !!(vec n 2.0)) +: (!!u2 +: !!(vec n 3.0))
      | Inplace_accum n ->
        let u = vec n 1.0 in
        !!u +: (!!(Ogb.Container.of_smatrix (mat n)) @. !!u)
      | Single_toucher n ->
        tr !!(Ogb.Container.of_smatrix (mat n)) @. !!(vec n 1.0))

let plan_of sc =
  let p = Plan.of_expr (expr_of sc) in
  Exec.Rewrite.run p;
  p

let scenario_gen =
  QCheck.Gen.(
    let* n = int_range 32 72 in
    oneofl
      [ Shared_uncached n; Shared_cached n; Shared_dense_vec n;
        Aliased_vec n; Inplace_accum n; Single_toucher n ])

let qcheck_ground_truth =
  QCheck.Test.make ~count:60 ~name:"adversarial plans match seeded ground truth"
    (QCheck.make scenario_gen ~print:print_scenario)
    (fun sc ->
      let hs = Effects.find ~assume_formats:true (plan_of sc) in
      match expected_cls sc with
      | Some cls ->
        List.exists (fun h -> h.Effects.cls = cls) hs
        || QCheck.Test.fail_reportf "seeded hazard not flagged (found: %s)"
             (String.concat "; " (List.map Effects.describe hs))
      | None ->
        hs = []
        || QCheck.Test.fail_reportf "false positive: %s"
             (Effects.describe (List.hd hs)))

(* every plan — hazardous or not — must come out of the mandatory hook +
   planner pipeline hazard-free: pre-schedule remediation repairs the
   seeded races, and planner-chosen schedules introduce none *)
let qcheck_planner_schedules_safe =
  QCheck.Test.make ~count:24
    ~name:"planner-chosen schedules are hazard-free after remediation"
    (QCheck.make scenario_gen ~print:print_scenario)
    (fun sc ->
      (* chaos runs arm analysis.effects.exn suite-wide; this property is
         about the un-degraded pipeline, the degrade path has its own test *)
      Fault.suspended @@ fun () ->
      Analysis.Hook.install ();
      Fun.protect ~finally:Analysis.Hook.uninstall (fun () ->
          let plan = Exec.plan_force (expr_of sc) in
          (* the mandatory gate [Exec.force] runs right before the
             scheduler starts: planning tolerates hazards, this remedies
             them (or raises on survivors) *)
          Exec.Verify_hook.run plan ~stage:"pre-schedule";
          match Effects.find ~assume_formats:true plan with
          | [] -> true
          | h :: _ ->
            QCheck.Test.fail_reportf "hazard survived the pipeline: %s"
              (Effects.describe h)))

(* -- lint aggregate and daemon audit stay clean -- *)

let test_lint_clean () =
  match Analysis.Lint.run () with
  | [] -> ()
  | f :: _ -> Alcotest.failf "lint finding: %s" (Analysis.Lint.describe f)

let test_daemon_audit_clean () =
  Fault.suspended @@ fun () ->
  if Server.Audit.manifest = [] then Alcotest.fail "empty audit manifest";
  match Server.Audit.run () with
  | [] -> ()
  | f :: _ -> Alcotest.failf "audit finding: %s" (Server.Audit.describe f)

(* -- the hook degrades loudly: an analysis crash is contained, counted,
      and the plan still runs (unchecked) -- *)

let test_hook_degrades_loudly () =
  Fault.disarm ();
  Jit.Jit_stats.reset ();
  (* the qcheck property above may have cached a schedule for this exact
     shape digest (its generator draws Shared_uncached at random sizes);
     a cache hit skips candidate search and with it the effects hook *)
  Exec.Planner.clear_cache ();
  Fault.arm [ ("analysis.effects.exn", Fault.Always) ];
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Jit.Jit_stats.reset ())
    (fun () ->
      Analysis.Hook.install ();
      Fun.protect ~finally:Analysis.Hook.uninstall (fun () ->
          (* a hazardous plan: with the analysis crashing it must still
             plan and come back, un-remedied but alive *)
          ignore (Exec.plan_force (expr_of (Shared_uncached 40))));
      let st = Jit.Jit_stats.snapshot () in
      if st.Jit.Jit_stats.effects_degraded = 0 then
        Alcotest.fail "analysis crash was not counted as a degrade";
      if st.Jit.Jit_stats.effects_rejections <> 0 then
        Alcotest.fail "a degraded check must not reject candidates")

let suite =
  [ Helpers.to_alcotest qcheck_ground_truth;
    Helpers.to_alcotest qcheck_planner_schedules_safe;
    Alcotest.test_case "lint: clean tree has no findings" `Quick
      test_lint_clean;
    Alcotest.test_case "audit: daemon shared-state probes hold" `Quick
      test_daemon_audit_clean;
    Alcotest.test_case "hook: analysis crash degrades loudly" `Quick
      test_hook_degrades_loudly ]
