(* [ogb lint]'s analysis side: prove the effect system still catches the
   hazards it exists for (self-tests over seeded fixture plans).

   The self-tests run the real pipeline — expressions lowered, rewritten
   and planned by [Exec.plan_force] — so a rewrite or planner change
   that hides a hazard class from the analysis fails lint, not a user. *)

type finding = { area : string; detail : string }

let describe f = Printf.sprintf "%s: %s" f.area f.detail

let run () =
  Gbtl.Format_stats.with_enabled true (fun () ->
      let fs = ref [] in
      let add detail = fs := { area = "effects"; detail } :: !fs in
      let mat n =
        Ogb.Container.matrix_dense
          (List.init n (fun i ->
               List.init n (fun j -> if i = j then 0.0 else 1.0)))
      in
      let vec n x = Ogb.Container.vector_dense (List.init n (fun _ -> x)) in
      let open Ogb.Ops.Infix in
      let with_arith f =
        Ogb.Context.with_ops
          [ Ogb.Context.semiring "Arithmetic"; Ogb.Context.binary "Plus" ]
          f
      in
      let find = Effects.find ~assume_formats:true in
      (* lower + rewrite without the planner, so the fixtures' layouts
         come deterministically from the heuristic *)
      let plan_of e =
        let p = Exec.Plan.of_expr e in
        Exec.Rewrite.run p;
        p
      in
      (* seeded CSC hazard: two unordered transposed pull products over
         one uncached matrix (filled-in 64-vectors select pull) *)
      let a = mat 64 and u = vec 64 1.0 and v = vec 64 2.0 in
      let plan =
        plan_of (with_arith (fun () -> (tr !!a @. !!u) +: (tr !!a @. !!v)))
      in
      if
        not
          (List.exists
             (fun h -> h.Effects.cls = Effects.Csc_cache)
             (find plan))
      then add "seeded CSC-cache hazard (y = A.T@u + A.T@v) was not flagged";
      ignore (Effects.remedy ~strategy:Effects.Prebuild plan);
      (match find plan with
      | [] -> ()
      | l ->
        add
          (Printf.sprintf "%d hazard(s) survive the Prebuild remedy"
             (List.length l)));
      (* a hazard-free plan must pass *)
      let clean =
        plan_of (with_arith (fun () -> !!(mat 8) @. !!(vec 8 1.0)))
      in
      (match find clean with
      | [] -> ()
      | l ->
        add
          (Printf.sprintf "false positive: %s" (Effects.describe (List.hd l))));
      (* seeded representation hazard: a dense vector with two unordered
         kernel consumers (Effects models each as a representation
         writer) *)
      let u64 = vec 64 1.0 and w1 = vec 64 2.0 and w2 = vec 64 3.0 in
      let p3 =
        plan_of (with_arith (fun () -> (!!u64 +: !!w1) +: (!!u64 +: !!w2)))
      in
      if
        not
          (List.exists (fun h -> h.Effects.cls = Effects.Rep_switch) (find p3))
      then
        add
          "seeded sparse/dense representation hazard (shared dense operand) \
           was not flagged";
      (* aliasing: two distinct containers over one physical vector — the
         case leaf-node identity (and CSE) cannot see *)
      let sv = Gbtl.Svector.of_dense Gbtl.Dtype.FP64 (Array.make 64 1.0) in
      let u1 = Ogb.Container.of_svector sv
      and u2 = Ogb.Container.of_svector sv in
      let p4 =
        plan_of (with_arith (fun () -> (!!u1 +: !!w1) +: (!!u2 +: !!w2)))
      in
      if
        not
          (List.exists (fun h -> h.Effects.cls = Effects.Rep_switch) (find p4))
      then add "aliased operands (two containers, one vector) were not flagged";
      List.rev !fs)

