(* The planner's shape cache: a force that replays a cached plan computes
   what the blocking evaluator computes, whatever layout, aliasing or
   dtype its new leaves have, and carries the cold plan's rewrite
   events; the cache never accepts a plan that a cold plan rejects,
   holds on to no container, and serves two domains at once. *)

open Gbtl

let f64 = Dtype.FP64

let with_hook f =
  Fault.suspended @@ fun () ->
  Analysis.Hook.install ();
  Fun.protect ~finally:Analysis.Hook.uninstall f

let hits () = List.assoc "cache_hits" (Exec.Planner.counters ())

let nonblocking_masked ?mask e =
  Exec.with_mode Exec.Nonblocking (fun () -> Ogb.Expr.force_masked ?mask e)

let last_rewrites () =
  match Exec.last_trace () with
  | Some t -> t.Exec.Trace.rewrites
  | None -> Alcotest.fail "no trace recorded"

(* ---- replay over Test_expr_random shapes ---- *)

(* How a force's leaves are rebuilt: the layout of every leaf, whether
   leaf 1 is leaf 0's container (aliased, which lowering merges) or a
   separate container with leaf 0's entries, the dtype, and the write
   mask (none, or the case's mask, plain or complemented). *)
type variant = {
  dense : bool;
  alias : [ `No | `Same | `Twin ];
  dtype : Dtype.packed;
  mask : [ `None | `Plain | `Complement ];
}

let variants =
  let base =
    { dense = false; alias = `No; dtype = Dtype.P f64; mask = `None }
  in
  [ base;
    { base with dense = true };
    { base with alias = `Same };
    { base with alias = `Twin };
    { base with dtype = Dtype.P Dtype.Int64 };
    { base with dense = true; dtype = Dtype.P Dtype.FP32 };
    { base with mask = `Plain };
    { base with mask = `Complement };
    { base with dense = true; mask = `Plain } ]

let print_variant v =
  Printf.sprintf "{dense=%b; alias=%s; dtype=%s; mask=%s}" v.dense
    (match v.alias with `No -> "no" | `Same -> "same" | `Twin -> "twin")
    (let (Dtype.P dt) = v.dtype in Dtype.name dt)
    (match v.mask with
    | `None -> "none"
    | `Plain -> "plain"
    | `Complement -> "complement")

let leaves_of v models =
  let (Dtype.P dt) = v.dtype in
  let mk m =
    let s = Svector.cast ~into:dt (Dense_ref.svector_of_vec f64 m) in
    if v.dense then Svector.densify s else Svector.sparsify s;
    Ogb.Container.of_svector s
  in
  let leaves = Array.map mk models in
  (match v.alias with
  | `No -> ()
  | `Same -> leaves.(1) <- leaves.(0)
  | `Twin -> leaves.(1) <- mk models.(0));
  leaves

let rotate models = Array.init (Array.length models) (fun i ->
    models.((i + 1) mod Array.length models))

let mask_of v m =
  let mask complemented =
    Some
      { Ogb.Expr.container =
          Ogb.Container.of_svector (Dense_ref.svector_of_vec f64 m);
        complemented }
  in
  match v.mask with
  | `None -> None
  | `Plain -> mask false
  | `Complement -> mask true

(* Every variant is forced twice with freshly built leaves (the second
   time over other values), without emptying the cache between
   variants, so a force may replay a plan that another variant or the
   first force stored.  Each result must equal the blocking evaluator's
   on the same leaves, the second force must be a cache hit, and both
   must carry the rewrite events and add the fusion counts that a cold
   plan of that variant does. *)
let qcheck_replay =
  Helpers.qtest ~count:100
    "replayed plans match blocking at any layout, aliasing, dtype and mask"
    (QCheck.make
       QCheck.Gen.(
         pair Test_expr_random.case_gen
           (Helpers.vec_gen Test_expr_random.size))
       ~print:(fun (c, _) -> Test_expr_random.print_case c))
    (fun ((e, models), mask_model) ->
      with_hook @@ fun () ->
      Exec.Planner.clear_cache ();
      let force v models =
        let leaves = leaves_of v models in
        let mask = mask_of v mask_model in
        let expected =
          Ogb.Expr.force_blocking_masked ?mask
            (Test_expr_random.to_expr leaves e)
        in
        let fusions0 = Jit.Jit_stats.fusions () in
        let got =
          nonblocking_masked ?mask (Test_expr_random.to_expr leaves e)
        in
        let fusions =
          List.filter_map
            (fun (k, n) ->
              match n - Option.value ~default:0 (List.assoc_opt k fusions0) with
              | 0 -> None
              | d -> Some (k, d))
            (Jit.Jit_stats.fusions ())
        in
        if
          not
            (Ogb.Container.equal (fst expected) (fst got)
            && snd expected = snd got)
        then
          QCheck.Test.fail_reportf "%s: nonblocking differs from blocking"
            (print_variant v);
        (last_rewrites (), List.sort compare fusions)
      in
      let warm =
        List.map
          (fun v ->
            let first = force v models in
            let h = hits () in
            let second = force v (rotate models) in
            if hits () <> h + 1 then
              QCheck.Test.fail_reportf "%s: repeated shape missed the cache"
                (print_variant v);
            if first <> second then
              QCheck.Test.fail_reportf
                "%s: replay changed the rewrite events or fusion counts"
                (print_variant v);
            (v, first))
          variants
      in
      List.for_all
        (fun (v, events) ->
          Exec.Planner.clear_cache ();
          force v models = events
          || QCheck.Test.fail_reportf
               "%s: events or fusion counts differ from a cold plan"
               (print_variant v))
        warm)

(* ---- unit tests ---- *)

let mat4 () =
  Ogb.Container.of_smatrix
    (Smatrix.of_coo f64 4 4
       [ (0, 1, 2.0); (1, 2, 3.0); (2, 0, 4.0); (3, 3, 1.0); (0, 3, -1.0) ])

let vec n f = Ogb.Container.of_svector (Svector.of_dense f64 (Array.init n f))

let product a u =
  Ogb.Expr.matmul
    (Ogb.Expr.transpose (Ogb.Expr.of_container a))
    (Ogb.Expr.of_container u)

let verify_error f =
  match f () with
  | _ -> Alcotest.fail "plan accepted"
  | exception Analysis.Verify.Verify_error { stage; node; message } ->
    (stage, node, message)

(* A leaf whose size stops matching a cached shape is rejected exactly as
   a cold plan rejects it, also after the same bad plan was once planned
   with no verifier installed. *)
let test_mismatch_rejected_like_cold () =
  Fault.suspended @@ fun () ->
  Exec.Planner.clear_cache ();
  let a = mat4 () in
  let bad () = product a (vec 5 float_of_int) in
  (match Exec.force (bad ()) with
  | _ -> Alcotest.fail "unverified mismatch computed a result"
  | exception _ -> ());
  with_hook @@ fun () ->
  let good = Exec.force (product a (vec 4 float_of_int)) in
  let h = hits () in
  let again = Exec.force (product a (vec 4 float_of_int)) in
  Alcotest.(check int) "repeated shape hits" (h + 1) (hits ());
  Alcotest.(check bool) "same result" true (Ogb.Container.equal good again);
  let warm = verify_error (fun () -> Exec.force (bad ())) in
  let warm_again = verify_error (fun () -> Exec.force (bad ())) in
  Exec.Planner.clear_cache ();
  let cold = verify_error (fun () -> Exec.force (bad ())) in
  let show (s, n, m) = Printf.sprintf "%s/n%d: %s" s n m in
  Alcotest.(check string) "same error as a cold plan" (show cold) (show warm);
  Alcotest.(check string) "rejected again, never cached" (show cold)
    (show warm_again)

(* Forcing through the cache keeps neither a leaf nor the mask alive,
   yet the shape stays cached. *)
let test_cache_pins_no_container () =
  Fault.suspended @@ fun () ->
  Exec.Planner.clear_cache ();
  let a = mat4 () in
  let weak = Weak.create 2 in
  let force_once () =
    let u = vec 4 (fun i -> float_of_int (i + 1)) in
    let m = vec 4 (fun i -> float_of_int (i mod 2)) in
    Weak.set weak 0 (Some u);
    Weak.set weak 1 (Some m);
    ignore
      (nonblocking_masked
         ~mask:{ Ogb.Expr.container = m; complemented = false }
         (product a u))
  in
  (Sys.opaque_identity force_once) ();
  Gc.full_major ();
  Alcotest.(check bool) "leaf collected" false (Weak.check weak 0);
  Alcotest.(check bool) "mask collected" false (Weak.check weak 1);
  let h = hits () in
  ignore
    (nonblocking_masked
       ~mask:{ Ogb.Expr.container = vec 4 (fun _ -> 1.0); complemented = false }
       (product a (vec 4 float_of_int)));
  Alcotest.(check int) "shape still cached" (h + 1) (hits ())

(* Two domains force one multi-kernel shape, each over its own leaves;
   every result matches the blocking evaluator on the same leaves. *)
let test_two_domains_one_shape () =
  with_hook @@ fun () ->
  Exec.Planner.clear_cache ();
  let a = mat4 () in
  let expr u w =
    Ogb.Context.with_ops [ Ogb.Context.binary "Plus" ] (fun () ->
        Ogb.Expr.apply ~f:(Jit.Op_spec.Named "AdditiveInverse")
          (Ogb.Expr.add (product a u) (Ogb.Expr.of_container w)))
  in
  let worker k () =
    List.for_all
      (fun i ->
        let u = vec 4 (fun j -> float_of_int ((k * 100) + (i * 7) + j)) in
        let w = vec 4 (fun j -> float_of_int (k - j + i)) in
        Ogb.Container.equal
          (Ogb.Expr.force_blocking (expr u w))
          (Exec.force (expr u w)))
      (List.init 200 Fun.id)
  in
  let other = Domain.spawn (worker 2) in
  let here = worker 1 () in
  let there = Domain.join other in
  Alcotest.(check bool) "caller's results" true here;
  Alcotest.(check bool) "other domain's results" true there

let suite =
  [ Helpers.to_alcotest qcheck_replay;
    Alcotest.test_case "a mismatched leaf is rejected like a cold plan" `Quick
      test_mismatch_rejected_like_cold;
    Alcotest.test_case "the cache pins no leaf or mask" `Quick
      test_cache_pins_no_container;
    Alcotest.test_case "two domains force one shape" `Quick
      test_two_domains_one_shape ]
