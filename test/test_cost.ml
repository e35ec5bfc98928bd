(* Schedules: grammar round-trips, the greedy pipeline stays
   bit-identical to every corner pin across random DAGs, and every force
   runs the mandatory pre-schedule effects check. *)

open Gbtl
module Sched = Cost.Schedule

let f64 = Dtype.FP64

let with_pin sched f =
  Exec.Planner.pin sched;
  Fun.protect ~finally:(fun () -> Exec.Planner.pin None) f

(* ---- schedule grammar ---- *)

let sched_gen =
  let open QCheck.Gen in
  let choice = oneofl [ Sched.Auto; Sched.Pull; Sched.Push ] in
  let rules =
    (* at most one override per rule name: the canonical form orders and
       dedups, so duplicates would not be a round-trip property *)
    flatten_l
      (List.map
         (fun r ->
           frequency
             [ (2, return None); (1, map (fun b -> Some (r, b)) bool) ])
         Sched.rule_names)
    >|= List.filter_map Fun.id
  in
  rules >>= fun rules ->
  choice >|= fun layout -> { Sched.rules; layout }

let print_sched s = Sched.to_string s

let qcheck_roundtrip =
  Helpers.qtest ~count:300 "schedule: parse inverts to_string"
    (QCheck.make sched_gen ~print:print_sched)
    (fun s ->
      match Sched.parse (Sched.to_string s) with
      | Error _ -> false
      | Ok t ->
        Sched.equal t (Sched.canonical s)
        && String.equal (Sched.to_string t) (Sched.to_string s))

let grammar_units () =
  let ok spec =
    match Sched.parse spec with
    | Ok t -> t
    | Error e -> Alcotest.failf "parse %S: %s" spec e
  in
  Alcotest.check Alcotest.bool "empty spec is the default schedule" true
    (Sched.is_default (ok ""));
  Alcotest.check Alcotest.bool "\"default\" is the default schedule" true
    (Sched.is_default (ok "default"));
  let off = ok "fuse=off" in
  List.iter
    (fun r ->
      Alcotest.check Alcotest.bool ("fuse=off disables " ^ r) false
        (Sched.rule_enabled off r))
    Sched.fusion_rules;
  Alcotest.check Alcotest.bool "fuse=off leaves push_mask alone" true
    (Sched.rule_enabled off "push_mask");
  Alcotest.check Alcotest.bool "csr is an alias for push" true
    ((ok "layout=csr").Sched.layout = Sched.Push);
  (match Sched.parse "bogus=on" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted");
  (match Sched.parse "layout=sideways" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad layout value accepted");
  match Sched.parse "fuse=maybe" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad toggle value accepted"

let of_env_units () =
  let set v = Unix.putenv "OGB_SCHEDULE" v in
  Fun.protect
    ~finally:(fun () -> set "")
    (fun () ->
      set "";
      Alcotest.check Alcotest.bool "unset/empty pins nothing" true
        (Sched.of_env () = None);
      set "layout=push";
      (match Sched.of_env () with
      | Some s -> Alcotest.check Alcotest.bool "env pin parsed" true
          (s.Sched.layout = Sched.Push)
      | None -> Alcotest.fail "valid OGB_SCHEDULE ignored");
      set "garbage";
      Alcotest.check Alcotest.bool "malformed env pin is a loud no-op" true
        (Sched.of_env () = None))

(* ---- greedy vs pins: bit-identical across random DAGs ---- *)

(* Degenerate pins cover the schedule space's corners: everything fused
   (the greedy default), nothing fused, and both forced directions.
   Every pin lives between these, and each of them must produce the
   same entries as the greedy default to the last bit. *)
let corner_schedules =
  [ Sched.default;
    List.fold_left
      (fun s r -> Sched.with_rule s r false)
      Sched.default Sched.rule_names;
    { Sched.default with Sched.layout = Sched.Pull };
    { Sched.default with Sched.layout = Sched.Push } ]

let qcheck_greedy_bit_identical =
  Helpers.qtest ~count:120 "greedy bit-identical to every corner pin"
    (QCheck.make Test_expr_random.case_gen
       ~print:Test_expr_random.print_case)
    (fun (e, leaf_models) ->
      let leaves () =
        Array.map
          (fun m ->
            Ogb.Container.of_svector (Dense_ref.svector_of_vec f64 m))
          leaf_models
      in
      let force sched =
        with_pin sched (fun () ->
            Ogb.Container.as_vector f64
              (Exec.force (Test_expr_random.to_expr (leaves ()) e)))
      in
      let greedy = force None in
      List.for_all
        (fun s -> Svector.equal greedy (force (Some s)))
        corner_schedules)

(* ---- the mandatory effects check runs on every force ---- *)

(* The effects gate at "pre-schedule" sits in [Exec.force] after
   planning, so every force of a plan is checked: two forces of one
   shape add exactly one effects check each. *)
let every_force_checked () =
  Fault.suspended @@ fun () ->
  Analysis.Hook.install ();
  Fun.protect ~finally:Analysis.Hook.uninstall (fun () ->
      let a =
        Ogb.Container.of_smatrix
          (Smatrix.of_coo f64 4 4
             [ (0, 1, 2.0); (1, 2, 3.0); (2, 0, 4.0); (3, 3, 1.0) ])
      in
      let u =
        Ogb.Container.of_svector
          (Svector.of_dense f64 [| 1.0; 2.0; 3.0; 4.0 |])
      in
      let force () =
        Ogb.Container.as_vector f64
          (Exec.force
             (Ogb.Expr.matmul
                (Ogb.Expr.transpose (Ogb.Expr.of_container a))
                (Ogb.Expr.of_container u)))
      in
      let checks () =
        (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.effects_checks
      in
      let c0 = checks () in
      let first = force () in
      Alcotest.check Alcotest.int "first force runs one effects check"
        (c0 + 1) (checks ());
      let second = force () in
      Alcotest.check Alcotest.int "second force runs one more" (c0 + 2)
        (checks ());
      Alcotest.check Alcotest.bool "both forces compute the same result" true
        (Svector.equal first second))

let suite =
  [ Helpers.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "schedule grammar corner cases" `Quick grammar_units;
    Alcotest.test_case "OGB_SCHEDULE pin parsing" `Quick of_env_units;
    Helpers.to_alcotest qcheck_greedy_bit_identical;
    Alcotest.test_case
      "every force runs the mandatory pre-schedule effects check" `Quick
      every_force_checked ]
