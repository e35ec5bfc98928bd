(* Cost-model planning: schedule grammar round-trips, the planner's
   schedules stay bit-identical to the frozen greedy pipeline across
   random DAGs, calibration files survive reload and fail loudly on
   corruption (and still load with rows of retired families), and a
   shape-changing candidate is rejected by the verify gate instead of
   being adopted. *)

open Gbtl
module Sched = Cost.Schedule

let f64 = Dtype.FP64

let with_pin sched f =
  Exec.Planner.pin sched;
  Fun.protect ~finally:(fun () -> Exec.Planner.pin None) f

(* Fresh calibration rooted in a throwaway cache dir, global state
   restored (and reloaded from the real path) whatever happens. *)
let with_calib_dir f =
  let saved = Jit.Disk_cache.dir () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogb-cost-test-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Jit.Disk_cache.set_dir dir;
  Cost.Calibration.reload ();
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Jit.Jit_stats.reset ();
      Jit.Disk_cache.set_dir saved;
      Cost.Calibration.reload ())
    (fun () -> f dir)

(* hand-rolled calibration file in the on-disk format (checksummed) *)
let write_calib ~gen coefs =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "ogb-calibration 1\ngeneration %d\n" gen);
  List.iter
    (fun (fam, ns, samples) ->
      Buffer.add_string b (Printf.sprintf "coef %s %.6f %d\n" fam ns samples))
    coefs;
  let body = Buffer.contents b in
  let oc = open_out_bin (Cost.Calibration.path ()) in
  output_string oc
    (body ^ Printf.sprintf "sum %s\n" (Digest.to_hex (Digest.string body)));
  close_out oc;
  Cost.Calibration.reload ()

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
  let pins =
    flatten_l
      (List.map
         (fun id ->
           frequency
             [ (2, return None); (1, map (fun c -> Some (id, c)) choice) ])
         [ 0; 1; 2; 3; 7 ])
    >|= List.filter_map Fun.id
  in
  rules >>= fun rules ->
  choice >>= fun layout ->
  pins >|= fun node_layouts -> { Sched.rules; layout; node_layouts }

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
  Alcotest.check Alcotest.bool "per-node pin overrides the global policy"
    true
    (Sched.node_layout (ok "layout=push,node3.layout=pull") 3 = Sched.Pull);
  Alcotest.check Alcotest.bool "missing node falls back to the policy" true
    (Sched.node_layout (ok "layout=push,node3.layout=pull") 4 = Sched.Push);
  (match Sched.parse "bogus=on" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown key accepted");
  (match Sched.parse "node3.layout=sideways" with
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

(* ---- planner vs greedy: bit-identical across random DAGs ---- *)

(* Degenerate pins cover the search space's corners: everything fused
   (the greedy baseline), nothing fused, and both forced directions.
   Whatever schedule the planner picks lives between these, and every
   one of them must produce the same entries to the last bit. *)
let corner_schedules =
  [ Sched.default;
    List.fold_left
      (fun s r -> Sched.with_rule s r false)
      Sched.default Sched.rule_names;
    { Sched.default with Sched.layout = Sched.Pull };
    { Sched.default with Sched.layout = Sched.Push } ]

let qcheck_planner_bit_identical =
  Helpers.qtest ~count:120
    "planner schedule bit-identical to greedy on random DAGs"
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
      let planner = force None in
      List.for_all
        (fun s -> Svector.equal planner (force (Some s)))
        corner_schedules)

(* ---- candidate verification gate ---- *)

let tampered_candidate_rejected () =
  Analysis.Hook.install ();
  Exec.Planner.clear_cache ();
  Exec.Planner.reset_counters ();
  (* every candidate copy gets its root kind silently flipped — exactly
     the class of defect the verify gate exists to catch *)
  Exec.Planner.candidate_tamper :=
    Some (fun cand -> (Exec.Plan.root cand).Exec.Plan.kind <- Exec.Plan.K_mat);
  Fun.protect
    ~finally:(fun () ->
      Exec.Planner.candidate_tamper := None;
      Analysis.Hook.uninstall ();
      Exec.Planner.clear_cache ())
    (fun () ->
      let a =
        Ogb.Container.of_smatrix
          (Smatrix.of_coo f64 4 4
             [ (0, 1, 2.0); (1, 2, 3.0); (2, 0, 4.0); (3, 3, 1.0) ])
      in
      let u =
        Ogb.Container.of_svector
          (Svector.of_dense f64 [| 1.0; 2.0; 3.0; 4.0 |])
      in
      let expr () =
        Ogb.Expr.matmul
          (Ogb.Expr.transpose (Ogb.Expr.of_container a))
          (Ogb.Expr.of_container u)
      in
      let plan = Exec.plan_force (expr ()) in
      let rejected =
        Option.value ~default:0
          (List.assoc_opt "rejected" (Exec.Planner.counters ()))
      in
      Alcotest.check Alcotest.bool "at least one candidate was rejected" true
        (rejected > 0);
      Alcotest.check Alcotest.string
        "no tampered schedule adopted: fallback is the greedy default"
        "default" plan.Exec.Plan.schedule_desc;
      let with_tamper =
        Ogb.Container.as_vector f64 (Exec.force (expr ()))
      in
      Exec.Planner.candidate_tamper := None;
      Exec.Planner.clear_cache ();
      let without =
        Ogb.Container.as_vector f64 (Exec.force (expr ()))
      in
      Alcotest.check Alcotest.bool "result unaffected by rejected candidates"
        true
        (Svector.equal with_tamper without))

(* ---- a schedule-cache hit is still verified ---- *)

(* A cache hit skips the candidate search and with it the candidate-stage
   checks, but the mandatory effects gate at "pre-schedule" sits in
   [Exec.force] after planning, so a second force of the same shape must
   still be checked: one cache hit, no search, one effects check. *)
let cache_hit_still_verified () =
  Fault.suspended @@ fun () ->
  Analysis.Hook.install ();
  Exec.Planner.clear_cache ();
  Exec.Planner.reset_counters ();
  Fun.protect
    ~finally:(fun () ->
      Analysis.Hook.uninstall ();
      Exec.Planner.clear_cache ())
    (fun () ->
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
      let counter name =
        Option.value ~default:0
          (List.assoc_opt name (Exec.Planner.counters ()))
      in
      let checks () =
        (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.effects_checks
      in
      let first = force () in
      let searches = counter "searches" and hits = counter "cache_hits" in
      Alcotest.check Alcotest.int "first force searches" 1 searches;
      let checks_before = checks () in
      let second = force () in
      Alcotest.check Alcotest.int "second force is a cache hit" (hits + 1)
        (counter "cache_hits");
      Alcotest.check Alcotest.int "second force does not search" searches
        (counter "searches");
      Alcotest.check Alcotest.int
        "second force still runs the pre-schedule effects check"
        (checks_before + 1) (checks ());
      Alcotest.check Alcotest.bool "cached schedule computes the same result"
        true
        (Svector.equal first second))

(* ---- calibration persistence ---- *)

let approx name expect got =
  Alcotest.check (Alcotest.float 1e-6) name expect got

let calibration_roundtrip () =
  (* [suspended]: a globally armed cost.calib.corrupt chaos spec would
     corrupt the very file whose round-trip this asserts *)
  with_calib_dir (fun _dir ->
      Fault.suspended @@ fun () ->
      Jit.Jit_stats.reset ();
      Alcotest.check Alcotest.bool "fresh state is uncalibrated" false
        (Cost.Calibration.calibrated ());
      Alcotest.check Alcotest.int "fresh generation" 0
        (Cost.Calibration.generation ());
      Jit.Jit_stats.record_kernel_time ~family:"mxv_pull" ~items:1000
        ~seconds:1.0e-4;
      (match Cost.Calibration.save () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      Alcotest.check Alcotest.int "save bumps the generation" 1
        (Cost.Calibration.generation ());
      approx "absorbed coefficient" 100.0
        (Option.get (Cost.Calibration.ns_per_item "mxv_pull"));
      Cost.Calibration.reload ();
      Alcotest.check Alcotest.int "generation survives reload" 1
        (Cost.Calibration.generation ());
      approx "coefficient survives reload" 100.0
        (Option.get (Cost.Calibration.ns_per_item "mxv_pull"));
      (* a second run blends instead of overwriting *)
      Jit.Jit_stats.reset ();
      Jit.Jit_stats.record_kernel_time ~family:"mxv_pull" ~items:1000
        ~seconds:3.0e-4;
      (match Cost.Calibration.save () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "second save: %s" e);
      Alcotest.check Alcotest.int "second save bumps again" 2
        (Cost.Calibration.generation ());
      approx "equal-weight blend of 100 and 300" 200.0
        (Option.get (Cost.Calibration.ns_per_item "mxv_pull"));
      Jit.Jit_stats.reset ())

let calibration_corruption () =
  with_calib_dir (fun _dir ->
      Jit.Jit_stats.reset ();
      Jit.Jit_stats.record_kernel_time ~family:"mxv_push" ~items:100
        ~seconds:1.0e-5;
      (match Cost.Calibration.save () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "save: %s" e);
      let p = Cost.Calibration.path () in
      let q0 = Cost.Calibration.quarantines () in
      (* torn/garbage file: quarantined, loud, defaults *)
      let oc = open_out_bin p in
      output_string oc "not a calibration file";
      close_out oc;
      Cost.Calibration.reload ();
      Alcotest.check Alcotest.bool "garbage file falls back to defaults"
        false
        (Cost.Calibration.calibrated ());
      Alcotest.check Alcotest.int "garbage generation resets" 0
        (Cost.Calibration.generation ());
      Alcotest.check Alcotest.bool "garbage file moved aside" true
        (Sys.file_exists (p ^ ".bad"));
      Alcotest.check Alcotest.int "quarantine counted" (q0 + 1)
        (Cost.Calibration.quarantines ());
      Sys.remove (p ^ ".bad");
      (* same path through the chaos harness injection point *)
      Jit.Jit_stats.reset ();
      Jit.Jit_stats.record_kernel_time ~family:"mxv_push" ~items:100
        ~seconds:1.0e-5;
      (match Cost.Calibration.save () with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "re-save: %s" e);
      Fault.arm [ ("cost.calib.corrupt", Fault.Always) ];
      Cost.Calibration.reload ();
      Alcotest.check Alcotest.bool "injected corruption falls back too"
        false
        (Cost.Calibration.calibrated ());
      Alcotest.check Alcotest.bool "injected corruption quarantined" true
        (Sys.file_exists (p ^ ".bad"));
      Alcotest.check Alcotest.int "second quarantine counted" (q0 + 2)
        (Cost.Calibration.quarantines ());
      Fault.disarm ())

(* ---- calibration files from before the pool.chunk family ---- *)

(* Earlier builds also persisted a [pool.chunk] coefficient (the
   chunked-kernel grain policy).  Such a file must still load: no
   quarantine, every other coefficient intact. *)
let legacy_pool_chunk_row () =
  with_calib_dir (fun _dir ->
      Fault.suspended @@ fun () ->
      let q0 = Cost.Calibration.quarantines () in
      write_calib ~gen:7
        [ ("compile", 15.0e6, 3); ("mxv_pull", 3.25, 12);
          ("pool.chunk", 41.5, 96) ];
      Alcotest.check Alcotest.int "generation kept" 7
        (Cost.Calibration.generation ());
      Alcotest.check Alcotest.int "not quarantined" q0
        (Cost.Calibration.quarantines ());
      Alcotest.check
        Alcotest.(option (float 1e-9))
        "mxv_pull kept" (Some 3.25)
        (Cost.Calibration.ns_per_item "mxv_pull");
      Alcotest.check
        Alcotest.(option (float 1e-9))
        "compile kept" (Some 15.0e6)
        (Cost.Calibration.ns_per_item "compile"))

let suite =
  [ Helpers.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "schedule grammar corner cases" `Quick grammar_units;
    Alcotest.test_case "OGB_SCHEDULE pin parsing" `Quick of_env_units;
    Helpers.to_alcotest qcheck_planner_bit_identical;
    Alcotest.test_case "shape-changing candidate is rejected" `Quick
      tampered_candidate_rejected;
    Alcotest.test_case "schedule-cache hit is still verified" `Quick
      cache_hit_still_verified;
    Alcotest.test_case "calibration round-trips and blends" `Quick
      calibration_roundtrip;
    Alcotest.test_case "corrupt calibration quarantines loudly" `Quick
      calibration_corruption;
    Alcotest.test_case "calibration with a pool.chunk row still loads" `Quick
      legacy_pool_chunk_row ]
