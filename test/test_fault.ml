(* Chaos suite: every injection point in lib/fault is driven through the
   real pipeline and the observable result must be identical to the
   blocking closure path — faults may only show up in the resilience
   counters.  Also unit-tests the injection modes, the hardened disk
   cache, the circuit breaker and the scheduler degradation ladder. *)

open Gbtl

let f64 = Dtype.FP64

(* Fresh cache + pristine resilience state, restored on exit whatever
   the test does to backends, breaker tuning or fault arming. *)
let with_resilience f =
  let saved_dir = Jit.Disk_cache.dir () in
  let saved_backend = Jit.Dispatch.backend () in
  let saved_timeout = Jit.Native_backend.compile_timeout () in
  let saved_retries = Jit.Native_backend.compile_retries () in
  let saved_threshold = Jit.Breaker.get_threshold () in
  let saved_cooldown = Jit.Breaker.get_cooldown () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogb-fault-test-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Jit.Disk_cache.set_dir dir;
  Jit.Dispatch.clear_memory_cache ();
  Jit.Jit_stats.reset ();
  Jit.Breaker.reset ();
  Fault.disarm ();
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Jit.Breaker.set_threshold saved_threshold;
      Jit.Breaker.set_cooldown saved_cooldown;
      Jit.Breaker.reset ();
      Jit.Native_backend.set_compile_timeout saved_timeout;
      Jit.Native_backend.set_compile_retries saved_retries;
      Jit.Disk_cache.clear ();
      Jit.Disk_cache.set_dir saved_dir;
      Jit.Dispatch.set_backend saved_backend;
      Jit.Dispatch.clear_memory_cache ();
      Jit.Jit_stats.reset ())
    f

let entry_list e = List.sort compare (Entries.to_alist e)

(* one whole-pipeline native-eligible kernel invocation *)
let run_mxv ?(spec = Jit.Op_spec.arithmetic) ?(transpose = false) () =
  let a = Smatrix.of_dense f64 [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let u = Svector.of_dense f64 [| 10.0; 100.0 |] in
  entry_list (Jit.Kernels.mxv f64 spec ~transpose a u)

let mxv_expected = [ (0, 210.0); (1, 430.0) ]
let mxv_expected_t = [ (0, 310.0); (1, 420.0) ]

let check_mxv name got =
  Alcotest.check Alcotest.(list (pair int (float 0.0))) name mxv_expected got

let check_mxv_t name got =
  Alcotest.check Alcotest.(list (pair int (float 0.0))) name mxv_expected_t got

let stats () = Jit.Jit_stats.snapshot ()

let write_raw path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* -- injection modes and spec parsing -- *)

let fire_seq point n = List.init n (fun _ -> Fault.fire point)

let test_modes () =
  with_resilience (fun () ->
      let p = "sched.worker.exn" in
      Alcotest.(check bool) "disarmed never fires" false
        (List.mem true (fire_seq p 5));
      Fault.arm [ (p, Fault.Once) ];
      Alcotest.(check (list bool)) "once" [ true; false; false ] (fire_seq p 3);
      Fault.arm [ (p, Fault.Times 2) ];
      Alcotest.(check (list bool)) "x2" [ true; true; false; false ]
        (fire_seq p 4);
      Fault.arm [ (p, Fault.After 2) ];
      Alcotest.(check (list bool)) "after2" [ false; false; true; true ]
        (fire_seq p 4);
      Fault.arm [ (p, Fault.Always) ];
      Alcotest.(check (list bool)) "always" [ true; true ] (fire_seq p 2);
      Alcotest.(check int) "attempts counted" 2 (Fault.attempts p);
      Alcotest.(check int) "fires counted" 2 (Fault.fired p);
      Fault.arm ~seed:3 [ (p, Fault.Prob 0.5) ];
      let s1 = fire_seq p 40 in
      Fault.arm ~seed:3 [ (p, Fault.Prob 0.5) ];
      let s2 = fire_seq p 40 in
      Alcotest.(check (list bool)) "seeded Prob is reproducible" s1 s2;
      let fired = List.length (List.filter Fun.id s1) in
      Alcotest.(check bool) "p0.5 fires sometimes, not always" true
        (fired > 0 && fired < 40);
      Alcotest.check_raises "unknown point rejected"
        (Invalid_argument "Fault: unknown injection point \"no.such.point\"")
        (fun () -> ignore (Fault.fire "no.such.point")))

let test_spec_parsing () =
  with_resilience (fun () ->
      (match
         Fault.arm_spec "native.compile.exit=once,sched.worker.exn=p0.25,seed=9"
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "valid spec rejected: %s" e);
      Alcotest.(check bool) "armed" true (Fault.armed ());
      let d = Fault.describe () in
      Alcotest.(check bool) "describe echoes the spec" true
        (String.length d > 0 && d <> "disarmed");
      let bad s =
        match Fault.arm_spec s with
        | Ok () -> Alcotest.failf "bad spec %S accepted" s
        | Error _ -> ()
      in
      bad "bogus.point=always";
      bad "native.compile.exit=zap";
      bad "native.compile.exit=p1.5";
      bad "native.compile.exit";
      bad "seed=xyz";
      (match Fault.arm_spec "" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "empty spec should disarm: %s" e);
      Alcotest.(check bool) "empty spec disarms" false (Fault.armed ()))

(* -- hardened disk cache -- *)

let test_atomic_store () =
  with_resilience (fun () ->
      (match Jit.Disk_cache.store_source "cafe01" "let x = 1\n" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "store failed: %s" e);
      Alcotest.(check (option string)) "roundtrip" (Some "let x = 1\n")
        (Jit.Disk_cache.read_source "cafe01");
      let leftovers =
        Array.to_list (Sys.readdir (Jit.Disk_cache.dir ()))
        |> List.filter (fun f ->
               (* any temp-file residue means the write was not atomic *)
               List.exists
                 (fun part -> part = "tmp")
                 (String.split_on_char '.' f))
      in
      Alcotest.(check (list string)) "no temp files left" [] leftovers)

let test_mkdir_race () =
  with_resilience (fun () ->
      Fault.arm [ ("cache.mkdir.race", Fault.Always) ];
      (* every dir() call now re-runs mkdir on an existing directory;
         the EEXIST must be absorbed *)
      ignore (Jit.Disk_cache.dir ());
      ignore (Jit.Disk_cache.dir ());
      match Jit.Disk_cache.store_source "cafe02" "x" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "store under mkdir race: %s" e)

let test_write_failures_contained () =
  with_resilience (fun () ->
      Fault.arm [ ("cache.write.eacces", Fault.Always) ];
      (match Jit.Disk_cache.store_source "cafe03" "x" with
      | Ok () -> Alcotest.fail "EACCES write should report an error"
      | Error _ -> ());
      Alcotest.(check int) "write failure counted" 1
        (stats ()).Jit.Jit_stats.cache_write_failures;
      (* the whole pipeline still answers correctly *)
      check_mxv "mxv under EACCES cache" (run_mxv ());
      Fault.arm [ ("cache.write.enospc", Fault.Always) ];
      check_mxv_t "mxv under ENOSPC cache" (run_mxv ~transpose:true ()))

let test_clear_sweeps_everything () =
  with_resilience (fun () ->
      let d = Jit.Disk_cache.dir () in
      write_raw (Filename.concat d "Kern_aa.ml") "x";
      write_raw (Filename.concat d "Kern_aa.stderr") "boom";
      write_raw (Filename.concat d "probe_1234.ml") "x";
      write_raw (Filename.concat d "orphan.stderr") "boom";
      write_raw (Filename.concat d "unrelated.txt") "keep";
      Jit.Disk_cache.clear ();
      let left = List.sort compare (Array.to_list (Sys.readdir d)) in
      Alcotest.(check (list string))
        "only non-cache files survive" [ "unrelated.txt" ] left)

let test_integrity_scan_flags_corruption () =
  with_resilience (fun () ->
      let hash = "feedface" in
      write_raw (Jit.Disk_cache.cmxs_path hash) "plugin-bytes";
      write_raw (Jit.Disk_cache.sum_path hash)
        "cmxs:00000000000000000000000000000000\n";
      (match Jit.Disk_cache.integrity_scan () with
      | [ (h, `Mismatch) ] ->
        Alcotest.(check string) "scan names the entry" hash h
      | scan -> Alcotest.failf "unexpected scan size %d" (List.length scan));
      let r = Jit.Health.collect ~probe:false () in
      Alcotest.(check int) "doctor counts the corrupt entry" 1 r.cache_mismatch;
      Alcotest.(check bool) "doctor verdict degraded" false
        (Jit.Health.healthy r);
      Alcotest.(check bool) "report renders" true
        (String.length (Jit.Health.to_string r) > 0))

(* -- native pipeline faults (skip when no toolchain) -- *)

let native_or_skip () =
  if not (Jit.Native_backend.available ()) then Alcotest.skip ()

let test_compile_exit_falls_back () =
  native_or_skip ();
  with_resilience (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Native;
      Fault.arm [ ("native.compile.exit", Fault.Always) ];
      check_mxv "correct via closure fallback" (run_mxv ());
      let s = stats () in
      Alcotest.(check int) "native failure counted" 1 s.native_failures;
      Alcotest.(check int) "no native compile" 0 s.native_compiles;
      Alcotest.(check int) "closure compile served it" 1 s.compiles)

let test_signal_retried () =
  native_or_skip ();
  with_resilience (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Native;
      Jit.Native_backend.set_compile_retries 1;
      Fault.arm [ ("native.compile.signal", Fault.Once) ];
      check_mxv "correct after one retry" (run_mxv ());
      let s = stats () in
      Alcotest.(check int) "retry counted" 1 s.compile_retries;
      Alcotest.(check int) "retry succeeded natively" 1 s.native_compiles;
      Alcotest.(check int) "no failure recorded" 0 s.native_failures)

let test_hang_timed_out_then_retried () =
  native_or_skip ();
  with_resilience (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Native;
      Jit.Native_backend.set_compile_timeout 0.3;
      Jit.Native_backend.set_compile_retries 1;
      Fault.arm [ ("native.compile.hang", Fault.Once) ];
      let t0 = Unix.gettimeofday () in
      check_mxv "correct after killing the hung compiler" (run_mxv ());
      let elapsed = Unix.gettimeofday () -. t0 in
      let s = stats () in
      Alcotest.(check int) "timeout counted" 1 s.compile_timeouts;
      Alcotest.(check int) "retry counted" 1 s.compile_retries;
      Alcotest.(check int) "retry succeeded natively" 1 s.native_compiles;
      Alcotest.(check bool) "runaway compiler killed promptly" true
        (elapsed < 15.0))

let test_load_faults_fall_back () =
  native_or_skip ();
  with_resilience (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Native;
      Fault.arm [ ("native.load.dynlink", Fault.Always) ];
      check_mxv "dynlink refusal -> closure" (run_mxv ());
      Alcotest.(check bool) "failure counted" true
        ((stats ()).native_failures >= 1);
      Jit.Dispatch.clear_memory_cache ();
      Fault.arm [ ("native.load.unregistered", Fault.Always) ];
      check_mxv_t "unregistered key -> closure" (run_mxv ~transpose:true ()))

let test_corrupt_cmxs_quarantined () =
  native_or_skip ();
  with_resilience (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Native;
      check_mxv "cold native compile" (run_mxv ());
      Alcotest.(check int) "compiled natively" 1 (stats ()).native_compiles;
      (* drop the in-memory kernel, then corrupt the on-disk artifact the
         next lookup would otherwise Dynlink *)
      Jit.Dispatch.clear_memory_cache ();
      Fault.arm [ ("cache.corrupt.cmxs", Fault.Once) ];
      check_mxv "recompiled after quarantine" (run_mxv ());
      let s = stats () in
      Alcotest.(check int) "quarantine counted" 1 s.checksum_quarantines;
      Alcotest.(check int) "recompiled" 2 s.native_compiles;
      let bads =
        Array.to_list (Sys.readdir (Jit.Disk_cache.dir ()))
        |> List.filter (fun f -> Filename.check_suffix f ".cmxs.bad")
      in
      Alcotest.(check int) "corrupt artifact kept for post-mortem" 1
        (List.length bads))

let test_probe_leaves_no_residue () =
  native_or_skip ();
  with_resilience (fun () ->
      ignore (Jit.Native_backend.available ());
      let residue =
        Array.to_list (Sys.readdir (Jit.Disk_cache.dir ()))
        |> List.filter (fun f ->
               String.length f >= 6 && String.sub f 0 6 = "probe_")
      in
      Alcotest.(check (list string)) "no probe_* files left" [] residue)

(* -- circuit breaker -- *)

let test_breaker_unit () =
  with_resilience (fun () ->
      Jit.Breaker.set_threshold 3;
      Jit.Breaker.set_cooldown 0.1;
      Alcotest.(check bool) "closed allows" true (Jit.Breaker.allow ());
      Jit.Breaker.failure ();
      Jit.Breaker.failure ();
      Alcotest.(check bool) "still closed below threshold" true
        (Jit.Breaker.state () = Jit.Breaker.Closed);
      Jit.Breaker.failure ();
      Alcotest.(check bool) "trips at threshold" true
        (Jit.Breaker.state () = Jit.Breaker.Open);
      Alcotest.(check int) "trip counted" 1 (stats ()).breaker_trips;
      Alcotest.(check bool) "open short-circuits" false (Jit.Breaker.allow ());
      Alcotest.(check bool) "short-circuit counted" true
        ((stats ()).breaker_short_circuits >= 1);
      Unix.sleepf 0.15;
      Alcotest.(check bool) "half-open trial after cooldown" true
        (Jit.Breaker.allow ());
      Alcotest.(check bool) "now half-open" true
        (Jit.Breaker.state () = Jit.Breaker.Half_open);
      Alcotest.(check bool) "only one trial at a time" false
        (Jit.Breaker.allow ());
      Jit.Breaker.failure ();
      Alcotest.(check bool) "failed trial re-opens" true
        (Jit.Breaker.state () = Jit.Breaker.Open);
      Unix.sleepf 0.15;
      ignore (Jit.Breaker.allow ());
      Jit.Breaker.success ();
      Alcotest.(check bool) "successful trial closes" true
        (Jit.Breaker.state () = Jit.Breaker.Closed))

let test_breaker_integration () =
  native_or_skip ();
  with_resilience (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Native;
      Jit.Breaker.set_threshold 2;
      Jit.Breaker.set_cooldown 0.05;
      Fault.arm [ ("native.compile.exit", Fault.Always) ];
      (* distinct signatures so each lookup attempts a fresh compile *)
      check_mxv "failure 1 (closure)" (run_mxv ());
      check_mxv_t "failure 2 trips (closure)" (run_mxv ~transpose:true ());
      Alcotest.(check bool) "breaker open after threshold failures" true
        (Jit.Breaker.state () = Jit.Breaker.Open);
      (* a third distinct signature: the open breaker short-circuits it
         straight to the closure backend without attempting a compile *)
      let alt =
        { Jit.Op_spec.arithmetic with Jit.Op_spec.mul_op = "Plus" }
      in
      ignore (run_mxv ~spec:alt ());
      let s = stats () in
      Alcotest.(check int) "exactly two native attempts failed" 2
        s.native_failures;
      Alcotest.(check bool) "short circuits counted" true
        (s.breaker_short_circuits >= 1);
      Alcotest.(check int) "one trip" 1 s.breaker_trips;
      (* cooldown elapses, faults disarmed: the half-open trial compiles
         natively and closes the breaker *)
      Fault.disarm ();
      Jit.Dispatch.clear_memory_cache ();
      Unix.sleepf 0.1;
      check_mxv "half-open trial result" (run_mxv ());
      Alcotest.(check bool) "breaker closed after recovery" true
        (Jit.Breaker.state () = Jit.Breaker.Closed);
      Alcotest.(check bool) "recovered natively" true
        ((stats ()).native_compiles >= 1))

(* -- dispatch single-flight -- *)

let test_single_flight () =
  with_resilience (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Closure;
      let sig_ =
        Jit.Kernel_sig.make ~op:"slow_build" ~dtypes:[ ("T", "double") ] ()
      in
      let builds = Atomic.make 0 in
      let build () =
        Atomic.incr builds;
        Unix.sleepf 0.05;
        Obj.repr (fun (x : int) -> x + 1)
      in
      let other = Domain.spawn (fun () -> Jit.Dispatch.get sig_ ~build ()) in
      let k1 = Jit.Dispatch.get sig_ ~build () in
      let k2 = Domain.join other in
      Alcotest.(check int) "built exactly once" 1 (Atomic.get builds);
      Alcotest.(check bool) "both callers share the kernel" true (k1 == k2))

(* -- scheduler containment -- *)

let vec n f = Ogb.Container.of_svector (Svector.of_dense f64 (Array.init n f))

let sched_expr () =
  let a = vec 32 float_of_int and b = vec 32 (fun i -> float_of_int (2 * i)) in
  fun () ->
    Ogb.Context.with_ops
      [ Ogb.Context.binary "Plus" ]
      (fun () ->
        Ogb.Expr.apply
          ~f:(Jit.Op_spec.Named "AdditiveInverse")
          (Ogb.Expr.add (Ogb.Expr.of_container a) (Ogb.Expr.of_container b)))

(* Two independent products joined by an element-wise add: three
   kernel nodes, the two products ready at once. *)
let two_products_program () =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let n = 96 in
  let m =
    Container.matrix_coo ~nrows:n ~ncols:n
      (List.init n (fun i ->
           (i, ((i * 5) + 1) mod n, 1.0 +. float_of_int (i mod 3))))
  in
  let u =
    Container.vector_coo ~size:n (List.init n (fun i -> (i, float_of_int i)))
  in
  let v = Container.vector_coo ~size:n [ (3, 2.0); (40, -1.0) ] in
  let w = Container.vector_empty n in
  Ops.set w ((!!m @. !!u) +: (!!m @. !!v));
  Container.vector_entries w

(* The plan above is neither one kernel nor a chain.  A failed node
   sends it straight to the blocking evaluator, bit for bit; with
   containment off the failure surfaces located. *)
let test_worker_exn_blocking_result () =
  with_resilience (fun () ->
      let baseline = two_products_program () in
      let nonblocking () =
        Exec.with_mode Exec.Nonblocking two_products_program
      in
      Fault.arm [ ("sched.worker.exn", Fault.Once) ];
      Alcotest.(check bool) "identical to the blocking result" true
        (nonblocking () = baseline);
      Alcotest.(check int) "one blocking fallback" 1
        (stats ()).blocking_fallbacks;
      Exec.set_containment false;
      Fun.protect
        ~finally:(fun () -> Exec.set_containment true)
        (fun () ->
          Fault.arm [ ("sched.worker.exn", Fault.Once) ];
          match nonblocking () with
          | _ -> Alcotest.fail "expected a located Node_error"
          | exception
              Exec.Scheduler.Node_error { error = Fault.Injected _; _ } ->
            ()))

let test_worker_exn_blocking_fallback () =
  with_resilience (fun () ->
      let expr = sched_expr () in
      let baseline = Ogb.Expr.force (expr ()) in
      Fault.arm [ ("sched.worker.exn", Fault.Always) ];
      let faulted =
        Exec.with_mode Exec.Nonblocking (fun () -> Ogb.Expr.force (expr ()))
      in
      Alcotest.(check bool) "identical result via blocking path" true
        (Ogb.Container.equal baseline faulted);
      Alcotest.(check int) "blocking fallback counted" 1
        (stats ()).blocking_fallbacks)

let test_containment_off_raises () =
  with_resilience (fun () ->
      let expr = sched_expr () in
      Exec.set_containment false;
      Fun.protect
        ~finally:(fun () -> Exec.set_containment true)
        (fun () ->
          Fault.arm [ ("sched.worker.exn", Fault.Always) ];
          match
            Exec.with_mode Exec.Nonblocking (fun () ->
                Ogb.Expr.force (expr ()))
          with
          | _ -> Alcotest.fail "expected a located Node_error"
          | exception Exec.Scheduler.Node_error { error; _ } -> (
            match error with
            | Fault.Injected _ -> ()
            | e ->
              Alcotest.failf "wrong nested error: %s" (Printexc.to_string e))))

let test_worker_slow_is_harmless () =
  with_resilience (fun () ->
      let expr = sched_expr () in
      let baseline = Ogb.Expr.force (expr ()) in
      Fault.arm [ ("sched.worker.slow", Fault.Always) ];
      let slowed =
        Exec.with_mode Exec.Nonblocking (fun () -> Ogb.Expr.force (expr ()))
      in
      Alcotest.(check bool) "slow workers change nothing" true
        (Ogb.Container.equal baseline slowed);
      Alcotest.(check int) "no failures" 0 (stats ()).blocking_fallbacks)

(* -- tier-1 algorithms bit-identical under every fault class -- *)

let sorted l = List.sort compare l

type tier1 = {
  bfs : (int * int) list;
  sssp : (int * float) list;
  pr : (int * float) list;
  pr_iters : int;
  tri : float;
}

let tier1_fixture () =
  let rng = Graphs.Rng.create ~seed:77 in
  let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:16 in
  let gc = Ogb.Container.of_smatrix (Graphs.Convert.bool_adjacency g) in
  let sc =
    Ogb.Container.of_smatrix (Graphs.Convert.matrix_of_edges f64 g)
  in
  let sym = Graphs.Edge_list.symmetrize g in
  let lc =
    Ogb.Container.of_smatrix
      (Algorithms.Triangle.of_undirected (Graphs.Convert.bool_adjacency sym))
  in
  (gc, sc, lc)

let run_tier1 (gc, sc, lc) =
  let bfs =
    sorted (Algorithms.Bfs.levels_of_container (Algorithms.Bfs.dsl gc ~src:0))
  in
  let sssp =
    sorted
      (Algorithms.Sssp.distances_of_container (Algorithms.Sssp.dsl sc ~src:0))
  in
  let ranks, pr_iters = Algorithms.Pagerank.dsl sc in
  let pr = sorted (Algorithms.Pagerank.ranks_of_container ranks) in
  let tri = Algorithms.Triangle.dsl lc in
  { bfs; sssp; pr; pr_iters; tri }

let check_tier1 name baseline chaos =
  Alcotest.check
    Alcotest.(list (pair int int))
    (name ^ ": bfs levels identical") baseline.bfs chaos.bfs;
  Alcotest.check
    Alcotest.(list (pair int (float 0.0)))
    (name ^ ": sssp distances identical") baseline.sssp chaos.sssp;
  Alcotest.check
    Alcotest.(list (pair int (float 0.0)))
    (name ^ ": pagerank ranks identical") baseline.pr chaos.pr;
  Alcotest.(check int)
    (name ^ ": pagerank iterations identical")
    baseline.pr_iters chaos.pr_iters;
  Alcotest.check (Alcotest.float 0.0)
    (name ^ ": triangle count identical") baseline.tri chaos.tri

(* (name, OGB_FAULTS-style spec, wants the native backend) *)
let chaos_matrix =
  [ ("compile-exit", "native.compile.exit=always", true);
    ("corrupt-cmxs", "cache.corrupt.cmxs=always", true);
    ("cache-eacces", "cache.write.eacces=always", false);
    ("worker-exn", "sched.worker.exn=p0.4,seed=11", false);
    ("worker-slow", "sched.worker.slow=p0.5,seed=5", false) ]

let test_tier1_chaos (name, spec, wants_native) () =
  if wants_native then native_or_skip ();
  let fixture = tier1_fixture () in
  (* blocking closure path, no faults: the ground truth *)
  let baseline =
    with_resilience (fun () ->
        Jit.Dispatch.set_backend Jit.Dispatch.Closure;
        run_tier1 fixture)
  in
  let chaos =
    with_resilience (fun () ->
        Jit.Dispatch.set_backend
          (if wants_native then Jit.Dispatch.Native else Jit.Dispatch.Auto);
        (match Fault.arm_spec spec with
        | Ok () -> ()
        | Error e -> Alcotest.failf "bad chaos spec: %s" e);
        Exec.with_mode Exec.Nonblocking (fun () -> run_tier1 fixture))
  in
  check_tier1 name baseline chaos

let suite =
  [ Alcotest.test_case "injection modes" `Quick test_modes;
    Alcotest.test_case "OGB_FAULTS spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "atomic source store" `Quick test_atomic_store;
    Alcotest.test_case "mkdir TOCTOU race absorbed" `Quick test_mkdir_race;
    Alcotest.test_case "cache write failures contained" `Quick
      test_write_failures_contained;
    Alcotest.test_case "clear sweeps stderr and probe files" `Quick
      test_clear_sweeps_everything;
    Alcotest.test_case "integrity scan flags corruption" `Quick
      test_integrity_scan_flags_corruption;
    Alcotest.test_case "compiler nonzero exit -> closure fallback" `Quick
      test_compile_exit_falls_back;
    Alcotest.test_case "compiler signal death retried" `Quick
      test_signal_retried;
    Alcotest.test_case "hung compiler killed and retried" `Quick
      test_hang_timed_out_then_retried;
    Alcotest.test_case "load failures fall back" `Quick
      test_load_faults_fall_back;
    Alcotest.test_case "corrupt plugin quarantined and recompiled" `Quick
      test_corrupt_cmxs_quarantined;
    Alcotest.test_case "availability probe cleans up" `Quick
      test_probe_leaves_no_residue;
    Alcotest.test_case "circuit breaker lifecycle" `Quick test_breaker_unit;
    Alcotest.test_case "breaker trips and recovers through dispatch" `Quick
      test_breaker_integration;
    Alcotest.test_case "concurrent lookups build once" `Quick
      test_single_flight;
    Alcotest.test_case "worker exn on a DAG -> blocking result" `Quick
      test_worker_exn_blocking_result;
    Alcotest.test_case "persistent worker failure -> blocking fallback" `Quick
      test_worker_exn_blocking_fallback;
    Alcotest.test_case "containment off surfaces located error" `Quick
      test_containment_off_raises;
    Alcotest.test_case "slow workers are harmless" `Quick
      test_worker_slow_is_harmless ]
  @ List.map
      (fun ((name, _, _) as case) ->
        Alcotest.test_case
          (Printf.sprintf "tier-1 bit-identical under %s" name)
          `Slow (test_tier1_chaos case))
      chaos_matrix
