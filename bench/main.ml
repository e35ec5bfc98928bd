(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md §7 for the experiment index).

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- fig10        -- one experiment
     dune exec bench/main.exe -- fig10 --max 2048

   Experiments:
     fig10    four algorithms x three tiers on ER graphs, |E|=|V|^1.5
     fig11    container lifecycle: file read / construct / extract
     compile  JIT pipeline: cold compile vs disk vs memory dispatch, then
              warm native vs closure backend per registry algorithm
     table1   Table I notation conformance (executable check)
     ablation design-choice ablations (masked mxm, deferred eval, reuse)
     formats  CSR-only vs format-aware dispatch (PageRank, BFS),
              emits BENCH_formats.json
     faults   resilience: warm-path overhead of the hardening and chaos
              equivalence under injected faults, emits BENCH_faults.json
     serve    daemon mode: cold one-shot CLI vs resident warm daemon
              request latency and multi-session zero-compile check,
              emits BENCH_serve.json
     oocore   out-of-core tiled PageRank: in-memory vs streamed under a
              memory budget (bit-identity + eviction counts), plus the
              checkpointed and delta-restart variants,
              emits BENCH_oocore.json
     micro    Bechamel micro-benchmarks of the kernel families

   Tier timings of all eight tier-1 algorithms, blocking vs nonblocking
   included, are measured and gated by bench/e2e alone (its README). *)

open Gbtl

(* seconds on the monotonic clock: a wall-clock step must not move a
   timing *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time_once f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Best of [reps] timings in seconds, after one warmup call (which also
   warms the JIT caches, as the paper's methodology implies for steady
   state).  [timed] runs once and returns its own time. *)
let best_timed ?(reps = 3) timed =
  ignore (timed ());
  (* level the GC playing field between configurations *)
  Gc.full_major ();
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (timed ())
  done;
  !best

let best_of ?reps f = best_timed ?reps (fun () -> snd (time_once f))

let ms dt = 1000.0 *. dt

(* ---------------------------------------------------------------- *)
(* Fig. 10: BFS / SSSP / PageRank / triangle counting at three tiers  *)
(* ---------------------------------------------------------------- *)

type tier_times = { vm : float; dsl : float; whole : float; native : float }

(* Tiers 1 and 3 (and the dsl series) come from [Algorithms.Registry];
   tier 2, one interpreted call into the whole compiled algorithm, has
   no registry tier.  Like a registry tier, each call derives a fresh
   input from the loaded graph and times only the algorithm, so lazily
   built layouts (the CSC index bfs pulls through, say) cost every
   column alike. *)
let fig10_whole : (string * (float Smatrix.t -> unit -> float)) list =
  let bool_m m = Smatrix.cast ~into:Dtype.Bool m in
  let on input f m () =
    let c = Ogb.Container.of_smatrix (input m) in
    snd (time_once (fun () -> f c))
  in
  [ ("bfs", on bool_m (fun c -> Algorithms.Bfs.vm_whole c ~src:0));
    ("sssp", on Fun.id (fun c -> Algorithms.Sssp.vm_whole c ~src:0));
    ("pagerank", on Fun.id Algorithms.Pagerank.vm_whole);
    ( "tc",
      on
        (fun m -> Algorithms.Triangle.of_undirected (bool_m m))
        Algorithms.Triangle.vm_whole ) ]

let run_fig10_algo name n =
  let rng = Graphs.Rng.create ~seed:(2018 + n) in
  let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
  let g = if name = "tc" then Graphs.Edge_list.symmetrize g else g in
  let m = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
  let entry = Option.get (Algorithms.Registry.find name) in
  let reps = if name = "sssp" then 2 else 3 in
  let tier t =
    best_timed ~reps (fun () ->
        (entry.run t m ~src:0).Algorithms.Registry.ms /. 1000.0)
  in
  { vm = tier Algorithms.Registry.Vm;
    dsl = tier Algorithms.Registry.Dsl;
    whole = best_timed ~reps (List.assoc name fig10_whole m);
    native = tier Algorithms.Registry.Native }

let fig10 sizes =
  print_endline "== Fig. 10: algorithm run time across execution tiers ==";
  print_endline
    "   tier1 = DSL, outer loops interpreted (MiniVM);\n\
    \   dsl   = the same DSL program with OCaml outer loops (bonus series);\n\
    \   tier2 = one interpreted call into the whole compiled algorithm;\n\
    \   tier3 = native GBTL.  ER graphs with |E| = |V|^1.5.";
  List.iter
    (fun algo ->
      Printf.printf "\n-- %s --\n" algo;
      Printf.printf "%8s %11s %11s %11s %11s %8s %8s\n" "|V|" "tier1(ms)"
        "dsl(ms)" "tier2(ms)" "tier3(ms)" "t1/t3" "t2/t3";
      List.iter
        (fun n ->
          let t = run_fig10_algo algo n in
          Printf.printf "%8d %11.3f %11.3f %11.3f %11.3f %8.2f %8.2f\n" n
            (ms t.vm) (ms t.dsl) (ms t.whole) (ms t.native)
            (t.vm /. t.native) (t.whole /. t.native))
        sizes)
    (List.map fst fig10_whole);
  print_endline
    "\nexpected shape (paper): tier1 >= tier2 >= tier3 at small |V|; the\n\
     tier1/tier3 and tier2/tier3 ratios approach 1 as |V| grows."

(* ---------------------------------------------------------------- *)
(* Fig. 11: container lifecycle (read file / construct / extract)     *)
(* ---------------------------------------------------------------- *)

(* The "Python" path loads the file into boxed interpreter lists, builds
   the container by iterating boxed tuples, and extracts back into boxed
   lists; the native path uses plain arrays end to end. *)

let boxed_read path =
  let _, coo = Matrix_market.read_coo Dtype.FP64 path in
  let cells =
    List.map
      (fun (r, c, x) ->
        Minivm.Value.List
          (ref
             [| Minivm.Value.Int r; Minivm.Value.Int c; Minivm.Value.Float x |]))
      coo
  in
  Minivm.Value.List (ref (Array.of_list cells))

let boxed_construct nrows ncols boxed =
  match boxed with
  | Minivm.Value.List cells ->
    let triples = ref [] in
    Array.iter
      (fun cell ->
        match cell with
        | Minivm.Value.List t -> (
          match !t with
          | [| Minivm.Value.Int r; Minivm.Value.Int c; Minivm.Value.Float x |]
            ->
            triples := (r, c, x) :: !triples
          | _ -> failwith "bad cell")
        | _ -> failwith "bad cell")
      !cells;
    Smatrix.of_coo Dtype.FP64 nrows ncols !triples
  | _ -> failwith "bad boxed data"

let boxed_extract m =
  let out = ref [] in
  Smatrix.iter
    (fun r c x ->
      out :=
        Minivm.Value.List
          (ref
             [| Minivm.Value.Int r; Minivm.Value.Int c; Minivm.Value.Float x |])
        :: !out)
    m;
  Minivm.Value.List (ref (Array.of_list !out))

let fig11 sizes =
  print_endline "== Fig. 11: container lifecycle, dynamic vs native path ==";
  print_endline
    "   read = parse MatrixMarket file; construct = build the GraphBLAS\n\
    \   container from the in-memory representation; extract = copy the\n\
    \   data back out.  dyn = boxed interpreter lists, nat = plain arrays.";
  Printf.printf "\n%8s %9s | %10s %10s %10s | %10s %10s %10s\n" "|V|" "nnz"
    "read-dyn" "cons-dyn" "extr-dyn" "read-nat" "cons-nat" "extr-nat";
  List.iter
    (fun n ->
      let rng = Graphs.Rng.create ~seed:4242 in
      let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
      let m = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
      let path = Filename.temp_file "ogb_fig11" ".mtx" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Matrix_market.write m path;
          let nnz = Smatrix.nvals m in
          (* dynamic path *)
          let read_dyn = best_of (fun () -> boxed_read path) in
          let boxed = boxed_read path in
          let cons_dyn = best_of (fun () -> boxed_construct n n boxed) in
          let built = boxed_construct n n boxed in
          let extr_dyn = best_of (fun () -> boxed_extract built) in
          (* native path *)
          let read_nat =
            best_of (fun () -> Matrix_market.read_coo Dtype.FP64 path)
          in
          let _, coo = Matrix_market.read_coo Dtype.FP64 path in
          let cons_nat =
            best_of (fun () -> Smatrix.of_coo Dtype.FP64 n n coo)
          in
          let extr_nat = best_of (fun () -> Smatrix.to_coo built) in
          Printf.printf
            "%8d %9d | %10.3f %10.3f %10.3f | %10.3f %10.3f %10.3f\n" n nnz
            (ms read_dyn) (ms cons_dyn) (ms extr_dyn) (ms read_nat)
            (ms cons_nat) (ms extr_nat)))
    sizes;
  print_endline
    "\nexpected shape (paper): the file read dominates the dynamic path;\n\
     once constructed, operations on the container cost the same in both."

(* ---------------------------------------------------------------- *)
(* Compile-time experiment: the Fig. 9 pipeline                       *)
(* ---------------------------------------------------------------- *)

let kernel_workload () =
  (* a representative mix of signatures, as one algorithm suite uses *)
  let f64v n = Svector.of_dense Dtype.FP64 (Array.make n 1.0) in
  let f64m n =
    Smatrix.of_coo Dtype.FP64 n n
      (List.init n (fun i -> (i, (i + 1) mod n, 1.0)))
  in
  let bv n = Svector.of_dense Dtype.Bool (Array.make n true) in
  let bm n =
    Smatrix.of_coo Dtype.Bool n n
      (List.init n (fun i -> (i, (i + 1) mod n, true)))
  in
  let n = 64 in
  [ ( "mxv arithmetic f64",
      fun () ->
        ignore
          (Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.arithmetic ~transpose:false
             (f64m n) (f64v n)) );
    ( "mxv min-plus f64 (T)",
      fun () ->
        ignore
          (Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.min_plus ~transpose:true
             (f64m n) (f64v n)) );
    ( "mxv logical bool (T)",
      fun () ->
        ignore
          (Jit.Kernels.mxv Dtype.Bool Jit.Op_spec.logical ~transpose:true
             (bm n) (bv n)) );
    ( "vxm arithmetic f64",
      fun () ->
        ignore
          (Jit.Kernels.vxm Dtype.FP64 Jit.Op_spec.arithmetic ~transpose:false
             (f64v n) (f64m n)) );
    ( "ewise_add Plus f64",
      fun () ->
        ignore (Jit.Kernels.ewise_v `Add Dtype.FP64 ~op:"Plus" (f64v n) (f64v n))
    );
    ( "ewise_mult Times f64",
      fun () ->
        ignore
          (Jit.Kernels.ewise_v `Mult Dtype.FP64 ~op:"Times" (f64v n) (f64v n))
    );
    ( "apply bind2nd(Times,.85)",
      fun () ->
        ignore
          (Jit.Kernels.apply_v Dtype.FP64
             (Jit.Op_spec.Bound { op = "Times"; side = `Second; const = 0.85 })
             (f64v n)) );
    ( "reduce Plus f64",
      fun () ->
        ignore
          (Jit.Kernels.reduce_v_scalar Dtype.FP64 ~op:"Plus" ~identity:"Zero"
             (f64v n)) );
  ]

(* Warm native vs closure: what a compiled plugin buys once it is
   loaded.  Each registry algorithm's native and dsl tiers run under
   both backends on the same graph; one warm-up call, then the median
   [first quartile, third quartile] of [warm_reps] registry timings. *)
let warm_reps = 7

let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let at q =
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= Array.length a then a.(i)
    else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))
  in
  (at 0.25, at 0.5, at 0.75)

let loop_free_fp64 spec =
  match Server.Graph_spec.parse spec with
  | `Edges g ->
    let g =
      { g with
        Graphs.Edge_list.edges =
          List.filter (fun (s, d, _) -> s <> d) g.Graphs.Edge_list.edges }
    in
    Graphs.Convert.matrix_of_edges Dtype.FP64 (Graphs.Edge_list.symmetrize g)
  | `File _ | `Error _ -> invalid_arg ("graph spec " ^ spec)

let warm_backends () =
  print_endline "== Warm native vs closure (registry algorithms) ==";
  let er = "er:n=256,seed=7" and rmat = "rmat:scale=12,ef=16,seed=7" in
  let rows =
    List.filter_map
      (fun (e : Algorithms.Registry.entry) ->
        if List.mem Algorithms.Registry.Dsl e.tiers then Some (er, e) else None)
      Algorithms.Registry.all
    @ List.map
        (fun name -> (rmat, Option.get (Algorithms.Registry.find name)))
        [ "pagerank"; "bfs"; "tc"; "bc" ]
  in
  let graphs = List.map (fun spec -> (spec, loop_free_fp64 spec)) [ er; rmat ] in
  let time_row (spec, (e : Algorithms.Registry.entry)) tier =
    let m = List.assoc spec graphs in
    let run () = (e.run tier m ~src:0).Algorithms.Registry.ms in
    ignore (run ());
    Gc.full_major ();
    quartiles (List.init warm_reps (fun _ -> run ()))
  in
  let tiers = [ Algorithms.Registry.Native; Algorithms.Registry.Dsl ] in
  (* one backend at a time: the memory cache is keyed by signature, not
     by backend, so it is emptied at each switch *)
  let columns =
    List.map
      (fun (label, backend) ->
        Jit.Dispatch.set_backend backend;
        Jit.Dispatch.clear_memory_cache ();
        ( label,
          List.concat_map
            (fun row -> List.map (fun tier -> time_row row tier) tiers)
            rows ))
      ((if Jit.Native_backend.available () then
          [ ("native", Jit.Dispatch.Native) ]
        else [])
      @ [ ("closure", Jit.Dispatch.Closure) ])
  in
  Jit.Dispatch.set_backend Jit.Dispatch.Auto;
  Jit.Dispatch.clear_memory_cache ();
  Jit.Disk_cache.clear ();
  Printf.printf
    "cores: %d; %d warm calls after one warm-up; ms as median [q1, q3]\n"
    (Domain.recommended_domain_count ())
    warm_reps;
  Printf.printf "%-28s %-16s" "graph" "algorithm.tier";
  List.iter (fun (label, _) -> Printf.printf " %-24s" label) columns;
  print_newline ();
  List.iteri
    (fun i (spec, name) ->
      Printf.printf "%-28s %-16s" spec name;
      List.iter
        (fun (_, cells) ->
          let q1, med, q3 = List.nth cells i in
          Printf.printf " %-24s" (Printf.sprintf "%.2f [%.2f, %.2f]" med q1 q3))
        columns;
      print_newline ())
    (List.concat_map
       (fun (spec, (e : Algorithms.Registry.entry)) ->
         List.map
           (fun tier ->
             (spec, e.name ^ "." ^ Algorithms.Registry.tier_name tier))
           tiers)
       rows);
  print_newline ()

let compile_experiment () =
  print_endline "== Compile-time experiment: the Fig. 9 dispatch pipeline ==";
  Printf.printf "backend: %s\n\n" (Jit.Native_backend.explain ());
  let run_backend label backend =
    Jit.Dispatch.set_backend backend;
    (* cold: empty disk + memory caches *)
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ogb-bench-cache-%d-%s" (Unix.getpid ()) label)
    in
    Jit.Disk_cache.set_dir dir;
    Jit.Disk_cache.clear ();
    Jit.Dispatch.clear_memory_cache ();
    Jit.Jit_stats.reset ();
    Printf.printf "-- %s backend --\n" label;
    Printf.printf "%-28s %12s %12s %12s\n" "kernel" "cold(ms)" "disk(ms)"
      "memory(us)";
    List.iter
      (fun (name, call) ->
        let _, cold = time_once call in
        (* drop the memory cache so the next dispatch hits the disk *)
        Jit.Dispatch.clear_memory_cache ();
        let _, disk = time_once call in
        let _, warm = time_once call in
        Printf.printf "%-28s %12.3f %12.3f %12.1f\n" name (ms cold) (ms disk)
          (1e6 *. warm))
      (kernel_workload ());
    Format.printf "totals: %a@\n@." Jit.Jit_stats.pp (Jit.Jit_stats.snapshot ());
    Jit.Disk_cache.clear ()
  in
  if Jit.Native_backend.available () then
    run_backend "native" Jit.Dispatch.Native;
  run_backend "closure" Jit.Dispatch.Closure;
  Jit.Dispatch.set_backend Jit.Dispatch.Auto;
  print_endline
    "expected shape (paper): compilation dominates the first call and is\n\
     amortized away by the disk cache across runs and the memory cache\n\
     within a run; steady-state dispatch is microseconds.\n";
  warm_backends ()

(* ---------------------------------------------------------------- *)
(* Table I: executable notation conformance                          *)
(* ---------------------------------------------------------------- *)

let table1 () =
  print_endline "== Table I: GraphBLAS operations in DSL notation ==";
  let open Ogb in
  let open Ogb.Ops.Infix in
  let a =
    Container.matrix_coo ~nrows:3 ~ncols:3
      [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, 3.0); (2, 0, 4.0) ]
  in
  let b = Container.matrix_coo ~nrows:3 ~ncols:3 [ (0, 1, 1.5); (2, 2, 0.5) ] in
  let u = Container.vector_coo ~size:3 [ (0, 1.0); (2, 2.0) ] in
  let v = Container.vector_coo ~size:3 [ (1, 3.0); (2, -1.0) ] in
  let cm = Container.matrix_empty 3 3 in
  let w = Container.vector_empty 3 in
  let row fmt_math fmt_dsl check =
    Printf.printf "  %-34s %-34s %s\n" fmt_math fmt_dsl
      (if check () then "ok" else "MISMATCH")
  in
  Printf.printf "  %-34s %-34s %s\n" "mathematical notation" "DSL form" "check";
  row "C<M,z> = C (.) A +.x B" "set ~mask c (a @. b)" (fun () ->
      Ops.set cm (!!a @. !!b);
      Container.nvals cm > 0);
  row "w<m,z> = w (.) A +.x u" "set ~mask w (a @. u)" (fun () ->
      Ops.set w (!!a @. !!u);
      (* w0 = 1*1 + 2*2 = 5; w2 = 4*1 = 4 *)
      Container.vector_entries w = [ (0, 5.0); (2, 4.0) ]);
  row "C = A x B (eWiseMult)" "set c (a *: b)" (fun () ->
      Ops.set cm (!!a *: !!b);
      Container.nvals cm = 0 (* disjoint structures here *));
  row "w = u + v (eWiseAdd)" "set w (u +: v)" (fun () ->
      Ops.set w (!!u +: !!v);
      Container.nvals w = 3);
  row "w = [+_j A(:,j)] (reduce row)" "set w (reduce_rows a)" (fun () ->
      Ops.set w (Ops.reduce_rows !!a);
      Container.vector_entries w = [ (0, 3.0); (1, 3.0); (2, 4.0) ]);
  row "s = [+_ij A(i,j)] (reduce)" "reduce a" (fun () ->
      Ops.reduce !!a = 10.0);
  row "C = f(A) (apply)" "set c (apply a)" (fun () ->
      Context.with_ops [ Context.unary "AdditiveInverse" ] (fun () ->
          Ops.set cm (Ops.apply !!a));
      Container.matrix_entries cm
      = [ (0, 0, -1.0); (0, 2, -2.0); (1, 1, -3.0); (2, 0, -4.0) ]);
  row "C = A^T" "set c (tr a)" (fun () ->
      Ops.set cm (tr !!a);
      Container.get_matrix_element cm 2 0 = Some 2.0);
  row "C = A(i,j) (extract)" "set c (extract_mat a rows cols)" (fun () ->
      let sub = Container.matrix_empty 2 3 in
      Ops.set sub
        (Expr.extract_mat !!a (Index_set.List [| 0; 2 |]) Index_set.All);
      Container.nvals sub = 3);
  row "C<M>(i,j) = A (assign)" "set_region ~rows ~cols c a" (fun () ->
      let t = Container.matrix_empty 3 3 in
      Ops.set_region ~rows:(Index_set.List [| 0 |]) ~cols:Index_set.All t
        (Expr.extract_mat !!a (Index_set.List [| 0 |]) Index_set.All);
      Container.nvals t = 2);
  row "w<m>(i) = u (assign)" "set_region ~rows w u" (fun () ->
      let t = Container.vector_empty 3 in
      Ops.set_region ~rows:Index_set.All t !!u;
      Container.nvals t = 2);
  row "accumulate: C (.)= T" "update c expr" (fun () ->
      let t = Container.vector_coo ~size:3 [ (0, 10.0) ] in
      Ops.update t !!u;
      Container.vector_entries t = [ (0, 11.0); (2, 2.0) ]);
  ignore v;
  print_newline ()

(* ---------------------------------------------------------------- *)
(* Ablations                                                          *)
(* ---------------------------------------------------------------- *)

let ablation () =
  print_endline "== Ablations of the design choices (DESIGN.md E5) ==";
  (* (a) masked mxm pruning: the deferred-evaluation payoff.  With the
     mask available at evaluation time the dot kernel computes only
     allowed cells; the naive strategy computes the full product and
     masks at the write step. *)
  print_endline "\n(a) triangle counting: mask into the kernel vs full mxm";
  Printf.printf "%8s %9s %14s %14s %8s\n" "|V|" "nnz(L)" "masked(ms)"
    "unmasked(ms)" "speedup";
  List.iter
    (fun n ->
      let rng = Graphs.Rng.create ~seed:7 in
      let g =
        Graphs.Edge_list.symmetrize
          (Graphs.Generators.erdos_renyi_paper rng ~nvertices:n)
      in
      let l =
        Algorithms.Triangle.of_undirected (Graphs.Convert.bool_adjacency g)
      in
      let masked =
        best_of (fun () ->
            let b = Smatrix.create Dtype.Int64 n n in
            Matmul.mxm ~mask:(Mask.mmask l) ~transpose_b:true
              (Semiring.arithmetic Dtype.Int64) ~out:b l l;
            Apply_reduce.reduce_matrix_scalar (Monoid.plus Dtype.Int64) b)
      in
      let unmasked =
        best_of (fun () ->
            let b = Smatrix.create Dtype.Int64 n n in
            let full = Smatrix.create Dtype.Int64 n n in
            Matmul.mxm ~transpose_b:true (Semiring.arithmetic Dtype.Int64)
              ~out:full l l;
            Output.write_matrix ~mask:(Mask.mmask l) ~accum:None
              ~replace:false ~out:b
              ~t:(Array.init n (fun r -> Smatrix.row_entries full r));
            Apply_reduce.reduce_matrix_scalar (Monoid.plus Dtype.Int64) b)
      in
      Printf.printf "%8d %9d %14.3f %14.3f %8.2f\n" n (Smatrix.nvals l)
        (ms masked) (ms unmasked) (unmasked /. masked))
    [ 128; 256; 512 ];

  (* (b) container reuse: C[None] = expr into an existing container vs a
     fresh container per iteration (paper §IV's object-lifecycle
     discussion). *)
  print_endline
    "\n(b) output container reuse vs fresh allocation (mxv x1000)";
  let n = 512 in
  let rng = Graphs.Rng.create ~seed:3 in
  let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
  let a =
    Ogb.Container.of_smatrix (Graphs.Convert.matrix_of_edges Dtype.FP64 g)
  in
  let u = Ogb.Container.vector_dense (List.init n (fun _ -> 1.0)) in
  let open Ogb.Ops.Infix in
  let reuse =
    best_of (fun () ->
        let out = Ogb.Container.vector_empty n in
        for _ = 1 to 1000 do
          Ogb.Ops.set out (!!a @. !!u)
        done)
  in
  let fresh =
    best_of (fun () ->
        for _ = 1 to 1000 do
          ignore (Ogb.Expr.force (!!a @. !!u))
        done)
  in
  Printf.printf "  reuse (C[None] = A @ u): %10.3f ms\n" (ms reuse);
  Printf.printf "  fresh (C = A @ u):       %10.3f ms\n" (ms fresh);

  (* (c) abstraction penalty per operation: the full DSL path (packed
     containers, expression objects, context resolution, dispatch, write
     step) vs a direct call of the same specialized kernel. *)
  print_endline "\n(c) per-operation abstraction penalty (mxv, 1000 calls)";
  Printf.printf "%8s %14s %14s %8s\n" "|V|" "dsl(ms)" "kernel(ms)" "ratio";
  List.iter
    (fun n ->
      let rng = Graphs.Rng.create ~seed:4 in
      let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
      let am = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
      let ac = Ogb.Container.of_smatrix am in
      let uv = Svector.of_dense Dtype.FP64 (Array.make n 1.0) in
      let uc = Ogb.Container.of_svector (Svector.dup uv) in
      let out = Ogb.Container.vector_empty n in
      let w = Svector.create Dtype.FP64 n in
      let dsl =
        best_of (fun () ->
            for _ = 1 to 1000 do
              Ogb.Ops.set out (!!ac @. !!uc)
            done)
      in
      let kernel =
        best_of (fun () ->
            for _ = 1 to 1000 do
              let t =
                Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.arithmetic
                  ~transpose:false am uv
              in
              Output.write_vector ~mask:Mask.No_vmask ~accum:None
                ~replace:false ~out:w ~t
            done)
      in
      Printf.printf "%8d %14.3f %14.3f %8.2f\n" n (ms dsl) (ms kernel)
        (dsl /. kernel))
    [ 16; 64; 256; 1024 ];
  print_endline
    "\nexpected shape: the DSL/kernel ratio is large for tiny operands and\n\
     approaches 1 as the kernel cost grows (the paper's headline claim).";

  (* (d) operation fusion (paper §V future work, implemented here):
     apply-after-matmul with the fused in-place evaluation vs two
     kernels + an extra temporary. *)
  print_endline "\n(d) operation fusion: apply(A @ u) (1000 evaluations)";
  Printf.printf "%8s %14s %14s %8s\n" "|V|" "fused(ms)" "unfused(ms)"
    "speedup";
  List.iter
    (fun n ->
      let rng = Graphs.Rng.create ~seed:9 in
      let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
      let a =
        Ogb.Container.of_smatrix (Graphs.Convert.matrix_of_edges Dtype.FP64 g)
      in
      let u = Ogb.Container.vector_dense (List.init n (fun _ -> 1.0)) in
      let out = Ogb.Container.vector_empty n in
      let run () =
        Ogb.Context.with_ops
          [ Ogb.Context.unary_bound ~op:"Times" 0.85 ]
          (fun () ->
            for _ = 1 to 1000 do
              Ogb.Ops.set out (Ogb.Ops.apply (!!a @. !!u))
            done)
      in
      Ogb.Expr.set_fusion true;
      let fused = best_of run in
      Ogb.Expr.set_fusion false;
      let unfused = best_of run in
      Ogb.Expr.set_fusion true;
      Printf.printf "%8d %14.3f %14.3f %8.2f\n" n (ms fused) (ms unfused)
        (unfused /. fused))
    [ 64; 256; 1024 ]

(* ---------------------------------------------------------------- *)
(* Format layer: CSR-only vs format-aware dispatch                    *)
(* ---------------------------------------------------------------- *)

(* The same tier-3 algorithms with the storage-format layer toggled:
   CSR-only (the seed behavior — no CSC caching, no dense vectors, no
   push/pull choice) vs format-aware.  Results must be bit-identical;
   this experiment measures the layout payoff and records the format
   conversion counters.

   The workload is Graph500-style RMAT graphs (edge factor 16) rather
   than the uniform Erdős–Rényi of Figs. 10–11: direction optimization
   and layout choice are about skewed degree distributions — on a
   near-regular ER graph PageRank converges in one iteration and BFS
   frontiers have no hubs, so the format layer has nothing to exploit. *)

let log2i n =
  let s = ref 0 in
  let v = ref n in
  while !v > 1 do
    incr s;
    v := !v / 2
  done;
  !s

type fmt_row = {
  n : int;
  csr_only : float;
  format_aware : float;
  fmt_agree : bool;
}

let formats_bench sizes =
  print_endline "== Format layer: CSR-only vs format-aware dispatch ==";
  Printf.printf "sizes: %s\n"
    (String.concat " " (List.map string_of_int sizes));
  Format_stats.reset ();
  let equal_vec a b =
    Ogb.Container.equal
      (Ogb.Container.of_svector a)
      (Ogb.Container.of_svector b)
  in
  let run_algo name =
    List.map
      (fun n ->
        let rng = Graphs.Rng.create ~seed:(2018 + n) in
        let g =
          Graphs.Generators.rmat rng ~scale:(log2i n) ~edge_factor:16
        in
        match name with
        | "pagerank" ->
          let adj = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
          (* fixed iteration count: with a reachable threshold the
             default 1e-5 is met after one step at these scales, and an
             unreachable one runs to max_iters anyway once the squared
             error hits its floating-point floor — so pin the work to 30
             power iterations for both pipelines *)
          let pr () =
            Algorithms.Pagerank.native ~threshold:0.0 ~max_iters:30 adj
          in
          let base_r, base_i =
            Format_stats.with_enabled false (fun () -> pr ())
          in
          let fmt_r, fmt_i =
            Format_stats.with_enabled true (fun () -> pr ())
          in
          { n;
            csr_only =
              Format_stats.with_enabled false (fun () ->
                  best_of (fun () -> pr ()));
            format_aware =
              Format_stats.with_enabled true (fun () ->
                  best_of (fun () -> pr ()));
            fmt_agree = base_i = fmt_i && equal_vec base_r fmt_r }
        | _ ->
          let adj = Graphs.Convert.bool_adjacency g in
          let base =
            Format_stats.with_enabled false (fun () ->
                Algorithms.Bfs.native adj ~src:0)
          in
          let fmt =
            Format_stats.with_enabled true (fun () ->
                Algorithms.Bfs.native adj ~src:0)
          in
          { n;
            csr_only =
              Format_stats.with_enabled false (fun () ->
                  best_of (fun () -> Algorithms.Bfs.native adj ~src:0));
            format_aware =
              Format_stats.with_enabled true (fun () ->
                  best_of (fun () -> Algorithms.Bfs.native adj ~src:0));
            fmt_agree = equal_vec base fmt })
      sizes
  in
  let algos = List.map (fun a -> (a, run_algo a)) [ "pagerank"; "bfs" ] in
  List.iter
    (fun (name, rows) ->
      Printf.printf "\n-- %s --\n" name;
      Printf.printf "%8s %14s %14s %8s %7s\n" "|V|" "csr-only(ms)"
        "fmt-aware(ms)" "speedup" "agree";
      List.iter
        (fun r ->
          Printf.printf "%8d %14.3f %14.3f %8.2f %7s\n" r.n (ms r.csr_only)
            (ms r.format_aware)
            (r.csr_only /. r.format_aware)
            (if r.fmt_agree then "yes" else "NO"))
        rows)
    algos;
  let counters = Format_stats.counters () in
  Printf.printf "\nformat counters:";
  List.iter (fun (name, c) -> Printf.printf " %s=%d" name c) counters;
  print_newline ();
  let largest rows =
    let r = List.nth rows (List.length rows - 1) in
    r.csr_only /. r.format_aware
  in
  List.iter
    (fun (name, rows) ->
      Printf.printf "largest-size speedup (%s): %.2fx\n" name (largest rows))
    algos;
  (* machine-readable record for the CI artifact *)
  let oc = open_out "BENCH_formats.json" in
  let out fmt = Printf.fprintf oc fmt in
  let json_rows rows =
    String.concat ",\n"
      (List.map
         (fun r ->
           Printf.sprintf
             "        { \"n\": %d, \"csr_only_ms\": %.3f, \
              \"format_aware_ms\": %.3f, \"speedup\": %.3f, \"agree\": %b }"
             r.n (ms r.csr_only) (ms r.format_aware)
             (r.csr_only /. r.format_aware)
             r.fmt_agree)
         rows)
  in
  out "{\n";
  out "  \"experiment\": \"formats\",\n";
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"algorithms\": [\n";
  out "%s"
    (String.concat ",\n"
       (List.map
          (fun (name, rows) ->
            Printf.sprintf
              "    { \"name\": %S,\n      \"sizes\": [\n%s\n      ] }" name
              (json_rows rows))
          algos));
  out "\n  ],\n";
  out "  \"largest_size_speedups\": {\n%s\n  },\n"
    (String.concat ",\n"
       (List.map
          (fun (name, rows) -> Printf.sprintf "    %S: %.3f" name (largest rows))
          algos));
  out "  \"format_counters\": {\n%s\n  }\n"
    (String.concat ",\n"
       (List.map (fun (name, c) -> Printf.sprintf "    %S: %d" name c) counters));
  out "}\n";
  close_out oc;
  print_endline "wrote BENCH_formats.json"

(* ---------------------------------------------------------------- *)
(* Warm-up: cold vs analyzer-pre-warmed first iteration               *)
(* ---------------------------------------------------------------- *)

(* The PyGB pitch is that dynamic compilation amortizes; the analyzer
   makes the first iteration cheap too.  Three measurements per
   algorithm on a scrubbed cache (memory + disk): the cold first call
   (compiles inline), the analyzer-driven warm-up alone, and the first
   call after warm-up (which must compile nothing). *)

type warm_row = {
  w_algo : string;
  cold_first_ms : float;
  cold_compiles : int;
  warmup_ms : float;
  warmup_compiles : int;
  warm_first_ms : float;
  warm_first_compiles : int;
}

let warmup_bench () =
  print_endline
    "== Warm-up: cold vs analyzer-driven pre-warmed first iteration ==";
  let n = 256 in
  let rng = Graphs.Rng.create ~seed:2018 in
  let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
  let adj = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
  let cont = Ogb.Container.of_smatrix adj in
  let bool_cont =
    Ogb.Container.of_smatrix (Smatrix.cast ~into:Dtype.Bool adj)
  in
  let wall f = ms (snd (time_once f)) in
  let compiles () = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.compiles in
  let scrub () =
    Jit.Dispatch.clear_memory_cache ();
    Jit.Disk_cache.clear ()
  in
  let row w_algo entry run =
    let sigs = Analysis.Tier1.signatures entry ~n in
    scrub ();
    let c0 = compiles () in
    let cold_first_ms = wall run in
    let cold_compiles = compiles () - c0 in
    scrub ();
    let c1 = compiles () in
    let warmup_ms = wall (fun () -> Analysis.Warmup.warm sigs) in
    let warmup_compiles = compiles () - c1 in
    let c2 = compiles () in
    let warm_first_ms = wall run in
    let warm_first_compiles = compiles () - c2 in
    { w_algo; cold_first_ms; cold_compiles; warmup_ms; warmup_compiles;
      warm_first_ms; warm_first_compiles }
  in
  let entry name = Option.get (Analysis.Tier1.find name) in
  let rows =
    [ row "bfs" (entry "bfs") (fun () ->
          Algorithms.Bfs.vm_loops bool_cont ~src:0);
      row "pagerank" (entry "pagerank") (fun () ->
          Algorithms.Pagerank.vm_loops cont) ]
  in
  Printf.printf "%10s %14s %9s %12s %9s %15s %9s\n" "algo" "cold-1st(ms)"
    "compiles" "warmup(ms)" "compiles" "warm-1st(ms)" "compiles";
  List.iter
    (fun r ->
      Printf.printf "%10s %14.3f %9d %12.3f %9d %15.3f %9d\n" r.w_algo
        r.cold_first_ms r.cold_compiles r.warmup_ms r.warmup_compiles
        r.warm_first_ms r.warm_first_compiles)
    rows;
  let snap = Jit.Jit_stats.snapshot () in
  Printf.printf "warm requests: %d, warm compiles: %d\n"
    snap.Jit.Jit_stats.warm_requests snap.Jit.Jit_stats.warm_compiles;
  let oc = open_out "BENCH_warmup.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"experiment\": \"warmup\",\n";
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"n\": %d,\n" n;
  out "  \"rows\": [\n%s\n  ],\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    { \"algo\": %S, \"cold_first_ms\": %.3f, \
               \"cold_compiles\": %d, \"warmup_ms\": %.3f, \
               \"warmup_compiles\": %d, \"warm_first_ms\": %.3f, \
               \"warm_first_compiles\": %d }"
              r.w_algo r.cold_first_ms r.cold_compiles r.warmup_ms
              r.warmup_compiles r.warm_first_ms r.warm_first_compiles)
          rows));
  out "  \"warm_requests\": %d,\n" snap.Jit.Jit_stats.warm_requests;
  out "  \"warm_compiles\": %d\n" snap.Jit.Jit_stats.warm_compiles;
  out "}\n";
  close_out oc;
  print_endline "wrote BENCH_warmup.json"

(* ---------------------------------------------------------------- *)
(* Fault tolerance: warm-path overhead + chaos equivalence            *)
(* ---------------------------------------------------------------- *)

(* Two claims to keep honest: (1) the hardening (checksums, advisory
   locks, injection-point checks) costs < 5% on the warm path, measured
   by running steady-state nonblocking PageRank with every injection
   point armed in `never` mode — each check pays its full bookkeeping
   cost but nothing fires — against the disarmed run; (2) under real
   injected faults the engine still returns exactly the fault-free
   ranks, with the recovery visible only in the resilience counters. *)

type chaos_row = {
  c_name : string;
  c_spec : string;
  c_agree : bool;
  c_iters : int;
  c_ms : float;
  c_stats : Jit.Jit_stats.snapshot;
}

let faults_bench () =
  print_endline
    "== Fault tolerance: warm-path overhead and chaos equivalence ==";
  let n = 256 in
  let rng = Graphs.Rng.create ~seed:2018 in
  let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
  let cont =
    Ogb.Container.of_smatrix (Graphs.Convert.matrix_of_edges Dtype.FP64 g)
  in
  let ranks_alist c =
    List.sort compare (Algorithms.Pagerank.ranks_of_container c)
  in
  let baseline, base_iters = Algorithms.Pagerank.dsl cont in
  let base_alist = ranks_alist baseline in
  (* warm-path overhead *)
  (* sub-ms per run on one core: best-of-30 tames scheduler jitter *)
  Fault.disarm ();
  let disarmed_ms =
    ms (best_of ~reps:30 (fun () -> Algorithms.Pagerank.nonblocking cont))
  in
  Fault.arm (List.map (fun p -> (p, Fault.Never)) Fault.points);
  let armed_ms =
    ms (best_of ~reps:30 (fun () -> Algorithms.Pagerank.nonblocking cont))
  in
  Fault.disarm ();
  let overhead_pct = 100.0 *. (armed_ms -. disarmed_ms) /. disarmed_ms in
  let overhead_ok = overhead_pct < 5.0 in
  Printf.printf
    "warm PageRank: disarmed %.3fms, armed-inert %.3fms, overhead %+.2f%% \
     (budget 5%%: %s)\n"
    disarmed_ms armed_ms overhead_pct
    (if overhead_ok then "ok" else "EXCEEDED");
  (* chaos equivalence *)
  let specs =
    [ ("native-compile-fail", "native.compile.exit=always");
      ("corrupt-cache", "cache.corrupt.cmxs=always,cache.corrupt.source=once");
      ("worker-exn", "sched.worker.exn=p0.3,seed=7") ]
  in
  let rows =
    List.map
      (fun (c_name, c_spec) ->
        Jit.Dispatch.clear_memory_cache ();
        Jit.Disk_cache.clear ();
        Jit.Breaker.reset ();
        Jit.Jit_stats.reset ();
        (match Fault.arm_spec c_spec with
        | Ok () -> ()
        | Error e -> failwith ("bad chaos spec: " ^ e));
        let (ranks, c_iters), dt =
          time_once (fun () -> Algorithms.Pagerank.nonblocking cont)
        in
        Fault.disarm ();
        let c_stats = Jit.Jit_stats.snapshot () in
        let c_agree =
          ranks_alist ranks = base_alist && c_iters = base_iters
        in
        { c_name; c_spec; c_agree; c_iters; c_ms = ms dt; c_stats })
      specs
  in
  Jit.Breaker.reset ();
  Jit.Jit_stats.reset ();
  Printf.printf "%20s %7s %9s %8s %8s %8s\n" "spec" "agree" "time(ms)"
    "natfail" "quarant" "blkfall";
  List.iter
    (fun r ->
      Printf.printf "%20s %7s %9.3f %8d %8d %8d\n" r.c_name
        (if r.c_agree then "yes" else "NO")
        r.c_ms r.c_stats.Jit.Jit_stats.native_failures
        r.c_stats.Jit.Jit_stats.checksum_quarantines
        r.c_stats.Jit.Jit_stats.blocking_fallbacks)
    rows;
  let oc = open_out "BENCH_faults.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"experiment\": \"faults\",\n";
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"n\": %d,\n" n;
  out
    "  \"warm\": { \"disarmed_ms\": %.3f, \"armed_inert_ms\": %.3f, \
     \"overhead_pct\": %.2f, \"budget_pct\": 5.0, \"pass\": %b },\n"
    disarmed_ms armed_ms overhead_pct overhead_ok;
  out "  \"chaos\": [\n%s\n  ]\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    { \"name\": %S, \"spec\": %S, \"agree\": %b, \
               \"iters\": %d, \"ms\": %.3f, \"native_failures\": %d, \
               \"checksum_quarantines\": %d, \"blocking_fallbacks\": %d }"
              r.c_name r.c_spec r.c_agree r.c_iters r.c_ms
              r.c_stats.Jit.Jit_stats.native_failures
              r.c_stats.Jit.Jit_stats.checksum_quarantines
              r.c_stats.Jit.Jit_stats.blocking_fallbacks)
          rows));
  out "}\n";
  close_out oc;
  print_endline "wrote BENCH_faults.json";
  print_newline ()

(* ---------------------------------------------------------------- *)
(* Server mode: cold one-shot CLI vs resident warm daemon             *)
(* ---------------------------------------------------------------- *)

(* The daemon's pitch: one process keeps the loaded graph and the
   signature→kernel cache resident, warmed at startup, so a request
   pays only the compute — where a one-shot CLI invocation pays graph
   construction plus inline JIT compiles every time.  Three
   measurements:

   - cold: scrubbed caches, one PageRank run (the CLI cost model);
   - daemon steady state: the same request through [Daemon.handle] and
     the full JSON codec after warm-up, best-of-[reps] (the acceptance
     bar is ≥ 10× under [daemon_vs_cold_speedup]);
   - a 4-session mixed run that must trigger zero compiles
     ([zero_compiles_after_warm] gates true→false). *)

let serve_bench () =
  print_endline "== Server mode: cold one-shot vs resident warm daemon ==";
  let n = 256 in
  let compiles () = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.compiles in
  let scrub () =
    Jit.Dispatch.clear_memory_cache ();
    Jit.Disk_cache.clear ()
  in
  let wall f = ms (snd (time_once f)) in
  (* cold: what a one-shot CLI invocation pays — scrubbed cache, graph
     from scratch, compiles inline on first use *)
  scrub ();
  let c0 = compiles () in
  let cold_ms =
    wall (fun () ->
        let rng = Graphs.Rng.create ~seed:2018 in
        let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
        let adj = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
        Algorithms.Pagerank.vm_loops (Ogb.Container.of_smatrix adj))
  in
  let cold_compiles = compiles () - c0 in
  (* daemon: warmed shared state, requests through the JSON codec *)
  scrub ();
  let cfg =
    { Server.Daemon.sock_path = "/tmp/ogb-serve-bench-unused.sock";
      tcp_addr = None;
      workers = 2;
      queue_cap = 16;
      warm_n = n;
      warm = true }
  in
  let st, warmup_s = time_once (fun () -> Server.Daemon.create_state cfg) in
  let warmup_ms = ms warmup_s in
  let sess = Server.Session.create () in
  let request s =
    let resp =
      Server.Daemon.handle st sess (Server.Json.parse s)
    in
    ignore (Server.Json.to_string resp);
    resp
  in
  (match
     Server.Json.str_field "status"
       (request
          (Printf.sprintf
             "{\"op\": \"load\", \"name\": \"g\", \"graph\": \"er:n=%d\", \
              \"symmetrize\": false}"
             n))
   with
  | Some "ok" -> ()
  | _ -> failwith "serve bench: load failed");
  let pagerank_req =
    "{\"op\": \"run\", \"algo\": \"pagerank\", \"tier\": \"vm\", \"graph\": \
     \"g\"}"
  in
  (* warm-up phase over: everything after this point must be cache hits *)
  let c_warm = compiles () in
  let reps = 10 in
  let steady_ms = ref infinity in
  for _ = 1 to reps do
    let ms = wall (fun () -> request pagerank_req) in
    if ms < !steady_ms then steady_ms := ms
  done;
  let steady_ms = !steady_ms in
  let speedup = cold_ms /. steady_ms in
  (* multi-session mixed run: 4 concurrent sessions, tier-1 requests,
     responses must agree across sessions and compile nothing *)
  let mixed =
    [ pagerank_req;
      "{\"op\": \"run\", \"algo\": \"bfs\", \"tier\": \"vm\", \"graph\": \
       \"g\", \"src\": 0}" ]
  in
  let run_session () =
    List.map
      (fun r ->
        let resp = Server.Daemon.handle st (Server.Session.create ())
            (Server.Json.parse r) in
        match Server.Json.member "result" resp with
        | Some j -> Server.Json.to_string j
        | None -> Server.Json.to_string resp)
      mixed
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn run_session) in
  let per_session = Array.map Domain.join doms in
  let identical =
    Array.for_all (fun r -> r = per_session.(0)) per_session
  in
  let compiles_after_warm = compiles () - c_warm in
  Printf.printf "cold one-shot pagerank: %.1f ms (%d compiles)\n" cold_ms
    cold_compiles;
  Printf.printf "daemon warm-up: %.1f ms; steady-state request: %.3f ms \
                 (%.1fx vs cold)\n"
    warmup_ms steady_ms speedup;
  Printf.printf "multi-session: 4 sessions, identical=%b, compiles after \
                 warm-up: %d\n"
    identical compiles_after_warm;
  let oc = open_out "BENCH_serve.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"experiment\": \"serve\",\n";
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"n\": %d,\n" n;
  out "  \"cold\": { \"pagerank_ms\": %.3f, \"compiles\": %d },\n" cold_ms
    cold_compiles;
  out "  \"daemon\": { \"warmup_ms\": %.3f, \"steady_ms\": %.3f, \
       \"reps\": %d },\n"
    warmup_ms steady_ms reps;
  out "  \"daemon_vs_cold_speedup\": %.3f,\n" speedup;
  out "  \"multi_session\": { \"sessions\": 4, \"identical\": %b, \
       \"compiles_after_warm\": %d },\n"
    identical compiles_after_warm;
  out "  \"zero_compiles_after_warm\": %b\n" (compiles_after_warm = 0);
  out "}\n";
  close_out oc;
  print_endline "wrote BENCH_serve.json";
  print_newline ()

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks                                          *)
(* ---------------------------------------------------------------- *)

let micro () =
  print_endline "== Bechamel micro-benchmarks (kernel families, n=512) ==";
  let open Bechamel in
  let n = 512 in
  let rng = Graphs.Rng.create ~seed:5 in
  let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
  let a = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
  let u = Svector.of_dense Dtype.FP64 (Array.make n 1.0) in
  let v = Svector.of_dense Dtype.FP64 (Array.init n float_of_int) in
  let w = Svector.create Dtype.FP64 n in
  let sr = Semiring.arithmetic Dtype.FP64 in
  let tests =
    [ Test.make ~name:"mxv" (Staged.stage (fun () -> Matmul.mxv sr ~out:w a u));
      Test.make ~name:"mxv_transposed"
        (Staged.stage (fun () -> Matmul.mxv ~transpose_a:true sr ~out:w a u));
      Test.make ~name:"ewise_add"
        (Staged.stage (fun () ->
             Ewise.vector_add (Binop.plus Dtype.FP64) ~out:w u v));
      Test.make ~name:"ewise_mult"
        (Staged.stage (fun () ->
             Ewise.vector_mult (Binop.times Dtype.FP64) ~out:w u v));
      Test.make ~name:"apply"
        (Staged.stage (fun () ->
             Apply_reduce.apply_vector
               (Unaryop.additive_inverse Dtype.FP64)
               ~out:w u));
      Test.make ~name:"reduce"
        (Staged.stage (fun () ->
             ignore
               (Apply_reduce.reduce_vector_scalar (Monoid.plus Dtype.FP64) u)));
      Test.make ~name:"transpose"
        (Staged.stage (fun () -> ignore (Smatrix.transpose a)));
    ]
  in
  let test = Test.make_grouped ~name:"kernels" ~fmt:"%s/%s" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) ()
  in
  let raw_results = Benchmark.all cfg instances test in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let merged = Analyze.merge ols instances results in
  Printf.printf "%-28s %14s\n" "kernel" "ns/run";
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) tbl [] in
      List.iter
        (fun (name, o) ->
          match Analyze.OLS.estimates o with
          | Some [ est ] -> Printf.printf "%-28s %14.1f\n" name est
          | _ -> Printf.printf "%-28s %14s\n" name "-")
        (List.sort compare rows))
    merged;
  print_newline ()

(* ---------------------------------------------------------------- *)

(* Out-of-core (tiled) execution: the streamed PageRank must return the
   in-memory ranks bit-for-bit both unbounded and under a memory budget
   small enough to force tile eviction, and the incremental layer's
   certified warm restart must converge in no more iterations than the
   cold rerun it replaces. *)
let oocore_bench () =
  print_endline "== Out-of-core: tiled streaming, eviction, delta ==";
  let n = 512 in
  let tile = (64, 64) in
  let budget = 64 * 1024 in
  (* the default 1e-5 threshold converges in one step on a near-regular
     ER graph; tighten it so iteration, checkpointing and warm restart
     have something to measure *)
  let threshold = 1.e-12 in
  let rng = Graphs.Rng.create ~seed:4242 in
  let g = Graphs.Generators.erdos_renyi_paper rng ~nvertices:n in
  let m = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
  let fresh_dir =
    let k = ref 0 in
    fun () ->
      incr k;
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ogb-bench-tiles-%d-%d" (Unix.getpid ()) !k)
  in
  let expect, base_iters =
    Format_stats.with_enabled true (fun () ->
        Algorithms.Pagerank.native ~threshold m)
  in
  let inmem_ms =
    ms
      (best_of (fun () ->
           Format_stats.with_enabled true (fun () ->
               Algorithms.Pagerank.native ~threshold m)))
  in
  let with_tiled ?budget f =
    let t = Tmatrix.of_smatrix ~dir:(fresh_dir ()) ~tile ?budget m in
    Fun.protect ~finally:(fun () -> Tmatrix.destroy t) (fun () -> f t)
  in
  (* unbounded: every tile stays resident *)
  let unbounded_ranks, unbounded_ms =
    with_tiled (fun t ->
        let r, _ = Oocore.Stream.pagerank ~threshold t in
        (r, ms (best_of (fun () -> Oocore.Stream.pagerank ~threshold t))))
  in
  let agree_unbounded = Svector.equal unbounded_ranks expect in
  (* bounded: the budget forces streaming through the tile store *)
  Tile_stats.reset ();
  let bounded_ranks, bounded_iters, bounded_ms =
    with_tiled ~budget (fun t ->
        let r, it = Oocore.Stream.pagerank ~threshold t in
        (r, it, ms (best_of (fun () -> Oocore.Stream.pagerank ~threshold t))))
  in
  let counters = Tile_stats.counters () in
  let evictions = List.assoc "tile_evictions" counters in
  let tile_loads = List.assoc "tile_loads" counters in
  let tile_stores = List.assoc "tile_stores" counters in
  let agree_bounded =
    Svector.equal bounded_ranks expect && bounded_iters = base_iters
  in
  Printf.printf
    "pagerank n=%d: in-memory %.3fms, tiled-unbounded %.3fms, tiled under \
     %dKiB budget %.3fms (%d evictions, %d loads, %d stores) — identical: \
     %s/%s\n"
    n inmem_ms unbounded_ms (budget / 1024) bounded_ms evictions tile_loads
    tile_stores
    (if agree_unbounded then "yes" else "NO")
    (if agree_bounded then "yes" else "NO");
  (* checkpointed run: same ranks, overhead visible, saves counted *)
  Tile_stats.reset ();
  let ckpt_ranks, ckpt_ms =
    with_tiled (fun t ->
        let r, _ = Oocore.Stream.pagerank ~threshold ~ckpt:"bench-pr" ~every:4 t in
        (r, ms (best_of (fun () -> Oocore.Stream.pagerank ~threshold ~ckpt:"bench-pr" ~every:4 t))))
  in
  let ckpt_saves = List.assoc "ckpt_saves" (Tile_stats.counters ()) in
  let agree_ckpt = Svector.equal ckpt_ranks expect in
  Printf.printf
    "checkpointed pagerank: %.3fms (plain tiled %.3fms, %d checkpoint \
     saves) — identical: %s\n"
    ckpt_ms unbounded_ms ckpt_saves
    (if agree_ckpt then "yes" else "NO");
  (* delta layer: converged prev + small batch, warm restart vs cold *)
  let prev = Array.make n 0.0 in
  Svector.iter (fun i v -> prev.(i) <- v) expect;
  let batch = [ (1, n - 2, Some 1.0); (n - 2, 1, Some 1.0) ] in
  let warm_iters, cold_iters, delta_ms, full_ms =
    with_tiled ~budget (fun t ->
        let ((_, warm_iters), _), delta_dt =
          time_once (fun () -> Oocore.Delta.pagerank_after ~threshold ~prev ~batch t)
        in
        let (_, cold_iters), full_dt =
          time_once (fun () -> Oocore.Stream.pagerank ~threshold t)
        in
        (warm_iters, cold_iters, ms delta_dt, ms full_dt))
  in
  let iter_speedup = float_of_int cold_iters /. float_of_int warm_iters in
  let delta_ok = warm_iters <= cold_iters in
  Printf.printf
    "delta restart after 1-edge batch: %d iters warm vs %d cold \
     (iteration speedup %.2fx, %.3fms vs %.3fms): %s\n"
    warm_iters cold_iters iter_speedup delta_ms full_ms
    (if delta_ok then "ok" else "SLOWER");
  let oc = open_out "BENCH_oocore.json" in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"experiment\": \"oocore\",\n";
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"n\": %d,\n" n;
  out "  \"tile\": \"%dx%d\",\n" (fst tile) (snd tile);
  out "  \"budget_bytes\": %d,\n" budget;
  out "  \"base_iters\": %d,\n" base_iters;
  out "  \"inmem_ms\": %.3f,\n" inmem_ms;
  out "  \"tiled_unbounded_ms\": %.3f,\n" unbounded_ms;
  out "  \"tiled_bounded_ms\": %.3f,\n" bounded_ms;
  out "  \"agree_unbounded\": %b,\n" agree_unbounded;
  out "  \"agree_bounded\": %b,\n" agree_bounded;
  out "  \"evictions\": %d,\n" evictions;
  out "  \"evictions_nonzero\": %b,\n" (evictions > 0);
  out "  \"tile_loads\": %d,\n" tile_loads;
  out "  \"tile_stores\": %d,\n" tile_stores;
  out
    "  \"ckpt\": { \"ms\": %.3f, \"saves\": %d, \"agree\": %b },\n"
    ckpt_ms ckpt_saves agree_ckpt;
  out
    "  \"delta\": { \"warm_iters\": %d, \"cold_iters\": %d, \
     \"iter_speedup\": %.3f, \"warm_not_slower\": %b, \"delta_ms\": %.3f, \
     \"full_ms\": %.3f }\n"
    warm_iters cold_iters iter_speedup delta_ok delta_ms full_ms;
  out "}\n";
  close_out oc;
  print_endline "wrote BENCH_oocore.json";
  print_newline ()

(* ---------------------------------------------------------------- *)

let default_sizes max_n =
  let rec build n acc =
    if n > max_n then List.rev acc else build (2 * n) (n :: acc)
  in
  build 128 []

let () =
  let args = Array.to_list Sys.argv in
  let has name = List.mem name args in
  let max_n =
    let rec find = function
      | "--max" :: v :: _ -> int_of_string v
      | _ :: rest -> find rest
      | [] -> 1024
    in
    find args
  in
  let all =
    not
      (List.exists
         (fun a ->
           List.mem a
             [ "fig10"; "fig11"; "compile"; "table1"; "ablation";
               "formats"; "warmup"; "faults"; "serve"; "oocore";
               "micro" ])
         args)
  in
  Printf.printf "ogb benchmark harness (JIT: %s)\n\n"
    (match Jit.Dispatch.effective_backend () with
    | `Native -> "native"
    | `Closure -> "closure");
  if all || has "table1" then table1 ();
  if all || has "fig10" then fig10 (default_sizes max_n);
  if all || has "fig11" then fig11 (default_sizes (2 * max_n));
  if all || has "compile" then compile_experiment ();
  if all || has "ablation" then ablation ();
  if all || has "formats" then
    formats_bench
      (let s = default_sizes max_n in
       if List.length s > 3 then
         (* keep the artifact at three sizes: the last three *)
         List.filteri (fun i _ -> i >= List.length s - 3) s
       else s);
  if all || has "warmup" then warmup_bench ();
  if all || has "faults" then faults_bench ();
  if all || has "serve" then serve_bench ();
  if all || has "oocore" then oocore_bench ();
  if all || has "micro" then micro ()
