(* Workload-breadth suite for the three newest tier-1 workloads: label
   propagation, k-truss and single-source betweenness centrality.  Each
   workload is checked four ways — deterministic cross-tier agreement
   against its tier-3 reference, qcheck blocking≡nonblocking
   bit-identity, and chaos-matrix equivalence under one OGB_FAULTS
   spec.
   Connected components gets the same cross-tier agreement, and a
   dispatch-count check over all eight tier-1 algorithms keeps the vm
   tier from running rounds the dsl tier does not. *)

open Gbtl
module C = Ogb.Container

(* ---- fixtures ---- *)

(* Symmetric loop-free adjacency (labelprop / ktruss operate on
   undirected graphs). *)
let sym_graph ~seed ~n ~m =
  let rng = Graphs.Rng.create ~seed in
  let g = Graphs.Generators.erdos_renyi_gnm rng ~nvertices:n ~nedges:m in
  Graphs.Convert.bool_adjacency (Graphs.Edge_list.symmetrize g)

(* Directed loop-free adjacency plus its edge pairs (bc). *)
let digraph ~seed ~n ~m =
  let rng = Graphs.Rng.create ~seed in
  let g = Graphs.Generators.erdos_renyi_gnm rng ~nvertices:n ~nedges:m in
  ( Graphs.Convert.bool_adjacency g,
    List.map (fun (s, d, _) -> (s, d)) g.Graphs.Edge_list.edges )

let int_svector_alist sv =
  List.rev (Svector.fold (fun acc i l -> (i, l) :: acc) [] sv)

let float_svector_alist sv =
  List.rev (Svector.fold (fun acc i x -> (i, x) :: acc) [] sv)

let int_labels_of_container c =
  List.map (fun (v, l) -> (v, int_of_float l)) (C.vector_entries c)

(* ---- label propagation ---- *)

let test_labelprop_tiers_agree () =
  List.iter
    (fun seed ->
      let adj = sym_graph ~seed ~n:18 ~m:30 in
      let expected = int_svector_alist (Algorithms.Labelprop.native adj) in
      let gc = C.of_smatrix adj in
      let check name labels =
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s agrees (seed %d)" name seed)
          expected
          (int_labels_of_container labels)
      in
      let blocking, rounds_b = Algorithms.Labelprop.dsl gc in
      let nonblocking, rounds_n = Algorithms.Labelprop.nonblocking gc in
      check "dsl" blocking;
      check "nonblocking" nonblocking;
      Alcotest.(check int)
        (Printf.sprintf "round counts agree (seed %d)" seed)
        rounds_b rounds_n;
      check "vm_loops" (Algorithms.Labelprop.vm_loops gc))
    [ 81; 82; 83 ]

let test_labelprop_two_cliques () =
  (* two disjoint 4-cliques: propagation settles on one label per
     clique (the smallest member), so exactly two communities *)
  let clique base = List.concat_map (fun i ->
      List.filter_map (fun j ->
          if i <> j then Some (base + i, base + j, true) else None)
        [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let adj = Smatrix.of_coo Dtype.Bool 8 8 (clique 0 @ clique 4) in
  let labels = Algorithms.Labelprop.native adj in
  Alcotest.(check int) "two communities" 2
    (Algorithms.Labelprop.community_count labels);
  Alcotest.(check (list (pair int int)))
    "each clique adopts its smallest label"
    [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 4); (5, 4); (6, 4); (7, 4) ]
    (int_svector_alist labels)

let test_labelprop_isolated_keep_labels () =
  (* an edgeless graph is already at its fixpoint *)
  let adj = Smatrix.create Dtype.Bool 5 5 in
  let labels = Algorithms.Labelprop.native adj in
  Alcotest.(check (list (pair int int)))
    "isolated vertices keep their seed label"
    [ (0, 0); (1, 1); (2, 2); (3, 3); (4, 4) ]
    (int_svector_alist labels)

let test_labelprop_oscillation_cap () =
  (* a single undirected edge swaps its two labels on every synchronous
     sweep and never settles: each tier must run exactly [rounds] sweeps
     and agree on the labels the cap leaves behind (swapped after an odd
     cap, restored after an even one) *)
  let adj = Smatrix.of_coo Dtype.Bool 2 2 [ (0, 1, true); (1, 0, true) ] in
  let gc = C.of_smatrix adj in
  List.iter
    (fun (rounds, expected) ->
      let check name labels =
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s stops at the %d-sweep cap" name rounds)
          expected labels
      in
      check "native"
        (int_svector_alist (Algorithms.Labelprop.native ~rounds adj));
      let blocking, swept = Algorithms.Labelprop.dsl ~rounds gc in
      Alcotest.(check int) "dsl runs the whole budget" rounds swept;
      check "dsl" (int_labels_of_container blocking);
      check "nonblocking"
        (int_labels_of_container
           (fst (Algorithms.Labelprop.nonblocking ~rounds gc)));
      check "vm_loops"
        (int_labels_of_container (Algorithms.Labelprop.vm_loops ~rounds gc)))
    [ (5, [ (0, 1); (1, 0) ]);
      (Algorithms.Labelprop.default_rounds, [ (0, 0); (1, 1) ]) ]

(* ---- connected components ---- *)

let cc_tiers_check ~label adj =
  let expected = int_svector_alist (Algorithms.Connected_components.native adj) in
  let gc = C.of_smatrix adj in
  let check name labels =
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "%s agrees (%s)" name label)
      expected
      (int_labels_of_container labels)
  in
  check "dsl" (Algorithms.Connected_components.dsl gc);
  check "nonblocking"
    (Exec.with_mode Exec.Nonblocking (fun () ->
         Algorithms.Connected_components.dsl gc));
  check "vm_loops" (Algorithms.Connected_components.vm_loops gc);
  expected

let test_cc_tiers_agree () =
  List.iter
    (fun seed ->
      ignore
        (cc_tiers_check
           ~label:(Printf.sprintf "seed %d" seed)
           (sym_graph ~seed ~n:24 ~m:20)))
    [ 71; 72; 73 ]

(* Kernel dispatches one call makes, measured after a warm-up call so
   first-call effects (compiles, format caches) are excluded. *)
let dispatches f =
  ignore (f ());
  let before = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.lookups in
  ignore (f ());
  (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.lookups - before

let test_cc_path_round_cap () =
  (* a 16-vertex path: label 0 needs n - 1 = 15 synchronous rounds to
     reach the far end, plus one round to see the fixpoint — exactly the
     vm program's n-round cap, so the vm tier must run the same 16
     rounds as the dsl tier (equal dispatch counts) and reach the same
     single component *)
  let n = 16 in
  let coo =
    List.concat
      (List.init (n - 1) (fun i -> [ (i, i + 1, true); (i + 1, i, true) ]))
  in
  let adj = Smatrix.of_coo Dtype.Bool n n coo in
  let expected = cc_tiers_check ~label:"16-path" adj in
  Alcotest.(check (list (pair int int)))
    "one component labelled 0" (List.init n (fun v -> (v, 0))) expected;
  let gc = C.of_smatrix adj in
  Alcotest.(check int)
    "vm runs exactly the dsl rounds on the path"
    (dispatches (fun () -> Algorithms.Connected_components.dsl gc))
    (dispatches (fun () -> Algorithms.Connected_components.vm_loops gc))

(* ---- tier parity: the vm tier runs no extra rounds ---- *)

(* The vm tier interprets the same loop the dsl tier compiles, so it must
   dispatch no more kernels than the dsl tier.  A vm program that runs a
   fixed round budget past the fixpoint shows up here as extra
   dispatches. *)
let parity_offenders (n, m) =
  let module A = Algorithms in
  let seed = 121 in
  let sym = sym_graph ~seed ~n ~m in
  let dir, _ = digraph ~seed ~n ~m in
  let rng = Graphs.Rng.create ~seed in
  let weighted =
    Graphs.Convert.matrix_of_edges Dtype.FP64
      (Graphs.Generators.erdos_renyi_gnm rng ~nvertices:n ~nedges:m
         ~weight:(fun r -> 1.0 +. float_of_int (Graphs.Rng.int r 9)))
  in
  let symc = C.of_smatrix sym and dirc = C.of_smatrix dir in
  let fp64c = C.of_smatrix (Smatrix.cast ~into:Dtype.FP64 dir) in
  let wc = C.of_smatrix weighted in
  let lowerc = C.of_smatrix (A.Triangle.of_undirected sym) in
  let cases =
    [ ( "bfs",
        (fun () -> ignore (A.Bfs.vm_loops dirc ~src:0)),
        fun () -> ignore (A.Bfs.dsl dirc ~src:0) );
      ( "sssp",
        (fun () -> ignore (A.Sssp.vm_loops wc ~src:0)),
        fun () -> ignore (A.Sssp.dsl wc ~src:0) );
      ( "pagerank",
        (fun () -> ignore (A.Pagerank.vm_loops fp64c)),
        fun () -> ignore (A.Pagerank.dsl fp64c) );
      ( "triangle",
        (fun () -> ignore (A.Triangle.vm_loops lowerc)),
        fun () -> ignore (A.Triangle.dsl lowerc) );
      ( "cc",
        (fun () -> ignore (A.Connected_components.vm_loops symc)),
        fun () -> ignore (A.Connected_components.dsl symc) );
      ( "labelprop",
        (fun () -> ignore (A.Labelprop.vm_loops symc)),
        fun () -> ignore (A.Labelprop.dsl symc) );
      ( "ktruss",
        (fun () -> ignore (A.Ktruss.vm_loops ~k:3 symc)),
        fun () -> ignore (A.Ktruss.dsl ~k:3 symc) );
      ( "bc",
        (fun () -> ignore (A.Bc.vm_loops dirc ~src:0)),
        fun () -> ignore (A.Bc.dsl dirc ~src:0) ) ]
  in
  List.filter_map
    (fun (name, vm, dsl) ->
      let vm_d = dispatches vm and dsl_d = dispatches dsl in
      if vm_d > dsl_d then
        Some
          (Printf.sprintf "%s (n=%d, m=%d): vm %d dispatches, dsl %d" name n m
             vm_d dsl_d)
      else None)
    cases

let test_vm_dispatch_parity () =
  match List.concat_map parity_offenders [ (64, 200); (256, 4096) ] with
  | [] -> ()
  | offenders ->
    Alcotest.failf "vm tier dispatches more kernels than dsl: %s"
      (String.concat "; " offenders)

(* ---- k-truss ---- *)

let truss_alist c =
  List.map (fun (i, j, _) -> (i, j)) (C.matrix_entries c)

let test_ktruss_tiers_agree () =
  List.iter
    (fun (seed, k) ->
      (* seed 95: isolated vertices (empty rows) and slack capacity *)
      let adj =
        if seed = 95 then Helpers.padded_adjacency ~seed ~n:16 ~m:44 ~isolated:5
        else sym_graph ~seed ~n:16 ~m:44
      in
      let expected =
        List.map (fun (i, j, _) -> (i, j))
          (List.sort compare
             (Smatrix.fold
                (fun acc i j v -> (i, j, v) :: acc)
                [] (Algorithms.Ktruss.native ~k adj)))
      in
      let gc = C.of_smatrix adj in
      let check name edges =
        Alcotest.(check (list (pair int int)))
          (Printf.sprintf "%s agrees (seed %d, k=%d)" name seed k)
          expected
          (List.sort compare edges)
      in
      check "dsl" (truss_alist (Algorithms.Ktruss.dsl ~k gc));
      check "nonblocking" (truss_alist (Algorithms.Ktruss.nonblocking ~k gc));
      check "vm_loops" (truss_alist (Algorithms.Ktruss.vm_loops ~k gc)))
    [ (91, 3); (92, 3); (93, 4); (94, 4); (95, 3) ]

let test_ktruss_two_triangles () =
  (* two triangles sharing edge (0,1): every edge sits in >= 1 triangle
     so the 3-truss keeps everything; only (0,1) has support 2, and once
     its companions are pruned it loses them too, so the 4-truss is
     empty *)
  let edges =
    [ (0, 1); (0, 2); (1, 2); (0, 3); (1, 3) ]
  in
  let coo =
    List.concat_map (fun (i, j) -> [ (i, j, true); (j, i, true) ]) edges
  in
  let adj = Smatrix.of_coo Dtype.Bool 4 4 coo in
  Alcotest.(check int) "3-truss keeps all 5 edges" 5
    (Algorithms.Ktruss.edge_count (Algorithms.Ktruss.native ~k:3 adj));
  Alcotest.(check int) "4-truss is empty" 0
    (Algorithms.Ktruss.edge_count (Algorithms.Ktruss.native ~k:4 adj))

(* ---- betweenness centrality (single source) ---- *)

(* One Brandes sweep: the dependency contribution delta_s(v) of a
   single source, the ground truth for [Bc.single_source]. *)
let ref_brandes_single edges n s =
  let adj = Array.make n [] in
  List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) edges;
  let sigma = Array.make n 0.0 and dist = Array.make n (-1) in
  let delta = Array.make n 0.0 in
  sigma.(s) <- 1.0;
  dist.(s) <- 0;
  let order = ref [] in
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    order := v :: !order;
    List.iter
      (fun w ->
        if dist.(w) < 0 then begin
          dist.(w) <- dist.(v) + 1;
          Queue.add w q
        end;
        if dist.(w) = dist.(v) + 1 then sigma.(w) <- sigma.(w) +. sigma.(v))
      adj.(v)
  done;
  List.iter
    (fun w ->
      List.iter
        (fun x ->
          if dist.(x) = dist.(w) + 1 then
            delta.(w) <-
              delta.(w) +. (sigma.(w) /. sigma.(x) *. (1.0 +. delta.(x))))
        adj.(w))
    !order;
  (* the GraphBLAS decode is dense: zeros stored, source pinned to 0 *)
  List.init n (fun v -> (v, if v = s then 0.0 else delta.(v)))

let test_bc_single_source_against_brandes () =
  List.iter
    (fun seed ->
      let adj, edges = digraph ~seed ~n:16 ~m:40 in
      List.iter
        (fun src ->
          let expected = ref_brandes_single edges 16 src in
          let got =
            float_svector_alist (Algorithms.Bc.single_source adj ~src)
          in
          Alcotest.check
            Alcotest.(list (pair int (float 1e-9)))
            (Printf.sprintf "single_source matches Brandes (seed %d, src %d)"
               seed src)
            expected got)
        [ 0; 3; 7 ])
    [ 95; 96; 97 ]

let test_bc_tiers_agree () =
  List.iter
    (fun seed ->
      let adj, _ = digraph ~seed ~n:14 ~m:36 in
      let src = 0 in
      let expected = float_svector_alist (Algorithms.Bc.single_source adj ~src) in
      let gc = C.of_smatrix adj in
      let check name c =
        Alcotest.check
          Alcotest.(list (pair int (float 1e-9)))
          (Printf.sprintf "%s agrees (seed %d)" name seed)
          expected (C.vector_entries c)
      in
      check "dsl" (Algorithms.Bc.dsl gc ~src);
      check "nonblocking" (Algorithms.Bc.nonblocking gc ~src);
      check "vm_loops" (Algorithms.Bc.vm_loops gc ~src))
    [ 101; 102; 103 ]

let test_bc_single_vs_batched () =
  let adj, _ = digraph ~seed:104 ~n:12 ~m:30 in
  List.iter
    (fun src ->
      let batched = Algorithms.Bc.native ~sources:[ src ] adj in
      let single = Algorithms.Bc.single_source adj ~src in
      Alcotest.check
        Alcotest.(list (pair int (float 1e-9)))
        (Printf.sprintf "single_source = native ~sources:[%d]" src)
        (float_svector_alist batched)
        (float_svector_alist single))
    [ 0; 5; 11 ]

(* ---- qcheck: blocking ≡ nonblocking bit-identity ---- *)

(* A generated undirected instance: vertex count and an edge budget,
   realized through the seeded graph generator so shrinking stays
   meaningful. *)
let graph_case_gen =
  let open QCheck.Gen in
  int_range 4 16 >>= fun n ->
  int_range n (3 * n) >>= fun m ->
  int_bound 10_000 >|= fun seed -> (n, m, seed)

let graph_case_arb =
  QCheck.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "n=%d m=%d seed=%d" n m seed)
    graph_case_gen

let qtest name law = Helpers.qtest ~count:40 name graph_case_arb law

let qcheck_labelprop_nonblocking =
  qtest "labelprop: blocking ≡ nonblocking (bit-identical)"
    (fun (n, m, seed) ->
      let gc = C.of_smatrix (sym_graph ~seed ~n ~m) in
      let lb, rb = Algorithms.Labelprop.dsl gc in
      let ln, rn = Algorithms.Labelprop.nonblocking gc in
      rb = rn && C.equal lb ln)

let qcheck_ktruss_nonblocking =
  qtest "ktruss: blocking ≡ nonblocking (bit-identical)"
    (fun (n, m, seed) ->
      let gc = C.of_smatrix (sym_graph ~seed ~n ~m) in
      List.for_all
        (fun k ->
          C.equal (Algorithms.Ktruss.dsl ~k gc)
            (Algorithms.Ktruss.nonblocking ~k gc))
        [ 3; 4 ])

let qcheck_bc_nonblocking =
  qtest "bc: blocking ≡ nonblocking (bit-identical)"
    (fun (n, m, seed) ->
      let adj, _ = digraph ~seed ~n ~m in
      let gc = C.of_smatrix adj in
      C.equal (Algorithms.Bc.dsl gc ~src:0) (Algorithms.Bc.nonblocking gc ~src:0))

(* ---- chaos: one OGB_FAULTS spec per workload ---- *)

(* Faults may only show up in the resilience counters: the nonblocking
   run under an armed spec must be bit-identical to the clean blocking
   result.  Scheduler faults need a multi-domain scheduler. *)
let with_chaos spec f =
  (match Fault.arm_spec spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "bad chaos spec %S: %s" spec e);
  Exec.Scheduler.set_domains 2;
  Fun.protect
    ~finally:(fun () ->
      Fault.disarm ();
      Exec.Scheduler.clear_domains_override ())
    f

let test_labelprop_chaos () =
  let gc = C.of_smatrix (sym_graph ~seed:111 ~n:24 ~m:60) in
  let clean, rounds = Algorithms.Labelprop.dsl gc in
  let chaos, chaos_rounds =
    with_chaos "sched.worker.exn=p0.4,seed=11" (fun () ->
        Algorithms.Labelprop.nonblocking gc)
  in
  Alcotest.(check int) "round counts identical" rounds chaos_rounds;
  Alcotest.(check bool) "labels identical under worker exceptions" true
    (C.equal clean chaos)

let test_ktruss_chaos () =
  let gc = C.of_smatrix (sym_graph ~seed:112 ~n:20 ~m:70) in
  let clean = Algorithms.Ktruss.dsl ~k:3 gc in
  let chaos =
    with_chaos "sched.worker.slow=p0.5,seed=5" (fun () ->
        Algorithms.Ktruss.nonblocking ~k:3 gc)
  in
  Alcotest.(check bool) "truss identical under slow workers" true
    (C.equal clean chaos)

let test_bc_chaos () =
  let adj, _ = digraph ~seed:113 ~n:24 ~m:70 in
  let gc = C.of_smatrix adj in
  let clean = Algorithms.Bc.dsl gc ~src:0 in
  let chaos =
    with_chaos "sched.worker.exn=p0.3,seed=7" (fun () ->
        Algorithms.Bc.nonblocking gc ~src:0)
  in
  Alcotest.(check bool) "centrality identical under worker exceptions" true
    (C.equal clean chaos)

(* ---- the algorithm × tier registry ---- *)

module R = Algorithms.Registry

let load spec =
  match Server.Graph_spec.load_fp64 spec ~symmetrize:true with
  | Ok m -> m
  | Error e -> Alcotest.failf "%s: %s" spec e

(* Entries in vertex order, so ranked tiers compare by value; pagerank's
   vm tier reports no iteration count, so iters compare only where both
   tiers report one. *)
let same_result a b =
  match (a, b) with
  | R.Count x, R.Count y -> x = y
  | R.Entries a, R.Entries b ->
    let by_vertex l = List.sort compare l in
    by_vertex a.entries = by_vertex b.entries
    && (match (a.iters, b.iters) with Some x, Some y -> x = y | _ -> true)
  | _ -> false

let show_result = function
  | R.Count n -> string_of_int n
  | R.Entries { entries; iters } ->
    Printf.sprintf "%d entries%s" (List.length entries)
      (match iters with Some k -> Printf.sprintf ", %d iters" k | None -> "")

let test_registry_tiers_agree () =
  List.iter
    (fun spec ->
      let m = load spec in
      List.iter
        (fun (e : R.entry) ->
          match e.tiers with
          | [] -> Alcotest.failf "%s lists no tier" e.name
          | first :: rest ->
            let expected = (e.run first m ~src:0).result in
            List.iter
              (fun t ->
                let got = (e.run t m ~src:0).result in
                if not (same_result expected got) then
                  Alcotest.failf "%s on %s: %s gives %s, %s gives %s" e.name
                    spec (R.tier_name first) (show_result expected)
                    (R.tier_name t) (show_result got))
              rest)
        R.all)
    [ "er:n=128"; "rmat:scale=8" ];
  List.iter
    (fun (e : R.entry) ->
      let want = if e.name = "mis" then 1 else 4 in
      Alcotest.(check int) (e.name ^ " tier count") want (List.length e.tiers))
    R.all

let test_registry_count_renders_integer () =
  let tc = Option.get (R.find "tc") in
  Alcotest.(check string) "integer count" "triangles: 1234567"
    (R.summary tc (R.Count 1_234_567))

let suite =
  [ Alcotest.test_case "labelprop: tiers agree" `Quick
      test_labelprop_tiers_agree;
    Alcotest.test_case "labelprop: two cliques" `Quick
      test_labelprop_two_cliques;
    Alcotest.test_case "labelprop: isolated vertices" `Quick
      test_labelprop_isolated_keep_labels;
    Alcotest.test_case "labelprop: oscillation stops at the cap" `Quick
      test_labelprop_oscillation_cap;
    Alcotest.test_case "cc: tiers agree" `Quick test_cc_tiers_agree;
    Alcotest.test_case "cc: path pins the n-round cap" `Quick
      test_cc_path_round_cap;
    Alcotest.test_case "tiers: vm dispatches no more kernels than dsl" `Quick
      test_vm_dispatch_parity;
    Alcotest.test_case "ktruss: tiers agree" `Quick test_ktruss_tiers_agree;
    Alcotest.test_case "ktruss: two triangles" `Quick
      test_ktruss_two_triangles;
    Alcotest.test_case "bc: single source vs Brandes" `Quick
      test_bc_single_source_against_brandes;
    Alcotest.test_case "bc: tiers agree" `Quick test_bc_tiers_agree;
    Alcotest.test_case "bc: single vs batched" `Quick
      test_bc_single_vs_batched;
    Helpers.to_alcotest qcheck_labelprop_nonblocking;
    Helpers.to_alcotest qcheck_ktruss_nonblocking;
    Helpers.to_alcotest qcheck_bc_nonblocking;
    Alcotest.test_case "chaos: labelprop under sched.worker.exn" `Quick
      test_labelprop_chaos;
    Alcotest.test_case "chaos: ktruss under sched.worker.slow" `Quick
      test_ktruss_chaos;
    Alcotest.test_case "chaos: bc under sched.worker.exn" `Quick test_bc_chaos;
    Alcotest.test_case "registry: every tier of every entry agrees" `Quick
      test_registry_tiers_agree;
    Alcotest.test_case "registry: counts render as integers" `Quick
      test_registry_count_renders_integer ]
