(* Algorithm correctness: every tier against an independent reference
   implementation (plain-OCaml BFS queue, Bellman–Ford on adjacency
   lists, brute-force triangle enumeration, dense power iteration), and
   cross-tier agreement on random graphs. *)

open Gbtl

(* -- reference implementations (no GraphBLAS machinery) -- *)

let ref_bfs edges n src =
  let adj = Array.make n [] in
  List.iter (fun (s, d) -> adj.(s) <- d :: adj.(s)) edges;
  let level = Array.make n 0 in
  level.(src) <- 1;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun w ->
        if level.(w) = 0 then begin
          level.(w) <- level.(v) + 1;
          Queue.add w q
        end)
      adj.(v)
  done;
  List.filter (fun (_, l) -> l > 0) (Array.to_list (Array.mapi (fun i l -> (i, l)) level))

let ref_bellman_ford edges n src =
  let dist = Array.make n infinity in
  dist.(src) <- 0.0;
  for _ = 1 to n do
    List.iter
      (fun (s, d, w) ->
        if dist.(s) +. w < dist.(d) then dist.(d) <- dist.(s) +. w)
      edges
  done;
  List.filter
    (fun (_, d) -> d < infinity)
    (Array.to_list (Array.mapi (fun i d -> (i, d)) dist))

let ref_triangles pairs n =
  let adj = Array.make_matrix n n false in
  List.iter
    (fun (s, d) ->
      adj.(s).(d) <- true;
      adj.(d).(s) <- true)
    pairs;
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      for k = j + 1 to n - 1 do
        if adj.(i).(j) && adj.(j).(k) && adj.(i).(k) then incr count
      done
    done
  done;
  !count

let ref_components pairs n =
  let parent = Array.init n Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  List.iter
    (fun (s, d) ->
      let rs = find s and rd = find d in
      if rs <> rd then parent.(rs) <- rd)
    pairs;
  let roots = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    Hashtbl.replace roots (find v) ()
  done;
  Hashtbl.length roots

(* -- fixtures -- *)

let random_digraph seed n =
  let rng = Graphs.Rng.create ~seed in
  Graphs.Generators.erdos_renyi_paper rng ~nvertices:n

let pairs_of g = List.map (fun (s, d, _) -> (s, d)) g.Graphs.Edge_list.edges

let sorted_alist l = List.sort compare l

(* -- BFS -- *)

let test_bfs_against_reference () =
  List.iter
    (fun seed ->
      let g = random_digraph seed 24 in
      let adj = Graphs.Convert.bool_adjacency g in
      let expected = ref_bfs (pairs_of g) 24 0 in
      let levels = Algorithms.Bfs.native adj ~src:0 in
      Alcotest.check
        Alcotest.(list (pair int int))
        (Printf.sprintf "bfs matches queue reference (seed %d)" seed)
        (sorted_alist expected)
        (sorted_alist (Algorithms.Bfs.levels_of_svector levels)))
    [ 1; 2; 3; 4; 5 ]

let test_bfs_tiers_agree () =
  let g = random_digraph 7 20 in
  let adj = Graphs.Convert.bool_adjacency g in
  let native =
    sorted_alist (Algorithms.Bfs.levels_of_svector (Algorithms.Bfs.native adj ~src:0))
  in
  let gc = Ogb.Container.of_smatrix adj in
  let check name levels =
    Alcotest.check
      Alcotest.(list (pair int int))
      (name ^ " agrees with native") native
      (sorted_alist (Algorithms.Bfs.levels_of_container levels))
  in
  check "dsl" (Algorithms.Bfs.dsl gc ~src:0);
  check "vm_loops" (Algorithms.Bfs.vm_loops gc ~src:0);
  check "vm_whole" (Algorithms.Bfs.vm_whole gc ~src:0);
  Alcotest.check
    Alcotest.(list (pair int int))
    "generic library tier agrees" native
    (sorted_alist
       (Algorithms.Bfs.levels_of_svector (Algorithms.Bfs.generic adj ~src:0)))

(* RMAT-9 from the hub: the first frontiers are below 1/8 fill (sparse
   masks), later ones above it (dense masks), and [levels] crosses the
   1/4 densify threshold mid-run.  The oracles ([ref_bfs],
   [Bfs.native_dense], [Bc.single_source]) never call [Assign]. *)
let rmat_fixture () =
  let g =
    Graphs.Generators.rmat (Graphs.Rng.create ~seed:7) ~scale:9 ~edge_factor:8
  in
  let n = 512 in
  let expected = sorted_alist (ref_bfs (pairs_of g) n 0) in
  let widths = Array.make (n + 2) 0 in
  List.iter (fun (_, l) -> widths.(l) <- widths.(l) + 1) expected;
  let widths = Array.to_list widths |> List.filter (fun w -> w > 0) in
  if
    not
      (List.exists (fun w -> 8 * w < n) widths
      && List.exists (fun w -> 8 * w >= n) widths
      && 4 * List.length expected >= n)
  then Alcotest.fail "RMAT fixture no longer crosses the layout thresholds";
  (Graphs.Convert.bool_adjacency g, expected)

let test_bfs_tiers_rmat () =
  let adj, expected = rmat_fixture () in
  let gc = Ogb.Container.of_smatrix adj in
  List.iter
    (fun formats ->
      Format_stats.with_enabled formats (fun () ->
          let check name got =
            Alcotest.check
              Alcotest.(list (pair int int))
              (Printf.sprintf "%s (formats %b)" name formats)
              expected (sorted_alist got)
          in
          check "native_dense"
            (Algorithms.Bfs.levels_of_svector
               (Algorithms.Bfs.native_dense adj ~src:0));
          check "dsl"
            (Algorithms.Bfs.levels_of_container (Algorithms.Bfs.dsl gc ~src:0));
          check "nonblocking"
            (Algorithms.Bfs.levels_of_container
               (Exec.with_mode Exec.Nonblocking (fun () ->
                    Algorithms.Bfs.dsl gc ~src:0)));
          check "vm"
            (Algorithms.Bfs.levels_of_container
               (Algorithms.Bfs.vm_loops gc ~src:0))))
    [ true; false ]

let test_bc_tiers_rmat () =
  let adj, _ = rmat_fixture () in
  let gc = Ogb.Container.of_smatrix adj in
  let bits l = List.map (fun (i, x) -> (i, Int64.bits_of_float x)) l in
  List.iter
    (fun formats ->
      Format_stats.with_enabled formats (fun () ->
          let expected =
            bits (Svector.to_alist (Algorithms.Bc.single_source adj ~src:0))
          in
          let check name got =
            Alcotest.check
              Alcotest.(list (pair int int64))
              (Printf.sprintf "%s (formats %b)" name formats)
              expected
              (bits (Ogb.Container.vector_entries got))
          in
          check "dsl" (Algorithms.Bc.dsl gc ~src:0);
          check "nonblocking" (Algorithms.Bc.nonblocking gc ~src:0);
          check "vm" (Algorithms.Bc.vm_loops gc ~src:0)))
    [ true; false ]

let test_bfs_disconnected () =
  let adj = Smatrix.of_coo Dtype.Bool 4 4 [ (0, 1, true) ] in
  let levels = Algorithms.Bfs.native adj ~src:0 in
  Alcotest.check
    Alcotest.(list (pair int int))
    "unreachable vertices have no level"
    [ (0, 1); (1, 2) ]
    (Algorithms.Bfs.levels_of_svector levels)

(* -- SSSP -- *)

let weighted_graph seed n =
  let rng = Graphs.Rng.create ~seed in
  let g =
    Graphs.Generators.erdos_renyi_gnm rng ~nvertices:n
      ~nedges:(3 * n)
      ~weight:(fun r -> 1.0 +. float_of_int (Graphs.Rng.int r 9))
  in
  g

let test_sssp_against_reference () =
  List.iter
    (fun seed ->
      let g = weighted_graph seed 20 in
      let adj = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
      let expected = ref_bellman_ford g.Graphs.Edge_list.edges 20 0 in
      let dist = Algorithms.Sssp.native adj ~src:0 in
      let actual =
        List.rev (Svector.fold (fun acc i d -> (i, d) :: acc) [] dist)
      in
      Alcotest.check
        Alcotest.(list (pair int (float 1e-9)))
        (Printf.sprintf "sssp matches Bellman-Ford (seed %d)" seed)
        (sorted_alist expected) (sorted_alist actual))
    [ 11; 12; 13 ]

let test_sssp_tiers_agree () =
  let g = weighted_graph 21 16 in
  let adj = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
  let gc = Ogb.Container.of_smatrix adj in
  let native =
    List.rev
      (Svector.fold (fun acc i d -> (i, d) :: acc) [] (Algorithms.Sssp.native adj ~src:0))
  in
  let check name dist =
    Alcotest.check
      Alcotest.(list (pair int (float 1e-9)))
      (name ^ " agrees") (sorted_alist native)
      (sorted_alist (Algorithms.Sssp.distances_of_container dist))
  in
  check "dsl" (Algorithms.Sssp.dsl gc ~src:0);
  check "vm_loops" (Algorithms.Sssp.vm_loops gc ~src:0);
  check "vm_whole" (Algorithms.Sssp.vm_whole gc ~src:0);
  Alcotest.check
    Alcotest.(list (pair int (float 1e-9)))
    "generic library tier agrees" (sorted_alist native)
    (sorted_alist
       (List.rev
          (Svector.fold
             (fun acc i d -> (i, d) :: acc)
             []
             (Algorithms.Sssp.generic adj ~src:0))))

(* Sweep counts.  [native_sweeps]/[dsl_sweeps] report theirs; every
   tier, the VM included, dispatches exactly one min-plus mxv per sweep,
   so the dispatch counter counts the VM's sweeps too. *)
let min_plus_products f =
  let count () =
    List.fold_left
      (fun acc (key, hits, misses) ->
        if
          String.starts_with ~prefix:"mxv|" key
          && Helpers.contains_substring key "add:Min,"
          && Helpers.contains_substring key "mul:Plus"
        then acc + hits + misses
        else acc)
      0
      (Jit.Jit_stats.per_signature ())
  in
  let before = count () in
  let r = f () in
  (r, count () - before)

let distance_bits alist =
  List.map (fun (i, d) -> (i, Int64.bits_of_float d)) (sorted_alist alist)

let svector_distances v =
  List.rev (Svector.fold (fun acc i d -> (i, d) :: acc) [] v)

(* Runs every tier on [adj] from [src]; checks each against [generic]
   bit for bit and returns (tier, sweeps, min-plus products). *)
let sssp_tier_sweeps adj ~src =
  let gc = Ogb.Container.of_smatrix adj in
  let expected =
    distance_bits (svector_distances (Algorithms.Sssp.generic adj ~src))
  in
  let check name alist =
    Alcotest.(check (list (pair int int64)))
      (name ^ " = generic, bit for bit") expected (distance_bits alist)
  in
  let of_c c = Algorithms.Sssp.distances_of_container c in
  let (d, native), pn =
    min_plus_products (fun () -> Algorithms.Sssp.native_sweeps adj ~src)
  in
  check "native" (svector_distances d);
  let (c, dsl), pd =
    min_plus_products (fun () -> Algorithms.Sssp.dsl_sweeps gc ~src)
  in
  check "dsl" (of_c c);
  let (c, nonblocking), pb =
    min_plus_products (fun () ->
        Exec.with_mode Exec.Nonblocking (fun () ->
            Algorithms.Sssp.dsl_sweeps gc ~src))
  in
  check "nonblocking" (of_c c);
  let c, pv = min_plus_products (fun () -> Algorithms.Sssp.vm_loops gc ~src) in
  check "vm_loops" (of_c c);
  check "vm_whole" (of_c (Algorithms.Sssp.vm_whole gc ~src));
  [ ("native", native, pn); ("dsl", dsl, pd); ("nonblocking", nonblocking, pb);
    ("vm_loops", pv, pv) ]

let check_sweeps what ~expected tiers =
  List.iter
    (fun (tier, sweeps, products) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s sweeps" what tier)
        expected sweeps;
      Alcotest.(check int)
        (Printf.sprintf "%s: %s min-plus products" what tier)
        expected products)
    tiers

(* 0 -> 1 -> ... -> k with weights 1..k, then [extra] unreachable
   vertices, one of them with an edge into the path. *)
let directed_path ?(extra = 0) k =
  let n = k + 1 + extra in
  let edges = List.init k (fun i -> (i, i + 1, float_of_int (i + 1))) in
  let edges = if extra > 0 then (n - 1, 0, 1.0) :: edges else edges in
  Smatrix.of_coo Dtype.FP64 n n edges

let test_sssp_fixpoint_sweeps () =
  List.iter
    (fun k ->
      check_sweeps
        (Printf.sprintf "path of %d + 5 unreachable" (k + 1))
        ~expected:(k + 1)
        (sssp_tier_sweeps (directed_path ~extra:5 k) ~src:0))
    [ 1; 3; 10 ];
  (* n vertices on one path: settling takes n - 1 sweeps and the
     confirming one is the cap *)
  check_sweeps "path of 12" ~expected:12
    (sssp_tier_sweeps (directed_path 11) ~src:0);
  (* a source with no out-edges settles at once *)
  check_sweeps "isolated source" ~expected:1
    (sssp_tier_sweeps (directed_path ~extra:3 4) ~src:6);
  (* a negative cycle never settles: the cap stops every tier *)
  let neg =
    Smatrix.of_coo Dtype.FP64 6 6 [ (0, 1, 1.0); (1, 2, -3.0); (2, 0, 1.0) ]
  in
  check_sweeps "negative cycle" ~expected:6 (sssp_tier_sweeps neg ~src:0);
  (* ER graphs: bit-identical to generic, well under the cap *)
  List.iter
    (fun seed ->
      let n = 64 in
      let adj =
        Graphs.Convert.matrix_of_edges Dtype.FP64 (weighted_graph seed n)
      in
      List.iter
        (fun (tier, sweeps, products) ->
          Alcotest.(check int)
            (tier ^ ": one product per sweep")
            sweeps products;
          Alcotest.(check bool)
            (Printf.sprintf "ER-%d seed %d: %s stops early (%d sweeps)" n seed
               tier sweeps)
            true (sweeps < n))
        (sssp_tier_sweeps adj ~src:0))
    [ 1; 2; 3; 4; 5 ]

(* -- triangle counting -- *)

let test_triangles_against_reference () =
  List.iter
    (fun seed ->
      let rng = Graphs.Rng.create ~seed in
      let g =
        Graphs.Generators.erdos_renyi_gnm rng ~nvertices:16 ~nedges:40
      in
      let sym = Graphs.Edge_list.symmetrize g in
      let adj = Graphs.Convert.bool_adjacency sym in
      let l = Algorithms.Triangle.of_undirected adj in
      Alcotest.check Alcotest.int
        (Printf.sprintf "triangle count matches brute force (seed %d)" seed)
        (ref_triangles (pairs_of g) 16)
        (Algorithms.Triangle.native l))
    [ 31; 32; 33; 34 ]

let test_triangles_tiers_agree () =
  let rng = Graphs.Rng.create ~seed:35 in
  let g = Graphs.Generators.erdos_renyi_gnm rng ~nvertices:14 ~nedges:40 in
  let sym = Graphs.Edge_list.symmetrize g in
  List.iter
    (fun (label, adj) ->
      let l = Algorithms.Triangle.of_undirected adj in
      let native = float_of_int (Algorithms.Triangle.native l) in
      let lc = Ogb.Container.of_smatrix l in
      let check tier got =
        Alcotest.check (Alcotest.float 0.0) (label ^ ": " ^ tier) native got
      in
      check "dsl" (Algorithms.Triangle.dsl lc);
      check "vm_loops" (Algorithms.Triangle.vm_loops lc);
      check "vm_whole" (Algorithms.Triangle.vm_whole lc);
      check "nonblocking" (Algorithms.Triangle.nonblocking lc))
    [ ("ER-14", Graphs.Convert.bool_adjacency sym);
      ( "ER-20 with isolated vertices and slack",
        Helpers.padded_adjacency ~seed:36 ~n:14 ~m:40 ~isolated:6 ) ]

(* The one-pass input against the cast -> map -> lower_triangle spelling
   it replaced and a to_coo filter, on float matrices with empty rows,
   with and without slack capacity. *)
let qcheck_of_undirected =
  Helpers.qtest ~count:200 "Triangle.of_undirected ≡ cast/map/lower_triangle"
    (Helpers.arb
       QCheck.Gen.(int_range 0 8 >>= fun n ->
                   pair (return n) (Helpers.mat_gen ~density:0.4 n n))
       ~print:(fun (_, d) -> Helpers.print_mat d))
    (fun (n, d) ->
      let m0 = Dense_ref.smatrix_of_mat Dtype.FP64 n n d in
      List.for_all
        (fun m ->
          let got = Algorithms.Triangle.of_undirected m in
          let spelled =
            Utilities.lower_triangle ~strict:true
              (Smatrix.map
                 (Smatrix.cast ~into:Dtype.Int64 (Smatrix.cast ~into:Dtype.Bool m))
                 ~f:(fun _ -> 1))
          and by_coo =
            Smatrix.of_coo Dtype.Int64 n n
              (List.filter_map
                 (fun (r, c, _) -> if c < r then Some (r, c, 1) else None)
                 (Smatrix.to_coo m))
          in
          Smatrix.equal got spelled && Smatrix.equal got by_coo
          && Smatrix.unsafe_rowptr got = Smatrix.unsafe_rowptr by_coo
          && Array.length (Smatrix.unsafe_colidx got) = Smatrix.nvals got)
        [ m0; Helpers.with_slack m0 ])

let test_known_triangle_counts () =
  let complete n = Graphs.Generators.complete n in
  let count g =
    Algorithms.Triangle.native
      (Algorithms.Triangle.of_undirected (Graphs.Convert.bool_adjacency g))
  in
  Alcotest.check Alcotest.int "K4 has 4 triangles" 4 (count (complete 4));
  Alcotest.check Alcotest.int "K5 has 10 triangles" 10 (count (complete 5));
  Alcotest.check Alcotest.int "a path has none" 0
    (count (Graphs.Edge_list.symmetrize (Graphs.Generators.path 6)))

(* -- PageRank -- *)

let ref_pagerank edges n damping iters =
  (* dense power iteration *)
  let out_deg = Array.make n 0 in
  List.iter (fun (s, _) -> out_deg.(s) <- out_deg.(s) + 1) edges;
  let rank = Array.make n (1.0 /. float_of_int n) in
  let teleport = (1.0 -. damping) /. float_of_int n in
  for _ = 1 to iters do
    let next = Array.make n 0.0 in
    List.iter
      (fun (s, d) ->
        next.(d) <- next.(d) +. (damping *. rank.(s) /. float_of_int out_deg.(s)))
      edges;
    Array.iteri (fun i x -> rank.(i) <- x +. teleport) next
  done;
  rank

let test_pagerank_against_reference () =
  let g = random_digraph 41 16 in
  let adj = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
  let ranks, _ = Algorithms.Pagerank.native ~threshold:1e-12 adj in
  let expected = ref_pagerank (pairs_of g) 16 0.85 200 in
  Svector.iter
    (fun i r ->
      if abs_float (r -. expected.(i)) > 1e-6 then
        Alcotest.failf "rank of %d: %f vs reference %f" i r expected.(i))
    ranks

(* Every tier computes the native tier's ranks bit for bit, in the same
   number of iterations.  n = 96 is above the size-32 densify floor, so
   the rank vectors turn dense and the DSL tiers run the dense kernels. *)
let test_pagerank_tiers_agree () =
  let g = random_digraph 42 96 in
  let adj = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
  let gc = Ogb.Container.of_smatrix adj in
  let bits l = List.map (fun (i, x) -> (i, Int64.bits_of_float x)) (sorted_alist l) in
  let native, native_iters = Algorithms.Pagerank.native adj in
  let native_l =
    bits (List.rev (Svector.fold (fun acc i x -> (i, x) :: acc) [] native))
  in
  let check name ranks =
    Alcotest.check
      Alcotest.(list (pair int int64))
      (name ^ " ranks equal native's") native_l
      (bits (Algorithms.Pagerank.ranks_of_container ranks))
  in
  let check_iters name iters =
    Alcotest.check Alcotest.int (name ^ " iterations equal native's")
      native_iters iters
  in
  let dsl_ranks, dsl_iters = Algorithms.Pagerank.dsl gc in
  check "dsl" dsl_ranks;
  check_iters "dsl" dsl_iters;
  let nb_ranks, nb_iters = Algorithms.Pagerank.nonblocking gc in
  check "nonblocking" nb_ranks;
  check_iters "nonblocking" nb_iters;
  check "vm_loops" (Algorithms.Pagerank.vm_loops gc);
  check "vm_whole" (Algorithms.Pagerank.vm_whole gc);
  let generic_ranks, generic_iters = Algorithms.Pagerank.generic adj in
  Alcotest.check
    Alcotest.(list (pair int int64))
    "generic library tier ranks equal native's" native_l
    (bits
       (List.rev (Svector.fold (fun acc i x -> (i, x) :: acc) [] generic_ranks)));
  check_iters "generic" generic_iters

let test_pagerank_sums_to_one () =
  let g = random_digraph 43 20 in
  let adj = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
  let ranks, _ = Algorithms.Pagerank.native adj in
  let total = Svector.fold (fun acc _ x -> acc +. x) 0.0 ranks in
  (* rank mass is conserved up to dangling-node leakage; with the paper's
     teleport fill it stays close to 1 *)
  Alcotest.check Alcotest.bool "total rank near 1" true
    (total > 0.8 && total < 1.2)

(* -- connected components -- *)

let test_components_against_reference () =
  List.iter
    (fun seed ->
      let rng = Graphs.Rng.create ~seed in
      let g =
        Graphs.Generators.erdos_renyi_gnm rng ~nvertices:30 ~nedges:25
      in
      let sym = Graphs.Edge_list.symmetrize g in
      let adj = Graphs.Convert.bool_adjacency sym in
      let labels = Algorithms.Connected_components.native adj in
      Alcotest.check Alcotest.int
        (Printf.sprintf "component count matches union-find (seed %d)" seed)
        (ref_components (pairs_of g) 30)
        (Algorithms.Connected_components.component_count labels))
    [ 51; 52; 53 ]

let test_components_dsl_agrees () =
  let rng = Graphs.Rng.create ~seed:54 in
  let g = Graphs.Generators.erdos_renyi_gnm rng ~nvertices:20 ~nedges:15 in
  let sym = Graphs.Edge_list.symmetrize g in
  let adj = Graphs.Convert.bool_adjacency sym in
  let native = Algorithms.Connected_components.native adj in
  let dsl = Algorithms.Connected_components.dsl (Ogb.Container.of_smatrix adj) in
  Alcotest.check
    Alcotest.(list (pair int (float 0.0)))
    "labels agree"
    (List.rev (Svector.fold (fun acc i l -> (i, float_of_int l) :: acc) [] native))
    (Ogb.Container.vector_entries dsl)

(* -- betweenness centrality -- *)

(* classic Brandes on adjacency lists *)
let ref_brandes edges n =
  let adj = Array.make n [] in
  List.iter (fun (s, d) -> adj.(s) <- d :: adj.(s)) edges;
  let bc = Array.make n 0.0 in
  for s = 0 to n - 1 do
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
          adj.(w);
        if w <> s then bc.(w) <- bc.(w) +. delta.(w))
      !order
  done;
  bc

let test_bc_against_brandes () =
  List.iter
    (fun seed ->
      let rng = Graphs.Rng.create ~seed in
      let g = Graphs.Generators.erdos_renyi_gnm rng ~nvertices:16 ~nedges:40 in
      let adj = Graphs.Convert.bool_adjacency g in
      let expected = ref_brandes (pairs_of g) 16 in
      let bc = Algorithms.Bc.native adj in
      Array.iteri
        (fun v e ->
          let got = Option.value ~default:0.0 (Svector.get bc v) in
          if abs_float (got -. e) > 1e-9 then
            Alcotest.failf "BC(%d) = %f, reference %f (seed %d)" v got e seed)
        expected)
    [ 71; 72; 73 ]

let test_bc_path_graph () =
  (* directed path 0->1->2->3: interior vertices lie on 0->k paths *)
  let p = Graphs.Convert.bool_adjacency (Graphs.Generators.path 4) in
  let bc = Algorithms.Bc.native p in
  Alcotest.check (Alcotest.float 1e-12) "BC(1) = 2" 2.0
    (Option.value ~default:0.0 (Svector.get bc 1));
  Alcotest.check (Alcotest.float 1e-12) "BC(2) = 2" 2.0
    (Option.value ~default:0.0 (Svector.get bc 2));
  Alcotest.check (Alcotest.float 1e-12) "BC(0) = 0" 0.0
    (Option.value ~default:0.0 (Svector.get bc 0))

let test_bc_batch_subset () =
  let rng = Graphs.Rng.create ~seed:74 in
  let g = Graphs.Generators.erdos_renyi_gnm rng ~nvertices:12 ~nedges:30 in
  let adj = Graphs.Convert.bool_adjacency g in
  let full = Algorithms.Bc.native adj in
  let batched =
    List.fold_left
      (fun acc s ->
        let part = Algorithms.Bc.native ~sources:[ s ] adj in
        Svector.iter
          (fun v x -> acc.(v) <- acc.(v) +. x)
          part;
        acc)
      (Array.make 12 0.0) (List.init 12 Fun.id)
  in
  Array.iteri
    (fun v x ->
      let f = Option.value ~default:0.0 (Svector.get full v) in
      if abs_float (f -. x) > 1e-9 then
        Alcotest.failf "batch sum mismatch at %d: %f vs %f" v x f)
    batched

(* -- maximal independent set -- *)

let test_mis_invariants () =
  List.iter
    (fun seed ->
      let rng = Graphs.Rng.create ~seed in
      let g =
        Graphs.Edge_list.symmetrize
          (Graphs.Generators.erdos_renyi_gnm rng ~nvertices:40 ~nedges:80)
      in
      let adj = Graphs.Convert.bool_adjacency g in
      let iset = Algorithms.Mis.native ~seed adj in
      Alcotest.check Alcotest.bool
        (Printf.sprintf "independent (seed %d)" seed)
        true
        (Algorithms.Mis.is_independent adj iset);
      Alcotest.check Alcotest.bool
        (Printf.sprintf "maximal (seed %d)" seed)
        true
        (Algorithms.Mis.is_maximal adj iset))
    [ 61; 62; 63; 64; 65 ]

let test_mis_isolated_vertices () =
  (* vertices with no edges must be selected *)
  let adj = Smatrix.of_coo Dtype.Bool 5 5 [ (0, 1, true); (1, 0, true) ] in
  let iset = Algorithms.Mis.native adj in
  List.iter
    (fun v ->
      Alcotest.check Alcotest.(option bool)
        (Printf.sprintf "isolated %d in set" v)
        (Some true) (Svector.get iset v))
    [ 2; 3; 4 ]

let test_mis_complete_graph () =
  let g = Graphs.Generators.complete 6 in
  let adj = Graphs.Convert.bool_adjacency g in
  let iset = Algorithms.Mis.native adj in
  Alcotest.check Alcotest.int "exactly one vertex of a clique" 1
    (Svector.nvals iset)

let suite =
  [ Alcotest.test_case "bfs vs reference" `Quick test_bfs_against_reference;
    Alcotest.test_case "BC vs Brandes" `Quick test_bc_against_brandes;
    Alcotest.test_case "BC on a path" `Quick test_bc_path_graph;
    Alcotest.test_case "BC batch additivity" `Quick test_bc_batch_subset;
    Alcotest.test_case "MIS invariants" `Quick test_mis_invariants;
    Alcotest.test_case "MIS isolated vertices" `Quick
      test_mis_isolated_vertices;
    Alcotest.test_case "MIS on a clique" `Quick test_mis_complete_graph;
    Alcotest.test_case "bfs tiers agree" `Quick test_bfs_tiers_agree;
    Alcotest.test_case "bfs disconnected" `Quick test_bfs_disconnected;
    Alcotest.test_case "bfs tiers on RMAT-9 vs Assign-free oracles" `Quick
      test_bfs_tiers_rmat;
    Alcotest.test_case "bc tiers on RMAT-9 vs single_source" `Quick
      test_bc_tiers_rmat;
    Alcotest.test_case "sssp vs Bellman-Ford" `Quick
      test_sssp_against_reference;
    Alcotest.test_case "sssp tiers agree" `Quick test_sssp_tiers_agree;
    Alcotest.test_case "sssp stops at its fixpoint at every tier" `Quick
      test_sssp_fixpoint_sweeps;
    Alcotest.test_case "triangles vs brute force" `Quick
      test_triangles_against_reference;
    Alcotest.test_case "triangle tiers agree" `Quick
      test_triangles_tiers_agree;
    Alcotest.test_case "known triangle counts" `Quick
      test_known_triangle_counts;
    Helpers.to_alcotest qcheck_of_undirected;
    Alcotest.test_case "pagerank vs power iteration" `Quick
      test_pagerank_against_reference;
    Alcotest.test_case "pagerank tiers agree" `Quick
      test_pagerank_tiers_agree;
    Alcotest.test_case "pagerank mass" `Quick test_pagerank_sums_to_one;
    Alcotest.test_case "components vs union-find" `Quick
      test_components_against_reference;
    Alcotest.test_case "components dsl agrees" `Quick
      test_components_dsl_agrees;
  ]
