(* Domain-pool suite: the pool lends helper domains to the nonblocking
   scheduler only, so results must be bit-identical at every domain
   count, the pool counters must show the helpers a multi-node plan
   borrowed, and the dispatch counters must not lose updates under
   concurrent domains (the Jit_stats atomic fix). *)

open Gbtl
module Pool = Parallel.Pool

(* The container may run single-core ([workers () = 0] means the
   scheduler's caller drains every plan alone), so the tests pin a
   domain budget to exercise real helpers. *)
let with_domains n f =
  Pool.set_domains n;
  Fun.protect ~finally:Pool.clear_domains_override f

let nonblocking f = Exec.with_mode Exec.Nonblocking f

(* A masked assignment and an accumulated update over one matrix-vector
   product: several plan nodes, a mask and an accumulator. *)
let dsl_program () =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let n = 96 in
  let triples =
    List.concat
      (List.init n (fun i ->
           [ (i, (i + 1) mod n, 1.0 +. float_of_int (i mod 5));
             (i, ((i * 7) + 3) mod n, 2.0) ]))
  in
  let u_entries = List.init n (fun i -> (i, float_of_int (i mod 7) +. 1.)) in
  let mask_entries =
    List.filter_map (fun i -> if i mod 2 = 0 then Some (i, 1.0) else None)
      (List.init n Fun.id)
  in
  let m = Container.matrix_coo ~nrows:n ~ncols:n triples in
  let u = Container.vector_coo ~size:n u_entries in
  let mask = Container.vector_coo ~size:n mask_entries in
  let w = Container.vector_coo ~size:n [ (0, 0.25) ] in
  Ops.set ~mask:(Ops.Mask mask) w (!!m @. !!u);
  let w2 = Container.vector_coo ~size:n (List.init n (fun i -> (i, 0.5))) in
  Ops.update w2 (!!m @. !!u);
  (Container.vector_entries w, Container.vector_entries w2)

let test_dsl_across_domains () =
  let blocking = dsl_program () in
  let at d = with_domains d (fun () -> nonblocking dsl_program) in
  Alcotest.(check bool) "1 domain matches blocking" true (at 1 = blocking);
  Alcotest.(check bool) "4 domains match 1 domain" true (at 4 = at 1)

let test_algorithms_across_domains () =
  let g =
    Graphs.Generators.erdos_renyi_paper
      (Graphs.Rng.create ~seed:42)
      ~nvertices:120
  in
  let adjb = Ogb.Container.of_smatrix (Graphs.Convert.bool_adjacency g) in
  let adjf =
    Ogb.Container.of_smatrix (Graphs.Convert.matrix_of_edges Dtype.FP64 g)
  in
  let run d =
    with_domains d @@ fun () ->
    let ranks, iters = Algorithms.Pagerank.nonblocking ~threshold:1e-12 adjf in
    let levels = nonblocking (fun () -> Algorithms.Bfs.dsl adjb ~src:0) in
    (ranks, iters, levels)
  in
  let r1, i1, l1 = run 1 and r4, i4, l4 = run 4 in
  Alcotest.(check bool) "pagerank ranks bit-identical" true
    (Ogb.Container.equal r1 r4);
  Alcotest.(check int) "pagerank iteration count" i1 i4;
  Alcotest.(check bool) "bfs levels" true (Ogb.Container.equal l1 l4)

(* A multi-node nonblocking plan at 2 domains borrows a pool helper
   ([par_jobs] and [chunks] grow) and its result is bit-identical to
   the 1-domain run.  Freshly spawned helper domains only count as idle
   once they reach their wait loop, so the first plans may run without
   one; retry until a helper is granted. *)
let test_pool_serves_scheduler () =
  let counter k = List.assoc k (Pool.counters ()) in
  let seq = with_domains 1 (fun () -> nonblocking dsl_program) in
  with_domains 2 @@ fun () ->
  let par0 = counter "par_jobs" and chunks0 = counter "chunks" in
  let rec go tries =
    let r = nonblocking dsl_program in
    Alcotest.(check bool) "2 domains match 1 domain" true (r = seq);
    if counter "par_jobs" = par0 && tries > 0 then begin
      Unix.sleepf 0.01;
      go (tries - 1)
    end
  in
  go 100;
  Alcotest.(check bool) "par_jobs grew" true (counter "par_jobs" > par0);
  Alcotest.(check bool) "chunks grew" true (counter "chunks" > chunks0);
  Alcotest.(check bool) "busy time recorded" true (Pool.busy_seconds () > 0.0)

(* ---- the Jit_stats bugfix: plain int-ref counters lost updates under
   concurrent domains; atomics must account for every increment ---- *)

let test_counter_race () =
  let before = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.lookups in
  let doms =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Jit.Jit_stats.record_lookup ()
            done))
  in
  Array.iter Domain.join doms;
  let after = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.lookups in
  Alcotest.(check int) "no lost increments" 40_000 (after - before)

(* ---- doctor surfaces the pool ---- *)

let test_doctor_reports_pool () =
  let s = Jit.Health.to_string (Jit.Health.collect ~probe:false ()) in
  Alcotest.(check bool) "doctor reports domain pool" true
    (Helpers.contains_substring s "domain pool");
  Alcotest.(check bool) "doctor reports pool stats" true
    (Helpers.contains_substring s "pool stats")

let suite =
  [ Alcotest.test_case "results independent of domain count" `Quick
      test_pool_serves_scheduler;
    Alcotest.test_case "DSL mask+accum identical across domain counts" `Quick
      test_dsl_across_domains;
    Alcotest.test_case "algorithms bit-identical across domain counts" `Quick
      test_algorithms_across_domains;
    Alcotest.test_case "stats counters survive a 4-domain race" `Quick
      test_counter_race;
    Alcotest.test_case "doctor reports pool stats" `Quick
      test_doctor_reports_pool ]
