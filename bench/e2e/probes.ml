(* Layer probes for the traced run.  Each one calls a single layer's
   public functions on the workload's own graph and reports the median
   of several timed batches, so one descheduled batch does not move it. *)

open Gbtl
module C = Ogb.Container

let batches = 5

(* Median over [batches] timed batches of [per_batch] calls, in
   microseconds per call. *)
let us_per_call ~per_batch f =
  f ();
  Stats.median
    (List.init batches (fun _ ->
         let (), ms = Stats.timed (fun () -> for _ = 1 to per_batch do f () done) in
         ms *. 1000.0 /. float_of_int per_batch))

(* One [Jit.Dispatch.get] memory hit. *)
let dispatch_us () =
  let sig_ = Jit.Kernel_sig.make ~op:"e2e.dispatch_probe" () in
  let build () = Obj.repr 0 in
  us_per_call ~per_batch:20_000 (fun () -> ignore (Jit.Dispatch.get sig_ ~build ()))

(* Planning a PageRank step's squared difference,
   (r - (r @ M + c)) * (r - (r @ M + c)), with the schedule cache
   emptied before every plan ("cold") and with it warm ("cached"). *)
let plan_us (g : Algos.graph) =
  let open Ogb in
  let n = g.Algos.n in
  let e = Expr.of_container in
  let m = C.of_smatrix g.Algos.dir_fp64 in
  let r = C.vector_dense (List.init n (fun _ -> 1.0 /. float_of_int n)) in
  let step =
    Context.with_ops
      [ Context.custom_semiring ~add_op:"Plus" ~add_identity:"Zero" ~mul_op:"Times" ]
      (fun () -> Expr.matmul (e r) (e m))
  in
  let next =
    Expr.apply
      ~f:(Jit.Op_spec.Bound { op = "Plus"; side = `Second; const = 0.15 /. float_of_int n })
      step
  in
  let diff = Context.with_ops [ Context.binary "Minus" ] (fun () -> Expr.add (e r) next) in
  let sq = Context.with_ops [ Context.binary "Times" ] (fun () -> Expr.mult diff diff) in
  let plan () = ignore (Exec.plan_force sq) in
  let cold = us_per_call ~per_batch:50 (fun () -> Exec.Planner.clear_cache (); plan ()) in
  let cached = us_per_call ~per_batch:200 plan in
  (cold, cached)

(* Time [f] until at least three calls and 100 ms have run;
   milliseconds per call, median over calls. *)
let ms_per_call f =
  f ();
  let t0 = Stats.now_ns () in
  let rec go acc k =
    if k >= 3 && Stats.ms_since t0 >= 100.0 then Stats.median acc
    else
      let (), ms = Stats.timed f in
      go (ms :: acc) (k + 1)
  in
  go [] 0

(* Kernel bodies called directly: y = A u over Plus/Times with a dense
   operand, and the triangle pattern L L^T over Plus/Times masked by L, each in
   nanoseconds per stored entry of the matrix. *)
let kernel_ns_per_nnz (g : Algos.graph) =
  let a = g.Algos.dir_fp64 in
  let u = Svector.of_dense Dtype.FP64 (Array.make g.Algos.n 1.0) in
  let mxv () =
    ignore (Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.arithmetic ~transpose:false a u)
  in
  let l = g.Algos.lower in
  let mask = Mask.mmask l in
  let mxm () =
    ignore
      (Jit.Kernels.mxm Dtype.Int64 Jit.Op_spec.arithmetic ~transpose_a:false
         ~transpose_b:true ~mask l l)
  in
  let per_nnz ms nnz = ms *. 1e6 /. float_of_int nnz in
  ( per_nnz (ms_per_call mxv) (Smatrix.nvals a),
    per_nnz (ms_per_call mxm) (Smatrix.nvals l) )

(* The wire codec on recorded request/response values: print each to
   its line, then parse the lines back. *)
let wire_us (values : Server.Json.t list) =
  let values = Array.of_list values in
  let lines = Array.map Server.Json.to_string values in
  let per_value f = us_per_call ~per_batch:1 f /. float_of_int (Array.length values) in
  ( per_value (fun () -> Array.iter (fun l -> ignore (Server.Json.parse l)) lines),
    per_value (fun () -> Array.iter (fun v -> ignore (Server.Json.to_string v)) values) )

let all (g : Algos.graph) ~parent =
  let span name f = Span.with_ ~parent ("probe." ^ name) (fun _ -> f ()) in
  let dispatch = span "jit.dispatch" dispatch_us in
  let cold, cached = span "exec.plan" (fun () -> plan_us g) in
  let mxv, mxm = span "kernel" (fun () -> kernel_ns_per_nnz g) in
  [ ("jit.dispatch_us", dispatch);
    ("exec.plan_us.cold", cold);
    ("exec.plan_us.cached", cached);
    ("kernel.mxv_ns_per_nnz", mxv);
    ("kernel.mxm_masked_ns_per_nnz", mxm) ]

(* ---- counters read from the layers, as deltas ---- *)

type counters = {
  searches : int;
  hits : int;
  par : int;
  seq : int;
  chunks : int;
  busy : float;
}

let counters () =
  let p = Exec.Planner.counters () and q = Parallel.Pool.counters () in
  { searches = List.assoc "searches" p;
    hits = List.assoc "cache_hits" p;
    par = List.assoc "par_jobs" q;
    seq = List.assoc "seq_jobs" q;
    chunks = List.assoc "chunks" q;
    busy = Parallel.Pool.busy_seconds () }

(* Planner and pool activity between two snapshots over [wall_s]
   seconds of measurement. *)
let counter_metrics a b ~wall_s =
  let f x = float_of_int x in
  [ ("exec.planner.searches", f (b.searches - a.searches));
    ("exec.planner.cache_hits", f (b.hits - a.hits));
    ("pool.par_jobs", f (b.par - a.par));
    ("pool.seq_jobs", f (b.seq - a.seq));
    ("pool.chunks", f (b.chunks - a.chunks));
    ("pool.busy_ratio", (b.busy -. a.busy) /. Float.max 1e-9 wall_s) ]

(* Dispatch and compile activity of this process so far. *)
let jit_metrics () =
  let s = Jit.Jit_stats.snapshot () in
  let f x = float_of_int x in
  [ ("jit.lookups", f s.Jit.Jit_stats.lookups);
    ("jit.memory_hits", f s.Jit.Jit_stats.memory_hits);
    ("jit.disk_hits", f s.Jit.Jit_stats.disk_hits);
    ("jit.compiles", f s.Jit.Jit_stats.compiles);
    ("jit.compile_ms", 1000.0 *. s.Jit.Jit_stats.compile_seconds) ]
