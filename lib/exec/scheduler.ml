(* Executes a plan's ready nodes concurrently on a small pool of OCaml
   domains (work queue + mutex/condvar — no external dependencies), or
   in deterministic sequential topological order when one domain is
   requested.  Node results are identical either way: every node is a
   pure function of its dependency values, so only the completion order
   varies.

   Failure containment: a node failure on a worker domain is recorded,
   queued nodes are abandoned and the remaining workers drain (in-flight
   siblings finish their current node — OCaml domains cannot be
   preempted — then stop), the pool is joined, and the failure surfaces
   as a located {!Node_error}.  {!run} then degrades gracefully by
   re-executing the whole plan sequentially; only if that fails too does
   the error reach the caller (where {!Exec} falls back to the blocking
   evaluator). *)

exception Node_error of { id : int; label : string; error : exn }

let () =
  Printexc.register_printer (function
    | Node_error { id; label; error } ->
      Some
        (Printf.sprintf "Node_error(n%d %s: %s)" id label
           (Printexc.to_string error))
    | _ -> None)

(* Monotonic: a wall-clock step must not make a node timing negative. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Domain budget lives in the shared pool (lib/parallel), whose helper
   domains run this scheduler's inter-op workers. *)
let set_domains n = Parallel.Pool.set_domains n
let clear_domains_override () = Parallel.Pool.clear_domains_override ()

let domain_count () =
  if !Ogb.Exec_hook.force_sequential then 1 else Parallel.Pool.domains ()

let nvals_of_value = function
  | Plan.V_cont c -> Ogb.Container.nvals c
  | Plan.V_scal _ -> 1

(* Execute one node, threading the scheduler's injection points and
   locating any failure.  The fault points fire on the sequential path
   too: under a persistent fault the sequential re-run fails the same
   way and the degradation ladder continues to the blocking evaluator. *)
let exec_node plan id n vals =
  try
    if Fault.fire "sched.worker.slow" then Unix.sleepf 0.02;
    if Fault.fire "sched.worker.exn" then raise (Fault.Injected "sched.worker.exn");
    Plan.execute_node plan n vals
  with
  | Node_error _ as e -> raise e
  | e -> raise (Node_error { id; label = Plan.op_label n.Plan.op; error = e })

let run_sequential plan order =
  let results = Hashtbl.create 32 in
  let events = ref [] in
  List.iter
    (fun id ->
      let n = Plan.node plan id in
      let vals = Array.map (Hashtbl.find results) n.Plan.deps in
      let t0 = now () in
      let v = exec_node plan id n vals in
      let seconds = now () -. t0 in
      events :=
        { Trace.id;
          label = Plan.op_label n.Plan.op;
          seconds;
          nvals = nvals_of_value v }
        :: !events;
      Hashtbl.replace results id v)
    order;
  (Hashtbl.find results plan.Plan.root, !events)

let run_parallel plan order ndomains =
  let total = List.length order in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let results = Hashtbl.create 32 in
  let pending = Hashtbl.create 32 in
  let dependents = Hashtbl.create 32 in
  let ready = Queue.create () in
  let completed = ref 0 in
  let failed = ref None in
  let events = ref [] in
  (* Count unique dependencies: a node whose two inputs are the same
     shared producer has one edge to wait on, not two. *)
  let uniq_deps n =
    List.sort_uniq compare (Array.to_list n.Plan.deps)
  in
  List.iter
    (fun id ->
      let n = Plan.node plan id in
      let deps = uniq_deps n in
      Hashtbl.replace pending id (List.length deps);
      List.iter (fun d -> Hashtbl.add dependents d id) deps;
      if deps = [] then Queue.push id ready)
    order;
  let finished () = !failed <> None || !completed >= total in
  let worker () =
    let running = ref true in
    while !running do
      Mutex.lock m;
      while Queue.is_empty ready && not (finished ()) do
        Condition.wait cv m
      done;
      if finished () && Queue.is_empty ready then begin
        Mutex.unlock m;
        running := false
      end
      else if Queue.is_empty ready then Mutex.unlock m
      else begin
        let id = Queue.pop ready in
        let n = Plan.node plan id in
        let vals = Array.map (Hashtbl.find results) n.Plan.deps in
        Mutex.unlock m;
        match
          let t0 = now () in
          let v = exec_node plan id n vals in
          (v, now () -. t0)
        with
        | v, seconds ->
          Mutex.lock m;
          Hashtbl.replace results id v;
          events :=
            { Trace.id;
              label = Plan.op_label n.Plan.op;
              seconds;
              nvals = nvals_of_value v }
            :: !events;
          incr completed;
          List.iter
            (fun c ->
              let p = Hashtbl.find pending c - 1 in
              Hashtbl.replace pending c p;
              if p = 0 then Queue.push c ready)
            (Hashtbl.find_all dependents id);
          Condition.broadcast cv;
          Mutex.unlock m
        | exception e ->
          (* first failure wins; setting it makes finished() true, which
             cancels every queued node and drains the pool *)
          Jit.Jit_stats.record_sched_worker_failure ();
          Mutex.lock m;
          if !failed = None then failed := Some e;
          Condition.broadcast cv;
          Mutex.unlock m;
          running := false
      end
    done
  in
  (* Inter-op workers come from the shared pool rather than freshly
     spawned domains: whatever the pool cannot grant (busy or smaller
     than requested) the caller absorbs by draining the queue itself —
     the worker loop exits only when the plan is finished or failed. *)
  let helpers = Parallel.Pool.spawn_helpers (ndomains - 1) worker in
  worker ();
  Parallel.Pool.join helpers;
  (match !failed with Some e -> raise e | None -> ());
  (Hashtbl.find results plan.Plan.root, !events)

(* A plan whose kernels form a chain ({!Plan.kernel_chain}: sssp's
   [leaf, leaf, mxv], PageRank's fused [ewise, mult_reduce]) has
   nothing to overlap, so it runs on the caller and wakes no pool
   helper.  Under a multi-domain budget it keeps the parallel path's
   ladder: a failed inline attempt counts as a worker failure and gets
   the sequential re-run.  The budget is only looked up when it
   decides something. *)
let run plan =
  let order = Plan.topo plan in
  let budget () =
    match order with [] | [ _ ] -> 1 | _ -> domain_count ()
  in
  let before = Jit.Jit_stats.snapshot () in
  let t0 = now () in
  (* containment, step 1: re-execute the plan in deterministic
     sequential order (after a parallel failure the pool is already
     joined).  A transient fault (one bad worker, a poisoned
     domain-local state) does not repeat here; a persistent one
     re-raises to Exec, which falls back to the blocking evaluator. *)
  let rerun () =
    Jit.Jit_stats.record_sched_seq_rerun ();
    let v, ev = run_sequential plan order in
    (v, ev, true)
  in
  let domains, (value, node_events, degraded) =
    if Plan.kernel_chain plan order then
      ( 1,
        match run_sequential plan order with
        | v, ev -> (v, ev, false)
        | exception _ when budget () > 1 ->
          Jit.Jit_stats.record_sched_worker_failure ();
          rerun () )
    else
      match budget () with
      | 1 ->
        let v, ev = run_sequential plan order in
        (1, (v, ev, false))
      | domains ->
        ( domains,
          match run_parallel plan order domains with
          | v, ev -> (v, ev, false)
          | exception _ -> rerun () )
  in
  let total_seconds = now () -. t0 in
  let after = Jit.Jit_stats.snapshot () in
  let trace =
    Trace.make ~domains ~degraded ~total_seconds ~nodes:node_events
      ~rewrites:(Plan.events plan) ~cse_merged:(Plan.cse_merged plan)
      ~schedule:plan.Plan.schedule_desc ~before ~after
  in
  (value, trace)
