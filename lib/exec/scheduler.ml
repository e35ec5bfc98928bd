(* Executes a plan's nodes one at a time, in topological order, on the
   caller's domain.  Every node is a pure function of its dependency
   values, so the result is the blocking evaluator's.

   Failure containment: a node failure surfaces as a located
   {!Node_error}; {!Exec} then falls back to the blocking evaluator. *)

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

let nvals_of_value = function
  | Plan.V_cont c -> Ogb.Container.nvals c
  | Plan.V_scal _ -> 1

(* Execute one node, threading the scheduler's injection points and
   locating any failure. *)
let exec_node plan id n vals =
  try
    if Fault.fire "sched.worker.slow" then Unix.sleepf 0.02;
    if Fault.fire "sched.worker.exn" then raise (Fault.Injected "sched.worker.exn");
    Plan.execute_node plan n vals
  with
  | Node_error _ as e -> raise e
  | e -> raise (Node_error { id; label = Plan.op_label n.Plan.op; error = e })

let run plan =
  let before = Jit.Jit_stats.snapshot () in
  let t0 = now () in
  let results = Hashtbl.create 32 in
  let events = ref [] in
  List.iter
    (fun id ->
      let n = Plan.node plan id in
      let vals = Array.map (Hashtbl.find results) n.Plan.deps in
      let start = now () in
      let v = exec_node plan id n vals in
      let seconds = now () -. start in
      events :=
        { Trace.id;
          label = Plan.op_label n.Plan.op;
          seconds;
          nvals = nvals_of_value v }
        :: !events;
      Hashtbl.replace results id v)
    (Plan.topo plan);
  let total_seconds = now () -. t0 in
  let after = Jit.Jit_stats.snapshot () in
  let trace =
    Trace.make ~total_seconds ~nodes:!events ~rewrites:(Plan.events plan)
      ~cse_merged:(Plan.cse_merged plan) ~schedule:plan.Plan.schedule_desc
      ~before ~after
  in
  (Hashtbl.find results plan.Plan.root, trace)
