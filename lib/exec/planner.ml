(* The plan optimizer: every plan takes the greedy rewrite pipeline
   unless a schedule is pinned ({!pin}, the CLI's --schedule, or
   OGB_SCHEDULE), and records the schedule it committed.  Every schedule
   is bit-identical by construction, so a pin changes time, never
   values.

   The pipeline's outcome is a function of the lowered plan's structure
   and of a few facts about its leaves and the environment, so it runs
   once per DAG shape: the rewritten plan is kept, stripped of its
   containers, under a key holding exactly those inputs, and a later
   force of the same shape binds its own leaves and mask into a copy of
   it instead of rewriting and re-verifying from scratch. *)

module Sched = Cost.Schedule

let pinned_plans = Atomic.make 0
let pipeline_runs = Atomic.make 0
let cache_hits = Atomic.make 0

let pin_ref = ref None
let pin s = pin_ref := s

let pinned () =
  match !pin_ref with Some _ as s -> s | None -> Sched.of_env ()

(* -- the shape key --
   Everything [Rewrite.run_with] and the stage verifier read: every
   lowered node ({!Plan.key_node}: op with all its parameters, kind,
   deps; each leaf's dtype, dimensions and vector layout, which
   [select_layout] reads), the sink mask's kind, dtype, dimensions and
   complement flag, the root and CSE count, and the format toggle, the
   fusion toggle, the pinned schedule and whether a verifier is
   installed.  Plans holding index sets or select predicates have no
   key and always take the pipeline. *)

let key plan schedule =
  let b = Buffer.create 256 in
  Plan.key_bool b (Gbtl.Format_stats.enabled ());
  Plan.key_bool b (Ogb.Expr.fusion ());
  Plan.key_bool b (Verify_hook.installed ());
  Plan.key_str b
    (match schedule with None -> "" | Some s -> Sched.to_string s);
  Plan.key_int b plan.Plan.root;
  Plan.key_int b plan.Plan.cse_merged;
  Plan.key_mask b plan.Plan.sink_mask;
  (* a freshly lowered plan numbers its nodes 0 .. next - 1 *)
  match
    for id = 0 to plan.Plan.next - 1 do
      Plan.key_node b (Plan.node plan id)
    done
  with
  | () -> Some (Buffer.contents b)
  | exception Plan.No_key -> None

(* -- the cache --
   An entry is the rewritten plan with every leaf and mask container
   replaced by [placeholder], so it pins no matrix, plus the fusion
   firings its pipeline run counted.  Entries are never mutated: a hit
   works on a copy, which is where the pre-schedule remedy's edges go.
   FIFO eviction at a fixed capacity; one lock, held only for the table
   operations, makes it safe to share between domains. *)

type entry = { tmpl : Plan.t; fusions : (string * int) list }

let capacity = 256
let table : (string, entry) Hashtbl.t = Hashtbl.create 64
let fifo : string Queue.t = Queue.create ()
let lock = Mutex.create ()

let placeholder = Ogb.Container.vector_empty 0

let strip_mask =
  Option.map (fun m -> { m with Ogb.Expr.container = placeholder })

let entry_of plan =
  let tmpl =
    Plan.copy plan ~op:(fun n ->
        match n.Plan.op with
        | Plan.Leaf _ -> Plan.Leaf placeholder
        | Plan.MatMul m -> Plan.MatMul { m with masked = strip_mask m.masked }
        | op -> op)
  in
  tmpl.Plan.sink_mask <- strip_mask plan.Plan.sink_mask;
  { tmpl;
    fusions =
      List.filter
        (fun (name, _) -> name <> "cse" && name <> "dce")
        (Plan.events plan) }

(* The cached plan with [lowered]'s leaves bound by node id (lowering
   numbers a shape's nodes the same way every time) and its mask in
   place of the placeholder. *)
let bind { tmpl; fusions } lowered =
  let mask = lowered.Plan.sink_mask in
  let p =
    Plan.copy tmpl ~op:(fun n ->
        match n.Plan.op with
        | Plan.Leaf _ -> (Plan.node lowered n.Plan.id).Plan.op
        | Plan.MatMul ({ masked = Some _; _ } as m) ->
          Plan.MatMul { m with masked = mask }
        | op -> op)
  in
  if Option.is_some tmpl.Plan.sink_mask then p.Plan.sink_mask <- mask;
  List.iter
    (fun (name, count) -> Jit.Jit_stats.record_fusion ~count name)
    fusions;
  p

let find k = Mutex.protect lock (fun () -> Hashtbl.find_opt table k)

let store k e =
  Mutex.protect lock (fun () ->
      if not (Hashtbl.mem table k) then begin
        if Hashtbl.length table >= capacity then
          Hashtbl.remove table (Queue.pop fifo);
        Queue.push k fifo
      end;
      Hashtbl.replace table k e)

let clear_cache () =
  Mutex.protect lock (fun () ->
      Hashtbl.reset table;
      Queue.clear fifo)

let rewrite schedule plan =
  Atomic.incr pipeline_runs;
  Rewrite.run_with ?schedule plan;
  plan.Plan.schedule_desc <-
    Sched.to_string (Option.value schedule ~default:Sched.default)

let optimize plan =
  let schedule = pinned () in
  if Option.is_some schedule then Atomic.incr pinned_plans;
  match key plan schedule with
  | None ->
    rewrite schedule plan;
    plan
  | Some k -> (
    match find k with
    | Some e ->
      Atomic.incr cache_hits;
      bind e plan
    | None ->
      (* a stage that rejects the plan raises out of [rewrite]: only
         plans that passed every stage are stored *)
      rewrite schedule plan;
      store k (entry_of plan);
      plan)

(* [searches] counts rewrite-pipeline runs (misses and uncacheable
   plans); bench/e2e/probes.ml reads it beside [cache_hits]. *)
let counters () =
  [ ("searches", Atomic.get pipeline_runs);
    ("cache_hits", Atomic.get cache_hits);
    ("pinned", Atomic.get pinned_plans) ]
