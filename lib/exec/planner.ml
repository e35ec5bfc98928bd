(* The plan optimizer: every plan takes the greedy rewrite pipeline
   unless a schedule is pinned ({!pin}, the CLI's --schedule, or
   OGB_SCHEDULE), and records the schedule it committed.  Every schedule
   is bit-identical by construction, so a pin changes time, never
   values. *)

module Sched = Cost.Schedule

let pinned_plans = Atomic.make 0

let pin_ref = ref None
let pin s = pin_ref := s

let pinned () =
  match !pin_ref with Some _ as s -> s | None -> Sched.of_env ()

let optimize plan =
  let schedule = pinned () in
  if Option.is_some schedule then Atomic.incr pinned_plans;
  Rewrite.run_with ?schedule plan;
  plan.Plan.schedule_desc <-
    Sched.to_string (Option.value schedule ~default:Sched.default)

(* [searches] and [cache_hits] stay for bench/e2e/probes.ml, which reads
   both; nothing searches or caches schedules, so they are always 0. *)
let counters () =
  [ ("searches", 0); ("cache_hits", 0); ("pinned", Atomic.get pinned_plans) ]

(* No-op stub for bench/e2e (jitenv.ml and probes.ml call it): there is
   no schedule cache to clear. *)
let clear_cache () = ()
