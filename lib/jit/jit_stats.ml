type snapshot = {
  lookups : int;
  memory_hits : int;
  disk_hits : int;
  compiles : int;
  native_compiles : int;
  native_failures : int;
  compile_seconds : float;
  warm_requests : int;
  warm_compiles : int;
  (* resilience counters (the fault-tolerance layer) *)
  cache_write_failures : int;
  checksum_quarantines : int;
  compile_timeouts : int;
  compile_retries : int;
  breaker_trips : int;
  breaker_short_circuits : int;
  inflight_waits : int;
  sched_worker_failures : int;
  sched_seq_reruns : int;
  blocking_fallbacks : int;
  (* effect-analysis counters (the static footprint/race stage) *)
  effects_checks : int;
  effects_hazards : int;
  effects_degraded : int;
}

(* Counters are atomics: the scheduler's worker domains and the serve
   daemon's workers record events concurrently, and a plain [int ref]
   increment is a load + store that loses updates under contention (the
   counter-race test in test_parallel pins this down). *)
let lookups = Atomic.make 0
let memory_hits = Atomic.make 0
let disk_hits = Atomic.make 0
let compiles = Atomic.make 0
let native_compiles = Atomic.make 0
let native_failures = Atomic.make 0
let warm_requests = Atomic.make 0
let warm_compiles = Atomic.make 0
let cache_write_failures = Atomic.make 0
let checksum_quarantines = Atomic.make 0
let compile_timeouts = Atomic.make 0
let compile_retries = Atomic.make 0
let breaker_trips = Atomic.make 0
let breaker_short_circuits = Atomic.make 0
let inflight_waits = Atomic.make 0
let sched_worker_failures = Atomic.make 0
let sched_seq_reruns = Atomic.make 0
let blocking_fallbacks = Atomic.make 0
let effects_checks = Atomic.make 0
let effects_hazards = Atomic.make 0
let effects_degraded = Atomic.make 0

(* Float accumulation has no atomic fetch-and-add; a mutex is fine at
   compile frequency. *)
let seconds_lock = Mutex.create ()
let compile_seconds = ref 0.0

let record_lookup () = Atomic.incr lookups
let record_memory_hit () = Atomic.incr memory_hits
let record_disk_hit () = Atomic.incr disk_hits

(* Per-signature dispatch tallies and fusion-rewrite counters (fed by the
   nonblocking execution engine).  Guarded by a lock of their own: the
   scheduler's worker domains dispatch kernels concurrently, and the
   dispatch lock is not held around these calls. *)

type sig_tally = { mutable hits : int; mutable misses : int }

let tally_lock = Mutex.create ()
let sig_table : (string, sig_tally) Hashtbl.t = Hashtbl.create 64
let fusion_table : (string, int) Hashtbl.t = Hashtbl.create 16

let record_signature key ~hit =
  Mutex.protect tally_lock @@ fun () ->
  let t =
    match Hashtbl.find_opt sig_table key with
    | Some t -> t
    | None ->
      let t = { hits = 0; misses = 0 } in
      Hashtbl.add sig_table key t;
      t
  in
  if hit then t.hits <- t.hits + 1 else t.misses <- t.misses + 1

let record_fusion kind =
  Mutex.protect tally_lock @@ fun () ->
  Hashtbl.replace fusion_table kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt fusion_table kind))

let signature_counts key =
  Mutex.protect tally_lock @@ fun () ->
  match Hashtbl.find_opt sig_table key with
  | Some t -> (t.hits, t.misses)
  | None -> (0, 0)

let per_signature () =
  Mutex.protect tally_lock @@ fun () ->
  List.sort compare
    (Hashtbl.fold
       (fun key t acc -> (key, t.hits, t.misses) :: acc)
       sig_table [])

let fusions () =
  Mutex.protect tally_lock @@ fun () ->
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) fusion_table [])

(* Storage-format counters live in Gbtl.Format_stats (the containers
   record conversions themselves); re-exported here so the CLI reads all
   dispatch-related statistics from one module. *)
let formats = Gbtl.Format_stats.counters

(* Domain-pool counters live in Parallel.Pool (the pool records its own
   helper jobs and tasks); re-exported for the same one-stop reason. *)
let pool = Parallel.Pool.counters
let pool_busy_seconds = Parallel.Pool.busy_seconds

(* Out-of-core tile counters live in Gbtl.Tile_stats (the tiled
   containers and the checkpointed driver record their own traffic);
   re-exported for the same one-stop reason. *)
let tiles = Gbtl.Tile_stats.counters

let record_compile ~native ~seconds =
  Atomic.incr compiles;
  if native then Atomic.incr native_compiles;
  Mutex.protect seconds_lock (fun () ->
      compile_seconds := !compile_seconds +. seconds)

let record_native_failure () = Atomic.incr native_failures

let record_cache_write_failure () = Atomic.incr cache_write_failures
let record_checksum_quarantine () = Atomic.incr checksum_quarantines
let record_compile_timeout () = Atomic.incr compile_timeouts
let record_compile_retry () = Atomic.incr compile_retries
let record_breaker_trip () = Atomic.incr breaker_trips
let record_breaker_short_circuit () = Atomic.incr breaker_short_circuits
let record_inflight_wait () = Atomic.incr inflight_waits
let record_sched_worker_failure () = Atomic.incr sched_worker_failures
let record_sched_seq_rerun () = Atomic.incr sched_seq_reruns
let record_blocking_fallback () = Atomic.incr blocking_fallbacks

(* Effect-analysis bookkeeping (lib/analysis runs the checks; the
   counters live here so doctor/health report them with the rest). *)
let record_effects_check () = Atomic.incr effects_checks
let record_effects_hazard ~count =
  if count > 0 then ignore (Atomic.fetch_and_add effects_hazards count)
let record_effects_degraded () = Atomic.incr effects_degraded

(* Ahead-of-time warm-up bookkeeping (lib/analysis drives the warm-up;
   the counters live here next to the compile counters they offset). *)
let record_warm_request () = Atomic.incr warm_requests
let record_warm_compile () = Atomic.incr warm_compiles

let snapshot () =
  { lookups = Atomic.get lookups;
    memory_hits = Atomic.get memory_hits;
    disk_hits = Atomic.get disk_hits;
    compiles = Atomic.get compiles;
    native_compiles = Atomic.get native_compiles;
    native_failures = Atomic.get native_failures;
    compile_seconds = Mutex.protect seconds_lock (fun () -> !compile_seconds);
    warm_requests = Atomic.get warm_requests;
    warm_compiles = Atomic.get warm_compiles;
    cache_write_failures = Atomic.get cache_write_failures;
    checksum_quarantines = Atomic.get checksum_quarantines;
    compile_timeouts = Atomic.get compile_timeouts;
    compile_retries = Atomic.get compile_retries;
    breaker_trips = Atomic.get breaker_trips;
    breaker_short_circuits = Atomic.get breaker_short_circuits;
    inflight_waits = Atomic.get inflight_waits;
    sched_worker_failures = Atomic.get sched_worker_failures;
    sched_seq_reruns = Atomic.get sched_seq_reruns;
    blocking_fallbacks = Atomic.get blocking_fallbacks;
    effects_checks = Atomic.get effects_checks;
    effects_hazards = Atomic.get effects_hazards;
    effects_degraded = Atomic.get effects_degraded }

let reset () =
  Atomic.set lookups 0;
  Atomic.set memory_hits 0;
  Atomic.set disk_hits 0;
  Atomic.set compiles 0;
  Atomic.set native_compiles 0;
  Atomic.set native_failures 0;
  Mutex.protect seconds_lock (fun () -> compile_seconds := 0.0);
  Atomic.set warm_requests 0;
  Atomic.set warm_compiles 0;
  Atomic.set cache_write_failures 0;
  Atomic.set checksum_quarantines 0;
  Atomic.set compile_timeouts 0;
  Atomic.set compile_retries 0;
  Atomic.set breaker_trips 0;
  Atomic.set breaker_short_circuits 0;
  Atomic.set inflight_waits 0;
  Atomic.set sched_worker_failures 0;
  Atomic.set sched_seq_reruns 0;
  Atomic.set blocking_fallbacks 0;
  Atomic.set effects_checks 0;
  Atomic.set effects_hazards 0;
  Atomic.set effects_degraded 0;
  Mutex.protect tally_lock (fun () ->
      Hashtbl.reset sig_table;
      Hashtbl.reset fusion_table)

let pp fmt s =
  Format.fprintf fmt
    "lookups=%d memory_hits=%d disk_hits=%d compiles=%d (native=%d, \
     failures=%d) compile_time=%.6fs warm=%d/%d"
    s.lookups s.memory_hits s.disk_hits s.compiles s.native_compiles
    s.native_failures s.compile_seconds s.warm_compiles s.warm_requests;
  let faults =
    s.cache_write_failures + s.checksum_quarantines + s.compile_timeouts
    + s.compile_retries + s.breaker_trips + s.breaker_short_circuits
    + s.sched_worker_failures + s.sched_seq_reruns + s.blocking_fallbacks
  in
  if faults > 0 then
    Format.fprintf fmt
      "@\nresilience: cache_write_fail=%d quarantined=%d timeouts=%d \
       retries=%d breaker_trips=%d short_circuits=%d worker_fail=%d \
       seq_reruns=%d blocking_fallbacks=%d"
      s.cache_write_failures s.checksum_quarantines s.compile_timeouts
      s.compile_retries s.breaker_trips s.breaker_short_circuits
      s.sched_worker_failures s.sched_seq_reruns s.blocking_fallbacks;
  if s.effects_checks + s.effects_hazards + s.effects_degraded > 0 then
    Format.fprintf fmt "@\neffects: checks=%d hazards=%d degraded=%d"
      s.effects_checks s.effects_hazards s.effects_degraded
