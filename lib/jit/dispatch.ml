type backend = Auto | Closure | Native

let the_backend = ref Auto

let set_backend b = the_backend := b
let backend () = !the_backend

let effective_backend () =
  match !the_backend with
  | Closure -> `Closure
  | Native -> `Native
  | Auto -> if Native_backend.available () then `Native else `Closure

let table : (string, Obj.t) Hashtbl.t = Hashtbl.create 256

(* The global lock now guards only the two tables (warm hits hold it for
   a hashtable probe).  Compilation happens outside it: the first caller
   for a key parks an in-flight entry, compiles unlocked, and publishes;
   concurrent callers for the same key block on that entry's condvar
   while callers for other keys — e.g. warm hits on other domains — are
   unaffected.  Before this, a ~100ms native compile stalled every
   lookup in the process. *)
let lock = Mutex.create ()

type inflight_entry = {
  m : Mutex.t;
  cv : Condition.t;
  mutable outcome : [ `Pending | `Done of Obj.t | `Failed of exn ];
}

let inflight : (string, inflight_entry) Hashtbl.t = Hashtbl.create 16

(* Monotonic: compile times feed Jit_stats, which a wall-clock step
   must not corrupt. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let closure_compile ~key ~hash ~build ~source =
  (* The closure backend still runs codegen when available and persists
     the source plus a build marker, mirroring the native pipeline's disk
     artifacts; the "compiled module" is the specialized closure. *)
  let t0 = now () in
  let kernel = build () in
  (match source with
  | Some src -> ignore (Disk_cache.store_source hash src)
  | None -> ());
  Disk_cache.touch_marker hash;
  Jit_stats.record_compile ~native:false ~seconds:(now () -. t0);
  Jit_stats.record_signature key ~hit:false;
  kernel

(* The native pipeline for one signature: checksum-verified disk load
   when possible, else compile (single-flight across processes, with
   timeout and retry inside Native_backend), falling back to the closure
   backend on any failure.  Every outcome feeds the circuit breaker. *)
let native_compile ~key ~hash ~src ~build =
  let fresh () =
    let t0 = now () in
    match Native_backend.compile_and_load ~hash ~source:src ~key with
    | Ok k ->
      Jit_stats.record_compile ~native:true ~seconds:(now () -. t0);
      Jit_stats.record_signature key ~hit:false;
      Breaker.success ();
      k
    | Error _ ->
      Jit_stats.record_native_failure ();
      Breaker.failure ();
      closure_compile ~key ~hash ~build ~source:(Some src)
  in
  let cached_valid =
    Disk_cache.has_cmxs hash
    &&
    match Disk_cache.verify_cmxs hash with
    | `Ok | `No_sum -> true
    | `Mismatch ->
      (* corrupt artifact: quarantine it and recompile from source *)
      Disk_cache.quarantine hash;
      false
  in
  if cached_valid then
    match Native_backend.load_cached ~hash ~key with
    | Ok k ->
      Jit_stats.record_disk_hit ();
      Jit_stats.record_signature key ~hit:true;
      Breaker.success ();
      k
    | Error _ -> fresh ()
  else fresh ()

(* Build/compile the kernel for a missing key (runs with no lock held). *)
let produce sig_ ~key ~build ~native_source =
  let hash = Kernel_sig.hash_key sig_ in
  let source = match native_source with Some f -> f ~key | None -> None in
  match effective_backend (), source with
  | `Native, Some src ->
    if Breaker.allow () then native_compile ~key ~hash ~src ~build
    else closure_compile ~key ~hash ~build ~source:(Some src)
  | `Native, None | `Closure, _ ->
    if Disk_cache.has_marker hash then begin
      Jit_stats.record_disk_hit ();
      Jit_stats.record_signature key ~hit:true;
      build ()
    end
    else closure_compile ~key ~hash ~build ~source

let rec get sig_ ~build ?native_source () =
  let key = Kernel_sig.key sig_ in
  Mutex.lock lock;
  Jit_stats.record_lookup ();
  match Hashtbl.find_opt table key with
  | Some k ->
    Jit_stats.record_memory_hit ();
    Mutex.unlock lock;
    Jit_stats.record_signature key ~hit:true;
    k
  | None -> (
    match Hashtbl.find_opt inflight key with
    | Some entry -> (
      (* someone else is compiling this key: wait for their result *)
      Jit_stats.record_inflight_wait ();
      Mutex.unlock lock;
      Mutex.lock entry.m;
      while entry.outcome = `Pending do
        Condition.wait entry.cv entry.m
      done;
      let outcome = entry.outcome in
      Mutex.unlock entry.m;
      match outcome with
      | `Done k ->
        Jit_stats.record_memory_hit ();
        Jit_stats.record_signature key ~hit:true;
        k
      | `Failed _ | `Pending ->
        (* the producer failed; retry from scratch (our own attempt may
           take a different path, e.g. the closure backend) *)
        get sig_ ~build ?native_source ())
    | None ->
      let entry =
        { m = Mutex.create (); cv = Condition.create (); outcome = `Pending }
      in
      Hashtbl.replace inflight key entry;
      Mutex.unlock lock;
      let outcome =
        match produce sig_ ~key ~build ~native_source with
        | k -> `Done k
        | exception e -> `Failed e
      in
      Mutex.lock lock;
      (match outcome with
      | `Done k -> Hashtbl.replace table key k
      | `Failed _ | `Pending -> ());
      Hashtbl.remove inflight key;
      Mutex.unlock lock;
      Mutex.lock entry.m;
      entry.outcome <- outcome;
      Condition.broadcast entry.cv;
      Mutex.unlock entry.m;
      (match outcome with
      | `Done k -> k
      | `Failed e -> raise e
      | `Pending -> assert false))

let cached sig_ =
  Mutex.protect lock (fun () -> Hashtbl.mem table (Kernel_sig.key sig_))

let clear_memory_cache () = Mutex.protect lock (fun () -> Hashtbl.reset table)

let memory_cache_size () =
  Mutex.protect lock (fun () -> Hashtbl.length table)
