(* Shared, lazily-started domain pool: one set of helper domains sized
   by OGB_DOMAINS, lent to the exec scheduler's inter-op node workers.
   Kernels themselves always run sequentially on whichever domain
   executes their plan node. *)

let env_int name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> Some n
    | None -> None)

(* -- domain-count resolution (shared with the exec scheduler) -- *)

let override_domains = ref None
let set_domains n = override_domains := Some (max 1 n)
let clear_domains_override () = override_domains := None

(* The environment's budget is read on first use and kept: the exec
   scheduler asks for it on every force.  0 = not read yet; two domains
   reading it at once both store the same value. *)
let env_domains = Atomic.make 0

let env_budget () =
  match Atomic.get env_domains with
  | 0 ->
    let n =
      match env_int "OGB_DOMAINS" with
      | Some n when n >= 1 -> n
      | Some _ -> 1
      | None -> min 4 (Domain.recommended_domain_count ())
    in
    Atomic.set env_domains n;
    n
  | n -> n

let domains () =
  match !override_domains with Some n -> n | None -> env_budget ()

let workers () = domains () - 1

(* -- pool state: task queue + lazily spawned worker domains -- *)

let qlock = Mutex.create ()
let qcv = Condition.create ()
let queue : (unit -> unit) Queue.t = Queue.create ()
let spawned : unit Domain.t list ref = ref []
let quit = ref false
let idle = ref 0

(* management operations (spawn/resize/shutdown) serialize here; the
   queue lock stays fine-grained *)
let mgmt = Mutex.create ()

(* -- counters (surfaced through Jit_stats / ogb doctor) -- *)

let stats_lock = Mutex.create ()
let par_jobs = ref 0 (* spawn_helpers calls granted at least one helper *)
let seq_jobs = ref 0 (* spawn_helpers calls granted none *)
let chunks_run = ref 0 (* helper tasks run to completion *)
let busy = ref 0.0 (* seconds spent inside helper tasks *)

let bump c = Mutex.protect stats_lock (fun () -> incr c)

let counters () =
  Mutex.protect stats_lock (fun () ->
      [ ("par_jobs", !par_jobs); ("seq_jobs", !seq_jobs); ("chunks", !chunks_run) ])

let busy_seconds () = Mutex.protect stats_lock (fun () -> !busy)

(* -- worker domains -- *)

let rec worker_loop () =
  Mutex.lock qlock;
  incr idle;
  while Queue.is_empty queue && not !quit do
    Condition.wait qcv qlock
  done;
  decr idle;
  if not (Queue.is_empty queue) then begin
    let task = Queue.pop queue in
    Mutex.unlock qlock;
    (try task () with _ -> ());
    worker_loop ()
  end
  else (* quit, queue drained *)
    Mutex.unlock qlock

let shutdown () =
  Mutex.protect mgmt @@ fun () ->
  let ds =
    Mutex.protect qlock (fun () ->
        quit := true;
        Condition.broadcast qcv;
        let ds = !spawned in
        spawned := [];
        ds)
  in
  List.iter Domain.join ds;
  Mutex.protect qlock (fun () -> quit := false)

let () = at_exit shutdown

let spawned_count () = Mutex.protect qlock (fun () -> List.length !spawned)

let ensure_started () =
  let want = workers () in
  if spawned_count () <> want then begin
    if spawned_count () > 0 then shutdown ();
    if want > 0 then
      Mutex.protect mgmt (fun () ->
          Mutex.protect qlock (fun () ->
              if !spawned = [] then
                spawned := List.init want (fun _ -> Domain.spawn worker_loop)))
  end

(* Enqueue up to [min k idle-workers] copies of [task].  Capping by the
   workers idle right now means every enqueued task starts promptly. *)
let submit_capped k task =
  Mutex.protect qlock (fun () ->
      let free = max 0 (!idle - Queue.length queue) in
      let take = min free k in
      for _ = 1 to take do
        Queue.push task queue
      done;
      if take > 0 then Condition.broadcast qcv;
      take)

(* -- long-lived helper tasks for the exec scheduler -- *)

type handle = { hm : Mutex.t; hcv : Condition.t; mutable left : int }

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let spawn_helpers k f =
  let h = { hm = Mutex.create (); hcv = Condition.create (); left = 0 } in
  let took =
    if k > 0 && workers () > 0 then begin
      ensure_started ();
      h.left <- k;
      let task () =
        let t0 = now_s () in
        (try f () with _ -> ());
        let dt = now_s () -. t0 in
        Mutex.protect stats_lock (fun () ->
            incr chunks_run;
            busy := !busy +. dt);
        Mutex.protect h.hm (fun () ->
            h.left <- h.left - 1;
            if h.left <= 0 then Condition.broadcast h.hcv)
      in
      let took = submit_capped k task in
      Mutex.protect h.hm (fun () ->
          h.left <- h.left - (k - took);
          if h.left <= 0 then Condition.broadcast h.hcv);
      took
    end
    else 0
  in
  bump (if took > 0 then par_jobs else seq_jobs);
  h

let join h =
  Mutex.lock h.hm;
  while h.left > 0 do
    Condition.wait h.hcv h.hm
  done;
  Mutex.unlock h.hm
