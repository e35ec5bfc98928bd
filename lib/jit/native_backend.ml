let log_src = Logs.Src.create "ogb.jit" ~doc:"ogb JIT backend"

module Log = (val Logs.src_log log_src)

(* -- locating the Jit_plugin_api compiled interfaces -- *)

let api_objs_suffix =
  Filename.concat
    (Filename.concat "lib" "jit_api")
    ".jit_plugin_api.objs"

let candidate_roots () =
  let rec ancestors acc dir n =
    if n = 0 || dir = Filename.dirname dir then acc
    else ancestors (dir :: acc) (Filename.dirname dir) (n - 1)
  in
  let from_exe = ancestors [] (Filename.dirname Sys.executable_name) 8 in
  let from_cwd = ancestors [] (Sys.getcwd ()) 8 in
  from_exe @ from_cwd

let find_api_dirs () =
  match Sys.getenv_opt "OGB_JIT_INCLUDE" with
  | Some dirs -> Some (String.split_on_char ':' dirs)
  | None ->
    let check root =
      let objs =
        Filename.concat root (Filename.concat "_build/default" api_objs_suffix)
      in
      let byte = Filename.concat objs "byte" in
      let native = Filename.concat objs "native" in
      if Sys.file_exists (Filename.concat byte "jit_plugin_api.cmi") then
        Some [ byte; native ]
      else None
    in
    List.find_map check (candidate_roots ())

let find_ocamlopt () =
  let from_path =
    match Sys.getenv_opt "PATH" with
    | None -> None
    | Some path ->
      List.find_map
        (fun dir ->
          let p = Filename.concat dir "ocamlopt" in
          if Sys.file_exists p then Some p else None)
        (String.split_on_char ':' path)
  in
  from_path

(* -- compile configuration: wall-clock timeout and bounded retry -- *)

let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some x when x >= 0.0 -> x
  | _ -> default

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n >= 0 -> n
  | _ -> default

let timeout = ref (env_float "OGB_JIT_TIMEOUT" 20.0)
let retries = ref (env_int "OGB_JIT_RETRIES" 1)

let set_compile_timeout s = timeout := max 0.0 s
let compile_timeout () = !timeout
let set_compile_retries n = retries := max 0 n
let compile_retries () = !retries

(* -- compile + load -- *)

type run_status = Exited of int | Signaled of int | Timed_out

(* Seconds on the monotonic clock, so a wall-clock jump cannot fire or
   postpone the compile deadline. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Run the compiler with a deadline: poll the child with WNOHANG
   (backing off to 20ms) and SIGKILL it past the deadline.  A hung
   ocamlopt therefore costs one timeout, not the whole process. *)
let run_command argv ~stderr_file =
  let fd =
    Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout fd
  in
  Unix.close fd;
  let deadline =
    if !timeout > 0.0 then Some (now () +. !timeout) else None
  in
  let rec wait pause =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> (
      match deadline with
      | Some t when now () > t ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Timed_out
      | _ ->
        Unix.sleepf pause;
        wait (min 0.02 (pause *. 2.0)))
    | _, Unix.WEXITED n -> Exited n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> Signaled n
  in
  wait 0.001

let read_file path =
  try
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with Sys_error _ -> ""

let compile_once ~ocamlopt ~incs ~hash =
  let src = Disk_cache.source_path hash in
  let out = Disk_cache.cmxs_path hash in
  let inc_args = List.concat_map (fun d -> [ "-I"; d ]) incs in
  let argv =
    if Fault.fire "native.compile.hang" then
      (* a compiler that never returns: exercises the deadline kill *)
      [| "sleep"; "3600" |]
    else
      Array.of_list
        ([ ocamlopt; "-shared"; "-O2" ] @ inc_args @ [ "-o"; out; src ])
  in
  let stderr_file = Disk_cache.stderr_path hash in
  let status =
    if Fault.fire "native.compile.exit" then Exited 2
    else if Fault.fire "native.compile.signal" then Signaled Sys.sigkill
    else run_command argv ~stderr_file
  in
  match status with
  | Exited 0 -> Ok out
  | Exited n ->
    Error
      (`Permanent,
       Printf.sprintf "ocamlopt exited %d: %s" n (read_file stderr_file))
  | Signaled n ->
    Error (`Transient, Printf.sprintf "ocamlopt killed by signal %d" n)
  | Timed_out ->
    Jit_stats.record_compile_timeout ();
    Error
      (`Transient,
       Printf.sprintf "ocamlopt timed out after %.1fs (killed)" !timeout)

(* Bounded retry with backoff for transient failures (signal kills,
   timeouts); a nonzero compiler exit is deterministic and not retried. *)
let compile ~hash =
  match find_ocamlopt (), find_api_dirs () with
  | None, _ -> Error "ocamlopt not found on PATH"
  | _, None -> Error "Jit_plugin_api build artifacts not found"
  | Some ocamlopt, Some incs ->
    let rec attempt n =
      match compile_once ~ocamlopt ~incs ~hash with
      | Ok out -> Ok out
      | Error (`Permanent, e) -> Error e
      | Error (`Transient, e) ->
        if n < !retries then begin
          Jit_stats.record_compile_retry ();
          Unix.sleepf (0.02 *. float_of_int (1 lsl n));
          attempt (n + 1)
        end
        else Error e
    in
    attempt 0

let load ~cmxs ~key =
  if Fault.fire "native.load.dynlink" then
    Error "injected: Dynlink load failure"
  else
    match Dynlink.loadfile_private cmxs with
    | () -> (
      match Jit_plugin_api.lookup key with
      | Some _ when Fault.fire "native.load.unregistered" ->
        Error (Printf.sprintf "injected: key %S not registered" key)
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "plugin loaded but key %S not registered" key))
    | exception Dynlink.Error e -> Error (Dynlink.error_message e)

(* Cross-process single flight: compilation of one hash runs under the
   cache's advisory file lock, and re-checks for a valid artifact after
   acquiring it — the process that lost the race loads what the winner
   built instead of compiling again. *)
let compile_and_load ~hash ~source ~key =
  Disk_cache.with_lock hash @@ fun () ->
  let fresh_compile () =
    match Disk_cache.store_source hash source with
    | Error e -> Error ("cache write failed: " ^ e)
    | Ok () -> (
      match compile ~hash with
      | Error _ as e -> e
      | Ok cmxs ->
        Disk_cache.store_sums hash;
        load ~cmxs ~key)
  in
  if Disk_cache.has_cmxs hash then
    match Disk_cache.verify_cmxs hash with
    | `Ok -> (
      (* another process finished while we waited for the lock *)
      match load ~cmxs:(Disk_cache.cmxs_path hash) ~key with
      | Ok _ as ok -> ok
      | Error _ -> fresh_compile ())
    | `No_sum | `Mismatch ->
      Disk_cache.quarantine hash;
      fresh_compile ()
  else fresh_compile ()

let load_cached ~hash ~key = load ~cmxs:(Disk_cache.cmxs_path hash) ~key

(* -- availability probe: actually compile and load a trivial kernel -- *)

let probe_result : (unit, string) result option ref = ref None

let probe () =
  if not Dynlink.is_native then Error "bytecode runtime (Dynlink not native)"
  else
    match find_ocamlopt (), find_api_dirs () with
    | None, _ -> Error "ocamlopt not found on PATH"
    | _, None -> Error "Jit_plugin_api build artifacts not found"
    | Some _, Some _ ->
      let key = Printf.sprintf "probe|%d" (Unix.getpid ()) in
      let hash = Printf.sprintf "probe_%d" (Unix.getpid ()) in
      let source =
        Printf.sprintf
          "let kernel (x : Obj.t) : Obj.t = x\n\
           let () = Jit_plugin_api.register %S (Obj.repr kernel)\n"
          key
      in
      let cleanup () =
        (* the probe is a health check, not a cache entry: leave nothing
           behind (source, cmxs, cmx/o side products, stderr, sums, lock) *)
        List.iter
          (fun path -> try Sys.remove path with Sys_error _ -> ())
          [ Disk_cache.source_path hash;
            Disk_cache.cmxs_path hash;
            Disk_cache.stderr_path hash;
            Disk_cache.sum_path hash;
            Filename.concat (Disk_cache.dir ())
              (Printf.sprintf "Kern_%s.lock" hash);
            Filename.concat (Disk_cache.dir ())
              (Printf.sprintf "Kern_%s.cmx" hash);
            Filename.concat (Disk_cache.dir ())
              (Printf.sprintf "Kern_%s.cmi" hash);
            Filename.concat (Disk_cache.dir ())
              (Printf.sprintf "Kern_%s.o" hash) ]
      in
      Fun.protect ~finally:cleanup (fun () ->
          match compile_and_load ~hash ~source ~key with
          | Ok _ -> Ok ()
          | Error e -> Error e)

(* One probe per process: its files are named by the pid, so two
   domains probing at once would compile into, and clean up, the same
   paths, and the loser would cache "unavailable" for good. *)
let probe_lock = Mutex.create ()

let probe_cached () =
  Mutex.protect probe_lock @@ fun () ->
  match !probe_result with
  | Some r -> r
  | None ->
    let r = probe () in
    (match r with
    | Ok () -> Log.info (fun m -> m "native JIT backend available")
    | Error e -> Log.info (fun m -> m "native JIT backend unavailable: %s" e));
    probe_result := Some r;
    r

let available () = match probe_cached () with Ok () -> true | Error _ -> false

let explain () =
  match probe_cached () with
  | Ok () -> "native backend available"
  | Error e -> "native backend unavailable: " ^ e
