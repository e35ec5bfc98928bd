(* Hardened on-disk kernel cache.  Every write is atomic (temp file +
   rename), directory creation tolerates concurrent creators, compiled
   artifacts carry content checksums that are verified before Dynlink
   ever sees them, and a per-hash advisory file lock gives cross-process
   single-flight compilation.  Write failures never escape: a cache that
   cannot be written degrades the pipeline to in-memory closures, it
   does not crash the computation. *)

let default_dir () =
  match Sys.getenv_opt "OGB_JIT_CACHE" with
  | Some d -> d
  | None ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogb-jit-cache-%d" (Unix.getuid ()))

let the_dir = ref None

let set_dir d = the_dir := Some d

(* mkdir -p that treats EEXIST as success: between a [file_exists] probe
   and the [mkdir] another process (or an injected race) can create the
   directory first, and losing that race is fine. *)
let rec mkdir_p d =
  if d = "" || d = Filename.dirname d then ()
  else
    match Unix.mkdir d 0o755 with
    | () -> ()
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
      mkdir_p (Filename.dirname d);
      (try Unix.mkdir d 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let dir () =
  let d = match !the_dir with Some d -> d | None -> default_dir () in
  (* Under the injected race the existence probe is treated as stale
     (reporting "absent" even when the directory exists), which is
     exactly the TOCTOU window a concurrent creator exploits; mkdir_p
     must absorb the resulting EEXIST. *)
  if Fault.fire "cache.mkdir.race" || not (Sys.file_exists d) then mkdir_p d;
  the_dir := Some d;
  d

let source_path hash = Filename.concat (dir ()) (Printf.sprintf "Kern_%s.ml" hash)
let cmxs_path hash = Filename.concat (dir ()) (Printf.sprintf "Kern_%s.cmxs" hash)
let stderr_path hash = Filename.concat (dir ()) (Printf.sprintf "Kern_%s.stderr" hash)
let sum_path hash = Filename.concat (dir ()) (Printf.sprintf "Kern_%s.sum" hash)
let lock_path hash = Filename.concat (dir ()) (Printf.sprintf "Kern_%s.lock" hash)

(* -- atomic, fault-checked writes -- *)

let simulated_write_fault () =
  if Fault.fire "cache.write.eacces" then
    Some (Unix.Unix_error (Unix.EACCES, "open", "injected"))
  else if Fault.fire "cache.write.enospc" then
    Some (Unix.Unix_error (Unix.ENOSPC, "write", "injected"))
  else None

let write_file_atomic path contents =
  match simulated_write_fault () with
  | Some e ->
    Jit_stats.record_cache_write_failure ();
    Error (Printexc.to_string e)
  | None -> (
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    try
      let oc = open_out_bin tmp in
      Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
          output_string oc contents);
      Unix.rename tmp path;
      Ok ()
    with (Sys_error _ | Unix.Unix_error _) as e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Jit_stats.record_cache_write_failure ();
      Error (Printexc.to_string e))

let store_source hash src = write_file_atomic (source_path hash) src

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_source hash =
  let path = source_path hash in
  if Sys.file_exists path then
    match read_file path with s -> Some s | exception Sys_error _ -> None
  else None

let has_cmxs hash = Sys.file_exists (cmxs_path hash)

(* -- content checksums -- *)

(* Deterministic corruption: when the injection point fires, the
   artifact is replaced with garbage on disk before verification looks
   at it — the real recovery machinery (quarantine + recompile) then
   runs against real corruption, not a simulated flag.  The replacement
   goes through rename (a new inode) rather than truncation in place:
   an already-Dynlinked plugin stays mmapped, and truncating a mapped
   file delivers SIGBUS to the whole process — exactly the kind of
   collateral damage the injection must not cause. *)
let maybe_corrupt point path =
  if Fault.fire point && Sys.file_exists path then (
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    output_string oc "\x00corrupt";
    close_out_noerr oc;
    try Unix.rename tmp path
    with Unix.Unix_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

let digest_line label path =
  Printf.sprintf "%s:%s" label (Digest.to_hex (Digest.file path))

let store_sums hash =
  let src = source_path hash and cmxs = cmxs_path hash in
  if Sys.file_exists src && Sys.file_exists cmxs then
    match
      write_file_atomic (sum_path hash)
        (digest_line "src" src ^ "\n" ^ digest_line "cmxs" cmxs ^ "\n")
    with
    | Ok () | Error _ -> ()

let read_sum hash label =
  let path = sum_path hash in
  if not (Sys.file_exists path) then None
  else
    match read_file path with
    | exception Sys_error _ -> None
    | contents ->
      List.find_map
        (fun line ->
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = label ->
            Some (String.sub line (i + 1) (String.length line - i - 1))
          | _ -> None)
        (String.split_on_char '\n' contents)

let verify_against hash label path =
  match read_sum hash label with
  | None -> `No_sum
  | Some expected ->
    if
      Sys.file_exists path
      && (match Digest.to_hex (Digest.file path) with
         | actual -> actual = expected
         | exception Sys_error _ -> false)
    then `Ok
    else `Mismatch

let verify_cmxs hash =
  maybe_corrupt "cache.corrupt.cmxs" (cmxs_path hash);
  verify_against hash "cmxs" (cmxs_path hash)

let verify_source hash =
  maybe_corrupt "cache.corrupt.source" (source_path hash);
  verify_against hash "src" (source_path hash)

let quarantine hash =
  Jit_stats.record_checksum_quarantine ();
  let bad = cmxs_path hash ^ ".bad" in
  (try Unix.rename (cmxs_path hash) bad
   with Unix.Unix_error _ | Sys_error _ -> (
     try Sys.remove (cmxs_path hash) with Sys_error _ -> ()));
  try Sys.remove (sum_path hash) with Sys_error _ -> ()

(* -- cross-process advisory lock (single-flight compilation) -- *)

(* A daemon with active signal handlers (SIGTERM/SIGPIPE in the server)
   can see any blocking syscall interrupted; EINTR on open or lockf is a
   retry, not a failure. *)
let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let with_lock hash f =
  match
    retry_eintr (fun () ->
        Unix.openfile (lock_path hash) [ Unix.O_CREAT; Unix.O_RDWR ] 0o644)
  with
  | exception Unix.Unix_error _ ->
    (* can't lock (read-only cache dir): compile unlocked, duplicated
       work across processes is still correct *)
    f ()
  | fd ->
    Fun.protect
      ~finally:(fun () ->
        (try retry_eintr (fun () -> Unix.lockf fd Unix.F_ULOCK 0)
         with Unix.Unix_error _ -> ());
        retry_eintr (fun () -> Unix.close fd))
      (fun () ->
        (try retry_eintr (fun () -> Unix.lockf fd Unix.F_LOCK 0)
         with Unix.Unix_error _ -> ());
        f ())

(* -- cache-wide maintenance -- *)

let clear () =
  let d = dir () in
  let prefixed p f =
    String.length f >= String.length p && String.sub f 0 (String.length p) = p
  in
  let suffixed s f =
    String.length f >= String.length s
    && String.sub f (String.length f - String.length s) (String.length s) = s
  in
  Array.iter
    (fun f ->
      (* Kern_* covers sources, plugins, checksums, locks, quarantined
         artifacts and the build markers older closure backends wrote;
         probe_* and bare *.stderr cover what the availability probe and
         pre-hardening builds left behind. *)
      if prefixed "Kern_" f || prefixed "probe_" f || suffixed ".stderr" f then
        try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
    (Sys.readdir d)

let integrity_scan () =
  let d = dir () in
  let entries = ref [] in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".cmxs" && String.length f > 8
         && String.sub f 0 5 = "Kern_"
      then begin
        let hash = String.sub f 5 (String.length f - 10) in
        (* direct verification, no fault injection: the scan is a
           read-only diagnostic *)
        entries :=
          (hash, verify_against hash "cmxs" (Filename.concat d f)) :: !entries
      end)
    (Sys.readdir d);
  List.sort compare !entries
