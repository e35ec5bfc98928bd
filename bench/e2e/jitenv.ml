(* Private JIT caches.  Every invocation works under its own directory
   and deletes it on exit: set-up always covers the same compile work,
   the user's cache is never touched, and the cost-model calibration
   (stored beside the kernels) always starts from its defaults, so the
   planner makes the same choices on every run. *)

let root = ref ""
let count = ref 0
let current = ref ""

(* Smoke runs share one disk cache between every "fresh" one, so only
   the first pass compiles. *)
let shared = ref false

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Forget every in-memory cache that a fresh process would not have:
   compiled kernels, planner schedules and the loaded calibration. *)
let empty_memory () =
  Jit.Dispatch.clear_memory_cache ();
  Exec.Planner.clear_cache ();
  Cost.Calibration.reload ()

(* Point the JIT at [dir] (its kernels on disk) with empty memory
   caches. *)
let use dir =
  Jit.Disk_cache.set_dir dir;
  empty_memory ()

(* A new empty disk cache with empty memory caches; returns its path. *)
let fresh () =
  if not (!shared && !count > 0) then begin
    incr count;
    current := Filename.concat !root (Printf.sprintf "cache-%d" !count)
  end;
  use !current;
  !current

let init dir =
  root := dir;
  remove_tree dir;
  at_exit (fun () -> remove_tree dir);
  ignore (fresh ())
