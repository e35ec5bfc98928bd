(* Global switch and counters for the format-polymorphic storage layer
   (CSR/CSC matrices, sparse/dense vectors).  Lives in gbtl because the
   containers themselves record conversions; the JIT layer re-exports the
   counters next to its dispatch statistics.

   Counters are atomics: the daemon's worker domains convert formats while
   dispatching kernels concurrently, and we only need monotone tallies,
   not cross-counter consistency. *)

let enabled_flag = ref true

let () =
  match Sys.getenv_opt "OGB_FORMATS" with
  | Some ("0" | "off" | "false") -> enabled_flag := false
  | _ -> ()

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

let with_enabled b f =
  let saved = !enabled_flag in
  enabled_flag := b;
  Fun.protect ~finally:(fun () -> enabled_flag := saved) f

let csc_builds = Atomic.make 0
let densify_count = Atomic.make 0
let sparsify_count = Atomic.make 0
let auto_densify = Atomic.make 0
let auto_sparsify = Atomic.make 0
let pull_steps = Atomic.make 0
let push_steps = Atomic.make 0
let sparse_masks = Atomic.make 0

let bump c = Atomic.incr c

let record_csc_build () = bump csc_builds
let record_densify ~auto =
  bump densify_count;
  if auto then bump auto_densify
let record_sparsify ~auto =
  bump sparsify_count;
  if auto then bump auto_sparsify
let record_pull () = bump pull_steps
let record_push () = bump push_steps
let record_sparse_mask () = bump sparse_masks

let get_csc_builds () = Atomic.get csc_builds

let counters () =
  [ ("csc_builds", Atomic.get csc_builds);
    ("densify", Atomic.get densify_count);
    ("sparsify", Atomic.get sparsify_count);
    ("auto_densify", Atomic.get auto_densify);
    ("auto_sparsify", Atomic.get auto_sparsify);
    ("pull_steps", Atomic.get pull_steps);
    ("push_steps", Atomic.get push_steps);
    ("sparse_masks", Atomic.get sparse_masks) ]

let reset () =
  List.iter
    (fun c -> Atomic.set c 0)
    [ csc_builds; densify_count; sparsify_count; auto_densify; auto_sparsify;
      pull_steps; push_steps; sparse_masks ]
