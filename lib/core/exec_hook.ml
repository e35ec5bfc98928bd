type mode = Blocking | Nonblocking

let current = ref Blocking

let mode () = !current
let set_mode m = current := m

let with_mode m f =
  let prev = !current in
  current := m;
  Fun.protect ~finally:(fun () -> current := prev) f

(* Set while a MiniVM program is interpreting (the tier-1 path): the
   scheduler then runs plans in deterministic sequential topological
   order even if a domain pool is configured. *)
let force_sequential = ref false

let with_sequential f =
  let prev = !force_sequential in
  force_sequential := true;
  Fun.protect ~finally:(fun () -> force_sequential := prev) f

(* Installed by Exec (lib/exec) at module initialization.  Stored as
   [Obj.t] because the hook types mention [Expr.t], which is defined
   after this module; [Expr.force] downcasts at the call site.  The same
   technique the JIT dispatch table uses for kernels. *)

let evaluator : Obj.t option ref = ref None
(* ?mask:Expr.mask_spec -> Expr.t -> Container.t * bool, the flag saying
   the mask went into the kernel (Expr.force_masked) *)

let reducer : Obj.t option ref = ref None
(* op:string -> identity:string -> Expr.t -> float *)
