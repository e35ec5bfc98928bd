type mode = Blocking | Nonblocking

let current = ref Blocking

let mode () = !current
let set_mode m = current := m

let with_mode m f =
  let prev = !current in
  current := m;
  Fun.protect ~finally:(fun () -> current := prev) f

(* Installed by Exec (lib/exec) at module initialization.  Stored as
   [Obj.t] because the hook types mention [Expr.t], which is defined
   after this module; [Expr.force] downcasts at the call site.  The same
   technique the JIT dispatch table uses for kernels. *)

let evaluator : Obj.t option ref = ref None
(* ?mask:Expr.mask_spec -> Expr.t -> Container.t * bool, the flag saying
   the mask went into the kernel (Expr.force_masked) *)

let reducer : Obj.t option ref = ref None
(* op:string -> identity:string -> Expr.t -> float *)
