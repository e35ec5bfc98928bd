(** Ahead-of-time JIT warm-up: drive {!Jit.Dispatch} over a set of
    kernel signatures (typically {!Vm_abstract.signatures} output)
    before the first real iteration runs.

    Each signature is warmed by invoking the corresponding kernel entry
    point on tiny stand-in operands chosen so the dispatched signature
    is exactly the requested one (e.g. a 32-element vector in the
    signature's layout with the direction its formats name).
    The kernel's {e result} is discarded — only the compile/cache side
    effect matters. *)

type status =
  | Already_cached  (** already in the in-memory kernel table *)
  | Compiled  (** warm-up triggered a fresh compile *)
  | Loaded  (** warm-up loaded the kernel from the disk cache *)
  | Skipped of string  (** no recipe, or the recipe failed — reason *)

type outcome = { sig_ : Jit.Kernel_sig.t; status : status }

val warm : Jit.Kernel_sig.t list -> outcome list
(** Outcomes in the order of the list.  Two domains work through it
    (each compile is an ocamlopt child process, so a cold warm-up keeps
    two cores busy).  Also maintains {!Jit.Jit_stats}'
    [warm_requests]/[warm_compiles] counters. *)

val status_to_string : status -> string
