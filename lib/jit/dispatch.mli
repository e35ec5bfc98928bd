(** Kernel dispatch: the [get_module] of paper Fig. 9.

    Lookup order is memory table → disk cache → compile.  "Compile" means
    [ocamlopt -shared] + [Dynlink] under the native backend, or closure
    instantiation (a kernel family's functor applied to the operator
    closures, without the external compiler) under the closure backend,
    which has no disk level.  Every step is recorded in {!Jit_stats}.

    Dispatch is domain-safe, and compilation never blocks unrelated
    lookups: the global lock guards only the kernel table, while a
    per-key in-flight entry makes concurrent requests for the same
    signature wait on the one compile (counted as [inflight_waits])
    instead of duplicating it.  Native failures feed the {!Breaker}
    circuit breaker; with the circuit open, dispatch goes straight to
    the closure backend without probing ocamlopt. *)

type backend = Auto | Closure | Native

val set_backend : backend -> unit
val backend : unit -> backend

val effective_backend : unit -> [ `Closure | `Native ]
(** What [Auto] resolves to after probing the toolchain. *)

val get :
  Kernel_sig.t ->
  build:(unit -> Obj.t) ->
  ?native_source:(key:string -> string option) ->
  unit ->
  Obj.t
(** Returns the kernel for the signature, building/compiling at most once
    per process.  [build] is the closure-backend instantiation;
    [native_source] generates plugin source (absent or [None]-returning
    combinations always use the closure backend). *)

val cached : Kernel_sig.t -> bool
(** Whether the signature is already in the in-memory table (a later
    {!get} would be a memory hit) — lets the AOT warm-up distinguish
    fresh compiles from already-resident kernels. *)

val clear_memory_cache : unit -> unit
(** Forget in-process kernels (the disk cache persists) — lets benchmarks
    re-measure disk hits and recompiles. *)

val memory_cache_size : unit -> int
