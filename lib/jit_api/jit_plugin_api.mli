(** The host/plugin handshake of the native JIT backend.

    A dynamically compiled kernel module's initializer calls {!register}
    with its signature key; the host looks the kernel up right after
    [Dynlink.loadfile].  Values cross the boundary as [Obj.t]: the
    signature key encodes the operand dtypes, so both sides agree on the
    concrete (monomorphic) type — the same contract as PyGB's
    [dlopen]/[getattr] on a [g++]-compiled module. *)

val register : string -> Obj.t -> unit
val lookup : string -> Obj.t option
val registered_keys : unit -> string list
