(** On-disk kernel cache (level 2 of the lookup in paper Fig. 9: memory →
    disk → compile), hardened: atomic writes (temp file + rename),
    EEXIST-tolerant directory creation, content checksums with
    quarantine, and a per-hash advisory file lock for cross-process
    single-flight compilation.  A cache write that fails (permissions,
    full disk) is counted in {!Jit_stats} and absorbed — the pipeline
    degrades to in-memory closures instead of crashing. *)

val dir : unit -> string
(** Cache directory (created on first use, parents included; concurrent
    creation is safe).  Defaults to [$OGB_JIT_CACHE] or
    [<tmpdir>/ogb-jit-cache-<uid>]. *)

val set_dir : string -> unit

val source_path : string -> string
(** [source_path hash] — where the generated source for a kernel lives. *)

val cmxs_path : string -> string

val stderr_path : string -> string
(** Compiler diagnostics for the hash ([Kern_<hash>.stderr], so
    {!clear} sweeps it with the other artifacts). *)

val sum_path : string -> string
(** Checksum sidecar ([src:<md5>] and [cmxs:<md5>] lines). *)

val store_source : string -> string -> (unit, string) result
(** [store_source hash src] — atomic: a concurrent reader sees either
    the previous content or all of [src], never a torn write.  [Error]
    (with the counter bumped) on a failed write. *)

val read_source : string -> string option
val has_cmxs : string -> bool

val store_sums : string -> unit
(** Record checksums of the stored source and compiled plugin (called
    after a successful compile). *)

val verify_cmxs : string -> [ `Ok | `No_sum | `Mismatch ]
(** Checksum the on-disk plugin against its sidecar.  [`No_sum] means a
    pre-hardening entry with no recorded checksum (accepted, like the
    seed behavior). *)

val verify_source : string -> [ `Ok | `No_sum | `Mismatch ]

val quarantine : string -> unit
(** Move a corrupt plugin aside ([.cmxs.bad]) and drop its checksums so
    the next dispatch recompiles; counted in {!Jit_stats}. *)

val with_lock : string -> (unit -> 'a) -> 'a
(** Run under the per-hash advisory file lock: at most one process
    compiles a given hash at a time (callers re-check the cache after
    acquiring).  Falls back to running unlocked if the lock file cannot
    be created — duplicated work, still correct. *)

val clear : unit -> unit
(** Remove every cache artifact, including compiler stderr captures,
    checksum/lock sidecars, quarantined plugins and availability-probe
    leftovers (used by tests and the compile bench). *)

val integrity_scan : unit -> (string * [ `Ok | `No_sum | `Mismatch ]) list
(** Verify every cached plugin against its checksum (read-only, no
    fault injection) — the [ogb_cli doctor] cache report. *)
