(** Dispatch statistics: how often kernels were served from the in-memory
    table, from the on-disk cache, or freshly compiled — the data behind
    the compile-time experiment (E3 in DESIGN.md). *)

type snapshot = {
  lookups : int;
  memory_hits : int;
  disk_hits : int;
  compiles : int;
  native_compiles : int;  (** subset of [compiles] that ran ocamlopt *)
  native_failures : int;  (** native attempts that fell back to closures *)
  compile_seconds : float;  (** cumulative wall time spent compiling *)
  warm_requests : int;  (** signatures the AOT warm-up was asked to build *)
  warm_compiles : int;  (** warm-up requests that triggered a compile *)
  cache_write_failures : int;  (** disk-cache writes that failed (EACCES…) *)
  checksum_quarantines : int;  (** corrupt artifacts quarantined + recompiled *)
  compile_timeouts : int;  (** runaway ocamlopt processes killed *)
  compile_retries : int;  (** transient compile failures retried *)
  breaker_trips : int;  (** circuit breaker Closed→Open transitions *)
  breaker_short_circuits : int;  (** native attempts denied by an open breaker *)
  inflight_waits : int;  (** dispatches that waited on another domain's compile *)
  blocking_fallbacks : int;  (** expressions re-evaluated on the blocking path *)
  effects_checks : int;  (** effect-analysis passes over a plan *)
  effects_hazards : int;  (** footprint hazards found (pre-remedy) *)
  effects_degraded : int;  (** analysis crashes contained (loud degrade) *)
}

val record_lookup : unit -> unit
val record_memory_hit : unit -> unit
val record_disk_hit : unit -> unit
val record_compile : native:bool -> seconds:float -> unit
val record_native_failure : unit -> unit

val record_warm_request : unit -> unit
val record_warm_compile : unit -> unit
(** Ahead-of-time warm-up bookkeeping (driven by the static analyzer). *)

val record_cache_write_failure : unit -> unit
val record_checksum_quarantine : unit -> unit
val record_compile_timeout : unit -> unit
val record_compile_retry : unit -> unit
val record_breaker_trip : unit -> unit
val record_breaker_short_circuit : unit -> unit
val record_inflight_wait : unit -> unit
val record_blocking_fallback : unit -> unit
(** Resilience bookkeeping (fed by the hardened cache/compile pipeline,
    the circuit breaker and the scheduler's failure containment). *)

val record_effects_check : unit -> unit
val record_effects_hazard : count:int -> unit
val record_effects_degraded : unit -> unit
(** Effect-analysis bookkeeping (fed by [Analysis.Effects] through the
    verifier hook: checks run, hazards found before any remedy, and
    analysis failures contained as loud degrades). *)

val record_signature : string -> hit:bool -> unit
(** Tally one dispatch of the given {!Kernel_sig.key} as a cache hit
    (memory or disk) or a miss (fresh compile). *)

val record_fusion : ?count:int -> string -> unit
(** Count [count] (default one) firings of a fusion rewrite (by rewrite
    name); fed by the nonblocking engine's optimizer. *)

val signature_counts : string -> int * int
(** [(hits, misses)] of one signature key, as {!per_signature} lists
    them. *)

val per_signature : unit -> (string * int * int) list
(** [(signature key, hits, misses)] sorted by key. *)

val fusions : unit -> (string * int) list
(** [(rewrite name, firings)] sorted by name. *)

val formats : unit -> (string * int) list
(** Storage-format counters (CSC builds, densify/sparsify conversions,
    auto-switch decisions, push/pull steps, sparse masks) — re-exported
    from [Gbtl.Format_stats]. *)

val tiles : unit -> (string * int) list
(** Out-of-core tile counters (loads, stores, evictions, quarantines,
    rebuilds, checkpoint generations, delta plans, resident gauges) —
    re-exported from [Gbtl.Tile_stats]. *)

val snapshot : unit -> snapshot
val reset : unit -> unit
val pp : Format.formatter -> snapshot -> unit
