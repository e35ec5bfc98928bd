(** Counters for the out-of-core tile layer ({!Tile_store}, {!Tmatrix})
    and the checkpointed-iteration driver.  Lives in gbtl because the
    tiled containers record their own traffic; the JIT layer re-exports
    the counters next to its dispatch statistics, and [ogb doctor] /
    the serve [health] endpoint surface them.

    Counters are atomics: tiles are loaded and evicted from the
    daemon's worker domains concurrently, and we only need monotone
    tallies. *)

val record_load : unit -> unit
(** A tile materialized from the on-disk store. *)

val record_store : unit -> unit
(** A tile (or checkpoint) blob written to the store. *)

val record_eviction : unit -> unit
(** A resident tile dropped to stay inside the memory budget. *)

val record_write_failure : unit -> unit
(** A store write that failed (ENOSPC, EACCES, injected I/O fault) and
    was contained. *)

val record_quarantine : unit -> unit
(** A corrupt blob quarantined ([.bad]) after checksum mismatch. *)

val record_rebuild : unit -> unit
(** A quarantined/missing tile rebuilt from its authoritative source. *)

val record_ckpt_save : unit -> unit
val record_ckpt_resume : unit -> unit
(** Checkpointed-iteration bookkeeping: generations written, and runs
    that resumed from a saved generation instead of iteration 0. *)

val set_ckpt_generation : int -> unit
(** Gauge: iteration index of the newest good checkpoint written (or
    resumed from) by the checkpointed driver. *)

val record_delta_plan : unit -> unit
val record_delta_rejection : unit -> unit
(** Incremental-recompute bookkeeping: delta plans certified and run,
    and plans the certifier refused (caller falls back to a full
    recompute). *)

val set_resident : tiles:int -> bytes:int -> unit
(** Gauge: tiles currently resident across all live tiled matrices and
    their estimated footprint (updated by the {!Tmatrix} cache). *)

val add_resident : tiles:int -> bytes:int -> unit
(** Gauge adjustment (may be negative). *)

val get_evictions : unit -> int
val get_resident_tiles : unit -> int

val counters : unit -> (string * int) list
(** All counters as [(name, count)], fixed order: tile_loads,
    tile_stores, tile_evictions, tile_write_failures, tile_quarantines,
    tile_rebuilds, ckpt_saves, ckpt_resumes, ckpt_generation,
    delta_plans, delta_rejections, resident_tiles, resident_bytes. *)

val reset : unit -> unit
