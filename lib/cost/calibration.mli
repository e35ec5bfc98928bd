(** Persisted cost-model coefficients, calibrated from measured kernel
    timings.

    The scheduler records per-family execution timings
    ({!Jit.Jit_stats.record_kernel_time}); {!absorb} normalizes them
    into ns/item coefficients, and {!save} persists them as a
    versioned, checksummed file next to the JIT disk cache.  {!load} runs lazily on first query: a missing file means
    uncalibrated defaults, and a corrupt file (bad header, bad
    checksum, or the [cost.calib.corrupt] injection point) is loudly
    quarantined to [.bad] — mirroring the JIT cache quarantine — and
    falls back to the defaults, never to garbage coefficients. *)

val path : unit -> string
(** Calibration file ([calibration.v1] inside {!Jit.Disk_cache.dir}). *)

val generation : unit -> int
(** Version of the loaded calibration: 0 when uncalibrated, else the
    generation counter persisted in the file (bumped by every {!save}).
    Schedule caches key on this so re-calibration invalidates them. *)

val calibrated : unit -> bool

val ns_per_item : string -> float option
(** Calibrated coefficient for a kernel family ("mxv_pull",
    "compile", …), in nanoseconds per item; [None] when the family
    has no measured data. *)

val absorb : unit -> int
(** Fold the timing tallies currently in [Jit_stats] into the
    in-memory coefficient table, averaging with previously loaded
    values.  Returns the number of families updated. *)

val save : unit -> (string, string) result
(** {!absorb}, bump the generation and atomically persist.  [Ok path]
    on success. *)

val reload : unit -> unit
(** Drop in-memory state and re-read the file on next query (tests and
    the daemon's reload path). *)

val quarantines : unit -> int
(** Corrupt calibration files moved aside since startup. *)

val summary : unit -> (string * float * int) list
(** [(family, ns/item, samples)] for every loaded/absorbed coefficient,
    sorted by family — surfaced by [ogb analyze]. *)
