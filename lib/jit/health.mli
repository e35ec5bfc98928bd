(** Structured health report over the resilience layer: backend probe,
    circuit-breaker state, compile timeout/retry configuration, cache
    integrity scan, fault-injection status and the {!Jit_stats}
    counters.  Backs the [ogb_cli doctor] subcommand. *)

type t = {
  backend : string;  (** availability-probe outcome *)
  effective : string;  (** what [Auto] resolves to *)
  breaker : string;  (** circuit-breaker state description *)
  breaker_threshold : int;
  breaker_cooldown : float;
  compile_timeout : float;
  compile_retries : int;
  cache_dir : string;
  cache_ok : int;  (** cached plugins whose checksum verifies *)
  cache_no_sum : int;  (** pre-hardening entries with no checksum *)
  cache_mismatch : int;  (** corrupt plugins found by the scan *)
  faults : string;  (** armed fault spec, or ["disarmed"] *)
  fault_counters : (string * int * int) list;  (** point, attempts, fired *)
  stats : Jit_stats.snapshot;
  pool_domains : int;  (** resolved domain budget *)
  pool_counters : (string * int) list;  (** helper jobs/tasks *)
  pool_busy_seconds : float;  (** wall time inside helper tasks *)
  tile_store_dir : string;  (** root of the out-of-core tile stores *)
  tile_disk_blobs : int;  (** tile/checkpoint blobs on disk *)
  tile_disk_bytes : int;  (** on-disk footprint of the tile stores *)
  tile_disk_quarantined : int;  (** quarantined ([.bad]) tile blobs *)
  tile_counters : (string * int) list;
      (** loads/stores/evictions/quarantines/rebuilds/checkpoints/
          delta plans + resident gauges ({!Jit_stats.tiles}) *)
}

val collect : ?probe:bool -> unit -> t
(** Assemble a report.  [probe] (default true) runs the native-backend
    availability probe, which costs one trivial compile on first call. *)

val healthy : t -> bool
(** No corrupt cache entries and the breaker is not open. *)

val verdict : t -> [ `Healthy | `Degraded | `Failed ]
(** The [ogb doctor] exit-code contract: [`Failed] (exit 2) when the
    cache scan found corrupt plugins, [`Degraded] (exit 1) when the
    circuit breaker is open (dispatch still works, on closures),
    [`Healthy] (exit 0) otherwise. *)

val verdict_string : t -> string

val to_json : t -> string
(** One JSON object carrying the whole report — what [ogb doctor
    --json] prints and the server's [health] response embeds
    verbatim. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
