type t = {
  backend : string;
  effective : string;
  breaker : string;
  breaker_threshold : int;
  breaker_cooldown : float;
  compile_timeout : float;
  compile_retries : int;
  cache_dir : string;
  cache_ok : int;
  cache_no_sum : int;
  cache_mismatch : int;
  faults : string;
  fault_counters : (string * int * int) list;
  stats : Jit_stats.snapshot;
  tile_store_dir : string;
  tile_disk_blobs : int;
  tile_disk_bytes : int;
  tile_disk_quarantined : int;
  tile_counters : (string * int) list;
}

let collect ?(probe = true) () =
  let scan = Disk_cache.integrity_scan () in
  let count v = List.length (List.filter (fun (_, s) -> s = v) scan) in
  let tile_fp = Gbtl.Tile_store.scan_root () in
  { backend =
      (if probe then Native_backend.explain ()
       else "not probed (pass --probe)");
    effective =
      (if probe then
         match Dispatch.effective_backend () with
         | `Native -> "native"
         | `Closure -> "closure"
       else
         match Dispatch.backend () with
         | Dispatch.Auto -> "auto (unresolved)"
         | Dispatch.Closure -> "closure"
         | Dispatch.Native -> "native");
    breaker = Breaker.state_string ();
    breaker_threshold = Breaker.get_threshold ();
    breaker_cooldown = Breaker.get_cooldown ();
    compile_timeout = Native_backend.compile_timeout ();
    compile_retries = Native_backend.compile_retries ();
    cache_dir = Disk_cache.dir ();
    cache_ok = count `Ok;
    cache_no_sum = count `No_sum;
    cache_mismatch = count `Mismatch;
    faults = Fault.describe ();
    fault_counters = Fault.counters ();
    stats = Jit_stats.snapshot ();
    tile_store_dir = Gbtl.Tile_store.root_dir ();
    tile_disk_blobs = tile_fp.Gbtl.Tile_store.blobs;
    tile_disk_bytes = tile_fp.Gbtl.Tile_store.bytes;
    tile_disk_quarantined = tile_fp.Gbtl.Tile_store.quarantined;
    tile_counters = Jit_stats.tiles () }

let healthy t = t.cache_mismatch = 0 && Breaker.state () <> Breaker.Open

(* Exit-code contract (ogb doctor, server health endpoint): corrupt
   artifacts in the cache are a hard failure (integrity is gone until
   someone clears or quarantines them), while an open breaker is a
   degradation (every dispatch still succeeds on the closure backend). *)
let verdict t =
  if t.cache_mismatch > 0 then `Failed
  else if Breaker.state () = Breaker.Open then `Degraded
  else `Healthy

let verdict_string t =
  match verdict t with
  | `Healthy -> "healthy"
  | `Degraded -> "degraded"
  | `Failed -> "failed"

(* Machine-readable form of the exact same report: [ogb doctor --json]
   prints it, and the server's [health] response embeds it verbatim. *)
let to_json t =
  let b = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let str s = Printf.sprintf "%S" s in
  out "{";
  out "\"backend\": %s, " (str t.backend);
  out "\"effective\": %s, " (str t.effective);
  out "\"breaker\": { \"state\": %s, \"threshold\": %d, \"cooldown_s\": %g }, "
    (str t.breaker) t.breaker_threshold t.breaker_cooldown;
  out "\"compile\": { \"timeout_s\": %g, \"retries\": %d }, "
    t.compile_timeout t.compile_retries;
  out "\"cache\": { \"dir\": %s, \"ok\": %d, \"no_sum\": %d, \"mismatch\": %d }, "
    (str t.cache_dir) t.cache_ok t.cache_no_sum t.cache_mismatch;
  out "\"faults\": %s, " (str t.faults);
  out "\"fault_counters\": [%s], "
    (String.concat ", "
       (List.map
          (fun (p, a, f) ->
            Printf.sprintf
              "{ \"point\": %s, \"attempts\": %d, \"fired\": %d }" (str p) a f)
          t.fault_counters));
  let s = t.stats in
  out
    "\"stats\": { \"lookups\": %d, \"memory_hits\": %d, \"disk_hits\": %d, \
     \"compiles\": %d, \"native_compiles\": %d, \"native_failures\": %d, \
     \"compile_seconds\": %.6f, \"warm_requests\": %d, \"warm_compiles\": %d, \
     \"cache_write_failures\": %d, \"checksum_quarantines\": %d, \
     \"compile_timeouts\": %d, \"compile_retries\": %d, \"breaker_trips\": %d, \
     \"breaker_short_circuits\": %d, \"inflight_waits\": %d, \
     \"blocking_fallbacks\": %d, \"effects_checks\": %d, \
     \"effects_hazards\": %d, \"effects_degraded\": %d }, "
    s.Jit_stats.lookups s.Jit_stats.memory_hits s.Jit_stats.disk_hits
    s.Jit_stats.compiles s.Jit_stats.native_compiles s.Jit_stats.native_failures
    s.Jit_stats.compile_seconds s.Jit_stats.warm_requests
    s.Jit_stats.warm_compiles s.Jit_stats.cache_write_failures
    s.Jit_stats.checksum_quarantines s.Jit_stats.compile_timeouts
    s.Jit_stats.compile_retries s.Jit_stats.breaker_trips
    s.Jit_stats.breaker_short_circuits s.Jit_stats.inflight_waits
    s.Jit_stats.blocking_fallbacks s.Jit_stats.effects_checks
    s.Jit_stats.effects_hazards s.Jit_stats.effects_degraded;
  out
    "\"tiles\": { \"store_dir\": %s, \"disk_blobs\": %d, \"disk_bytes\": %d, \
     \"disk_quarantined\": %d%s }, "
    (str t.tile_store_dir) t.tile_disk_blobs t.tile_disk_bytes
    t.tile_disk_quarantined
    (String.concat ""
       (List.map
          (fun (k, v) -> Printf.sprintf ", %S: %d" k v)
          t.tile_counters));
  out "\"healthy\": %b, " (healthy t);
  out "\"verdict\": %s" (str (verdict_string t));
  out "}";
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "backend:          %s@\n" t.backend;
  Format.fprintf fmt "effective:        %s@\n" t.effective;
  Format.fprintf fmt "circuit breaker:  %s (threshold=%d, cooldown=%.1fs)@\n"
    t.breaker t.breaker_threshold t.breaker_cooldown;
  Format.fprintf fmt "compile timeout:  %.1fs, retries: %d@\n"
    t.compile_timeout t.compile_retries;
  Format.fprintf fmt "cache directory:  %s@\n" t.cache_dir;
  Format.fprintf fmt
    "cache integrity:  %d ok, %d unchecksummed, %d corrupt@\n" t.cache_ok
    t.cache_no_sum t.cache_mismatch;
  Format.fprintf fmt "fault injection:  %s@\n" t.faults;
  List.iter
    (fun (point, attempts, fired) ->
      Format.fprintf fmt "  %-28s attempts=%d fired=%d@\n" point attempts
        fired)
    t.fault_counters;
  Format.fprintf fmt "stats: %a@\n" Jit_stats.pp t.stats;
  Format.fprintf fmt "tile store:       %s (%d blobs, %d bytes, %d quarantined)@\n"
    t.tile_store_dir t.tile_disk_blobs t.tile_disk_bytes
    t.tile_disk_quarantined;
  Format.fprintf fmt "tile stats:       %s@\n"
    (String.concat " "
       (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) t.tile_counters));
  Format.fprintf fmt "verdict:          %s@\n"
    (if healthy t then "healthy" else "DEGRADED")

let to_string t = Format.asprintf "%a" pp t
