(* Circuit breaker over the native compile pipeline.  After [threshold]
   consecutive native failures the breaker opens: dispatch stops probing
   ocamlopt entirely (saving the failed-compile latency on every new
   signature) and serves closures.  After [cooldown] seconds it
   half-opens and admits exactly one trial compile; success closes the
   circuit, failure re-opens it for another cooldown. *)

type state = Closed | Open | Half_open

let lock = Mutex.create ()

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

let env_float name default =
  match Option.bind (Sys.getenv_opt name) float_of_string_opt with
  | Some x when x >= 0.0 -> x
  | _ -> default

(* Seconds on the monotonic clock: a wall-clock jump must neither end a
   cooldown early nor hold the breaker open. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let threshold = ref (env_int "OGB_JIT_BREAKER_K" 5)
let cooldown = ref (env_float "OGB_JIT_BREAKER_COOLDOWN" 30.0)

let st = ref Closed
let consecutive_failures = ref 0
let opened_at = ref 0.0

let set_threshold k = Mutex.protect lock (fun () -> threshold := max 1 k)
let set_cooldown s = Mutex.protect lock (fun () -> cooldown := max 0.0 s)
let get_threshold () = !threshold
let get_cooldown () = !cooldown

let reset () =
  Mutex.protect lock @@ fun () ->
  st := Closed;
  consecutive_failures := 0

let state () = Mutex.protect lock (fun () -> !st)

let state_string () =
  match state () with
  | Closed -> "closed"
  | Open ->
    Printf.sprintf "open (cooldown %.1fs, %.1fs elapsed)" !cooldown
      (now () -. !opened_at)
  | Half_open -> "half-open (one trial in flight)"

let allow () =
  Mutex.protect lock @@ fun () ->
  match !st with
  | Closed -> true
  | Half_open ->
    (* one trial at a time; everyone else keeps using closures *)
    Jit_stats.record_breaker_short_circuit ();
    false
  | Open ->
    if now () -. !opened_at >= !cooldown then begin
      st := Half_open;
      true
    end
    else begin
      Jit_stats.record_breaker_short_circuit ();
      false
    end

let success () =
  Mutex.protect lock @@ fun () ->
  consecutive_failures := 0;
  st := Closed

let failure () =
  Mutex.protect lock @@ fun () ->
  match !st with
  | Half_open ->
    (* the trial failed: straight back to open, fresh cooldown *)
    st := Open;
    opened_at := now ();
    Jit_stats.record_breaker_trip ()
  | Open -> ()
  | Closed ->
    incr consecutive_failures;
    if !consecutive_failures >= !threshold then begin
      st := Open;
      opened_at := now ();
      Jit_stats.record_breaker_trip ()
    end
