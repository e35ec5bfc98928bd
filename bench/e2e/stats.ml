(* Clock and summary statistics shared by every workload.  Times come
   from bechamel's monotonic clock (CLOCK_MONOTONIC, nanoseconds), so a
   wall-clock jump never lands inside a sample. *)

let now_ns () = Monotonic_clock.now ()

let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* Run [f] and return its result with the elapsed milliseconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles with Python's [statistics.quantiles(n=4)]
   default ("exclusive") method, so this harness and a reader's own
   script agree on the spread of the same values. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* The [p]-th percentile by nearest rank. *)
let percentile p xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (k - 1)))

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0.0 xs

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let q1, q3 = quartiles xs in
  { median = median xs; q1; q3; n = List.length xs }

(* Machine-speed gauge.  The host's speed drifts by tens of percent
   over minutes (other tenants), which would swamp any change worth
   measuring, so every timed block is bracketed by two readings of a
   fixed plain-OCaml computation (sorting, hashing, float folds; nothing
   from lib/) and its times are scaled to the speed at which that
   computation takes [nominal_gauge_ms].  The gauge works in arrays
   allocated once, so it leaves no garbage for the timed code to
   collect. *)
let nominal_gauge_ms = 11.0

let gauge_keys = Array.make 40_000 0
let gauge_table = Array.make 65_536 (-1)
let gauge_floats = Array.make 40_000 0.0

let gauge_ms () =
  let a = gauge_keys and t = gauge_table and f = gauge_floats in
  let n = Array.length a in
  snd
    (timed (fun () ->
         for i = 0 to n - 1 do
           a.(i) <- (i * 7919) land 0xfffff
         done;
         Array.sort (fun (x : int) y -> compare x y) a;
         Array.fill t 0 (Array.length t) (-1);
         (* open addressing, linear probing: 40k keys in 64k slots *)
         for i = 0 to n - 1 do
           let x = a.(i) in
           let s = ref ((x * 40503) land 0xffff) in
           while t.(!s) <> -1 && t.(!s) <> x do
             s := (!s + 1) land 0xffff
           done;
           t.(!s) <- x
         done;
         let sum = ref 0.0 in
         for i = 0 to n - 1 do
           f.(i) <- float_of_int a.(i) *. 1.5;
           sum := !sum +. f.(i)
         done;
         ignore (Sys.opaque_identity !sum)))

(* Run [f]; return its result and the factor that scales times measured
   during it to nominal speed. *)
let gauged f =
  let before = gauge_ms () in
  let r = f () in
  let after = gauge_ms () in
  (r, 2.0 *. nominal_gauge_ms /. (before +. after))

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb ?(pid = "self") () =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | exception End_of_file -> nan
          | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6))
                " %d kB" (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
        in
        scan ())
