exception Injected of string

type mode =
  | Always
  | Never
  | Once
  | Times of int
  | After of int
  | Prob of float

let points =
  [ "native.compile.exit";  (* compiler exits nonzero *)
    "native.compile.signal";  (* compiler killed by a signal *)
    "native.compile.hang";  (* compiler never returns (timeout path) *)
    "native.load.dynlink";  (* Dynlink refuses the plugin *)
    "native.load.unregistered";  (* plugin loads but registers no key *)
    "cache.write.eacces";  (* cache write denied *)
    "cache.write.enospc";  (* cache device full *)
    "cache.corrupt.cmxs";  (* on-disk plugin truncated/garbage *)
    "cache.corrupt.source";  (* cached source truncated/garbage *)
    "cache.mkdir.race";  (* concurrent mkdir wins the TOCTOU window *)
    "sched.worker.exn";  (* worker domain raises mid-plan *)
    "sched.worker.slow";  (* worker domain stalls on a node *)
    "serve.accept.exn";  (* daemon accept loop raises on a connection *)
    "serve.session.exn";  (* session handler dies mid-request *)
    "analysis.effects.exn";  (* effect analysis dies mid-check (degrade loudly) *)
    "tile.read.corrupt";  (* on-disk tile truncated/garbage before verify *)
    "tile.write.enospc";  (* tile-store device full on a spill/checkpoint *)
    "tile.io.exn";  (* tile/checkpoint I/O raises mid-operation *)
    "tile.evict.slow" ]  (* eviction writeback stalls *)

let valid_point p = List.mem p points

let check_point p =
  if not (valid_point p) then
    invalid_arg (Printf.sprintf "Fault: unknown injection point %S" p)

(* All state behind one mutex: injection points are consulted from
   scheduler worker domains concurrently. *)
let lock = Mutex.create ()

let is_armed = ref false
let config : (string, mode) Hashtbl.t = Hashtbl.create 16
let attempts_tbl : (string, int) Hashtbl.t = Hashtbl.create 16
let fired_tbl : (string, int) Hashtbl.t = Hashtbl.create 16
let rng = ref (Random.State.make [| 2018 |])
let armed_summary = ref "disarmed"

let armed () = !is_armed

let bump tbl p =
  Hashtbl.replace tbl p (1 + Option.value ~default:0 (Hashtbl.find_opt tbl p))

let mode_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Once -> "once"
  | Times n -> Printf.sprintf "x%d" n
  | After n -> Printf.sprintf "after%d" n
  | Prob p -> Printf.sprintf "p%g" p

let arm ?(seed = 2018) entries =
  List.iter (fun (p, _) -> check_point p) entries;
  Mutex.protect lock @@ fun () ->
  Hashtbl.reset config;
  Hashtbl.reset attempts_tbl;
  Hashtbl.reset fired_tbl;
  List.iter (fun (p, m) -> Hashtbl.replace config p m) entries;
  rng := Random.State.make [| seed |];
  is_armed := entries <> [];
  armed_summary :=
    if entries = [] then "disarmed"
    else
      String.concat ","
        (List.map
           (fun (p, m) -> Printf.sprintf "%s=%s" p (mode_to_string m))
           (List.sort compare entries))
      ^ Printf.sprintf ",seed=%d" seed

let disarm () = arm []

let parse_mode s =
  let len = String.length s in
  let tail i = String.sub s i (len - i) in
  match s with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | "once" -> Ok Once
  | _ when len > 1 && s.[0] = 'x' -> (
    match int_of_string_opt (tail 1) with
    | Some n when n >= 0 -> Ok (Times n)
    | _ -> Error (Printf.sprintf "bad count in %S" s))
  | _ when len > 5 && String.sub s 0 5 = "after" -> (
    match int_of_string_opt (tail 5) with
    | Some n when n >= 0 -> Ok (After n)
    | _ -> Error (Printf.sprintf "bad count in %S" s))
  | _ when len > 1 && s.[0] = 'p' -> (
    match float_of_string_opt (tail 1) with
    | Some p when p >= 0.0 && p <= 1.0 -> Ok (Prob p)
    | _ -> Error (Printf.sprintf "bad probability in %S" s))
  | _ -> Error (Printf.sprintf "unknown fault mode %S" s)

let split_entries s =
  String.split_on_char ','
    (String.concat "," (String.split_on_char ';' s))
  |> List.map String.trim
  |> List.filter (fun e -> e <> "")

let arm_spec spec =
  let rec parse acc seed = function
    | [] -> Ok (List.rev acc, seed)
    | entry :: rest -> (
      match String.index_opt entry '=' with
      | None -> Error (Printf.sprintf "malformed entry %S (expected point=mode)" entry)
      | Some i -> (
        let k = String.sub entry 0 i in
        let v = String.sub entry (i + 1) (String.length entry - i - 1) in
        if k = "seed" then
          match int_of_string_opt v with
          | Some n -> parse acc n rest
          | None -> Error (Printf.sprintf "bad seed %S" v)
        else if not (valid_point k) then
          Error (Printf.sprintf "unknown injection point %S" k)
        else
          match parse_mode v with
          | Ok m -> parse ((k, m) :: acc) seed rest
          | Error e -> Error e))
  in
  match parse [] 2018 (split_entries spec) with
  | Error _ as e -> e
  | Ok (entries, seed) ->
    arm ~seed entries;
    Ok ()

let fire point =
  check_point point;
  if not !is_armed then false
  else
    Mutex.protect lock @@ fun () ->
    bump attempts_tbl point;
    let attempt = Hashtbl.find attempts_tbl point in
    let decision =
      match Hashtbl.find_opt config point with
      | None | Some Never -> false
      | Some Always -> true
      | Some Once -> attempt = 1
      | Some (Times n) -> attempt <= n
      | Some (After n) -> attempt > n
      | Some (Prob p) -> Random.State.float !rng 1.0 < p
    in
    if decision then bump fired_tbl point;
    decision

let attempts p =
  Mutex.protect lock (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt attempts_tbl p))

let fired p =
  Mutex.protect lock (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt fired_tbl p))

let counters () =
  Mutex.protect lock @@ fun () ->
  List.sort compare
    (Hashtbl.fold
       (fun p a acc ->
         (p, a, Option.value ~default:0 (Hashtbl.find_opt fired_tbl p)) :: acc)
       attempts_tbl [])

let reset_counters () =
  Mutex.protect lock @@ fun () ->
  Hashtbl.reset attempts_tbl;
  Hashtbl.reset fired_tbl

let describe () = Mutex.protect lock (fun () -> !armed_summary)

let suspended f =
  let prev =
    Mutex.protect lock (fun () ->
        let p = !is_armed in
        is_armed := false;
        p)
  in
  Fun.protect
    ~finally:(fun () -> Mutex.protect lock (fun () -> is_armed := prev))
    f

(* Arm from the environment at startup; a malformed spec is a loud no-op
   (chaos CI must not silently test nothing). *)
let () =
  match Sys.getenv_opt "OGB_FAULTS" with
  | None | Some "" -> ()
  | Some spec -> (
    match arm_spec spec with
    | Ok () -> ()
    | Error e -> Printf.eprintf "OGB_FAULTS ignored: %s\n%!" e)
