(* Versioned on-disk calibration for the cost model.

   File format (text, one record per line, checksummed):

     ogb-calibration 1
     generation <n>
     coef <family> <ns-per-item> <samples>
     ...
     sum <md5 of every preceding line>

   The write is atomic (temp file + rename, like the JIT disk cache)
   and the read path treats *any* irregularity — wrong magic, torn
   line, checksum mismatch, or the cost.calib.corrupt injection point —
   as corruption: the file is renamed to .bad, a loud warning goes to
   stderr, and the process continues on uncalibrated defaults.  A bad
   calibration must never silently steer the planner. *)

let file_version = 1

type coef = { mutable ns : float; mutable samples : int }

type state = {
  coefs : (string, coef) Hashtbl.t;
  mutable gen : int;
}

let lock = Mutex.create ()
let state : state option ref = ref None (* None = not loaded yet *)
let quarantined = ref 0

let path () = Filename.concat (Jit.Disk_cache.dir ()) "calibration.v1"

(* -- parsing / serialization -- *)

let serialize st =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "ogb-calibration %d\n" file_version);
  Buffer.add_string b (Printf.sprintf "generation %d\n" st.gen);
  Hashtbl.fold (fun fam c acc -> (fam, c) :: acc) st.coefs []
  |> List.sort compare
  |> List.iter (fun (fam, c) ->
         Buffer.add_string b
           (Printf.sprintf "coef %s %.6f %d\n" fam c.ns c.samples));
  let body = Buffer.contents b in
  body ^ Printf.sprintf "sum %s\n" (Digest.to_hex (Digest.string body))

let parse contents =
  let fail msg = Error msg in
  match String.index_opt contents '\n' with
  | None -> fail "empty file"
  | Some _ -> (
    (* split off the trailing "sum" line and verify it first *)
    let len = String.length contents in
    let sum_at =
      let rec find i =
        if i < 0 then None
        else if i + 4 <= len && String.sub contents i 4 = "sum "
                && (i = 0 || contents.[i - 1] = '\n')
        then Some i
        else find (i - 1)
      in
      find (len - 1)
    in
    match sum_at with
    | None -> fail "missing checksum line"
    | Some i ->
      let body = String.sub contents 0 i in
      let sum_line = String.trim (String.sub contents i (len - i)) in
      let expect = "sum " ^ Digest.to_hex (Digest.string body) in
      if not (String.equal sum_line expect) then fail "checksum mismatch"
      else
        let lines =
          String.split_on_char '\n' body
          |> List.map String.trim
          |> List.filter (fun l -> l <> "")
        in
        let st = { coefs = Hashtbl.create 32; gen = 0 } in
        let rec go = function
          | [] -> Ok st
          | line :: rest -> (
            match String.split_on_char ' ' line with
            | [ "ogb-calibration"; v ]
              when int_of_string_opt v = Some file_version -> go rest
            | [ "ogb-calibration"; v ] ->
              fail (Printf.sprintf "unsupported version %s" v)
            | [ "generation"; g ] -> (
              match int_of_string_opt g with
              | Some g when g >= 0 ->
                st.gen <- g;
                go rest
              | _ -> fail "bad generation")
            | [ "coef"; fam; ns; samples ] -> (
              match (float_of_string_opt ns, int_of_string_opt samples) with
              | Some ns, Some s when ns > 0.0 && s >= 0 ->
                Hashtbl.replace st.coefs fam { ns; samples = s };
                go rest
              | _ -> fail (Printf.sprintf "bad coef line %S" line))
            | _ -> fail (Printf.sprintf "unrecognized line %S" line))
        in
        go lines)

(* -- atomic write + corruption simulation (mirrors Disk_cache) -- *)

let write_atomic p contents =
  let tmp = p ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp p

(* The injection point rewrites the file through a rename — a new inode
   with garbage content, never a truncate of the live file — so a
   concurrent reader still sees either the old bytes or the garbage,
   exactly like cache.corrupt.* in Disk_cache. *)
let maybe_corrupt p =
  if Sys.file_exists p && Fault.fire "cost.calib.corrupt" then
    write_atomic p "\x00corrupt"

let read_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let quarantine p reason =
  incr quarantined;
  let bad = p ^ ".bad" in
  (try Sys.rename p bad with Sys_error _ -> ());
  Printf.eprintf
    "ogb: calibration file %s is corrupt (%s); quarantined to %s, \
     falling back to uncalibrated defaults\n%!"
    p reason bad

(* -- lazy load -- *)

let load_locked () =
  match !state with
  | Some st -> st
  | None ->
    let p = path () in
    maybe_corrupt p;
    let st =
      if not (Sys.file_exists p) then { coefs = Hashtbl.create 32; gen = 0 }
      else
        match parse (read_file p) with
        | Ok st -> st
        | Error reason ->
          quarantine p reason;
          { coefs = Hashtbl.create 32; gen = 0 }
        | exception _ ->
          quarantine p "unreadable";
          { coefs = Hashtbl.create 32; gen = 0 }
    in
    state := Some st;
    st

let with_state f = Mutex.protect lock (fun () -> f (load_locked ()))

let generation () = with_state (fun st -> st.gen)
let calibrated () = with_state (fun st -> Hashtbl.length st.coefs > 0)

let ns_per_item family =
  with_state (fun st ->
      Option.map (fun c -> c.ns) (Hashtbl.find_opt st.coefs family))

let quarantines () = Mutex.protect lock (fun () -> !quarantined)

let summary () =
  with_state (fun st ->
      Hashtbl.fold (fun fam c acc -> (fam, c.ns, c.samples) :: acc) st.coefs []
      |> List.sort compare)

(* -- absorbing fresh measurements -- *)

let merge st family ~ns ~samples =
  if ns > 0.0 && samples > 0 then begin
    (match Hashtbl.find_opt st.coefs family with
    | Some c ->
      (* equal-weight blend of old and new: coefficients converge over
         repeated calibration runs without one noisy run dominating *)
      c.ns <- 0.5 *. (c.ns +. ns);
      c.samples <- c.samples + samples
    | None -> Hashtbl.replace st.coefs family { ns; samples });
    true
  end
  else false

let absorb () =
  with_state @@ fun st ->
  let updated = ref 0 in
  List.iter
    (fun (family, items, seconds, samples) ->
      if items > 0.0 then
        let ns = seconds *. 1e9 /. items in
        if merge st family ~ns ~samples then incr updated)
    (Jit.Jit_stats.kernel_times ());
  (* compile amortization: mean wall time of one fresh compile *)
  let js = Jit.Jit_stats.snapshot () in
  if js.Jit.Jit_stats.compiles > 0 then begin
    let ns =
      js.Jit.Jit_stats.compile_seconds *. 1e9
      /. float_of_int js.Jit.Jit_stats.compiles
    in
    if merge st "compile" ~ns ~samples:js.Jit.Jit_stats.compiles then
      incr updated
  end;
  !updated

let save () =
  ignore (absorb ());
  with_state @@ fun st ->
  st.gen <- st.gen + 1;
  let p = path () in
  match write_atomic p (serialize st) with
  | () -> Ok p
  | exception Sys_error e ->
    st.gen <- st.gen - 1;
    Error e

let reload () = Mutex.protect lock (fun () -> state := None)
