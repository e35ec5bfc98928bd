(* Perf-regression gate over the BENCH_*.json artifacts.

     dune exec bench/check_regress.exe -- BENCH_warmup.json ...
       [--baseline-dir bench/baselines] [--tolerance 0.15]
       [--allow-missing] [--update-baselines]

   Each fresh artifact is compared leaf-by-leaf against the committed
   baseline of the same name.  Gating rules:

   - boolean leaves (correctness flags like [agree]) must not regress
     from [true] to [false];
   - relative metrics (any path containing "speedup") must stay within
     [tolerance] of the baseline: fresh >= base * (1 - tolerance).
     Ratios are machine-portable, so these gate by default;
   - absolute times (paths containing "ms") are not gated: they shift
     with the runner, and bench/e2e's paired compare owns timings;
   - every other numeric leaf (sizes, counters, core counts) is
     context, not a metric, and is ignored;
   - a metric leaf (boolean, or a "speedup"/"ms" path) present in the
     fresh artifact but absent from the baseline is a failure: a new
     metric must ship with its reference, or the gate would silently
     never cover it.  [--allow-missing] is the explicit escape hatch
     for the run that introduces the metric;
   - speedup gates are skipped — loudly, not silently passed — when
     the fresh artifact records fewer than 2 cores: parallel-vs-serial
     ratios on a single-core runner measure scheduling noise.

   [--update-baselines] rewrites the baselines from the fresh artifacts
   instead of checking (commit the result).  A missing baseline is an
   error without it: the gate must never silently pass because nobody
   committed a reference. *)

(* Artifacts are read with the wire protocol's JSON codec. *)
module J = Server.Json

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ---- flatten to (dotted path, leaf) pairs ---- *)

type leaf = L_num of float | L_bool of bool

let flatten json =
  let acc = ref [] in
  let rec go path = function
    | J.Null | J.Str _ -> ()
    | J.Bool b -> acc := (path, L_bool b) :: !acc
    | J.Num f -> acc := (path, L_num f) :: !acc
    | J.Arr xs ->
      List.iteri (fun i x -> go (Printf.sprintf "%s.%d" path i) x) xs
    | J.Obj kvs ->
      List.iter
        (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v)
        kvs
  in
  go "" json;
  List.rev !acc

let contains_sub hay needle =
  let hn = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= hn && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* ---- the gate ---- *)

type verdict = Pass | Fail of string

let check_leaf ~tolerance ~gate_speedups path base fresh =
  match (base, fresh) with
  | L_bool true, L_bool false ->
    Fail (Printf.sprintf "%s: regressed true -> false" path)
  | L_bool _, L_bool _ -> Pass
  | L_num b, L_num f when gate_speedups && contains_sub path "speedup" ->
    let floor_ = b *. (1.0 -. tolerance) in
    if f >= floor_ then Pass
    else
      Fail
        (Printf.sprintf "%s: %.3f below baseline %.3f (tolerance %.0f%%)"
           path f b (100.0 *. tolerance))
  | _ -> Pass

(* A leaf the gate would actually compare: correctness flags and the
   speedup/ms metric paths.  Context numerics (sizes, counters, core
   counts) are exempt from baseline-coverage checking. *)
let is_metric path = function
  | L_bool _ -> true
  | L_num _ -> contains_sub path "speedup" || contains_sub path "ms"

(* The "cores" leaf every artifact records: below 2 cores a
   parallel-vs-serial ratio is scheduling noise, so speedup gates are
   skipped with a loud notice. *)
let recorded_cores fresh =
  List.fold_left
    (fun acc (path, leaf) ->
      match leaf with
      | L_num c when path = "cores" || Filename.check_suffix path ".cores" ->
        Some (match acc with Some a -> Float.min a c | None -> c)
      | _ -> acc)
    None fresh

let check_artifact ~tolerance ~allow_missing ~baseline_path
    ~fresh_path =
  let base = flatten (J.parse (read_file baseline_path)) in
  let fresh = flatten (J.parse (read_file fresh_path)) in
  let gate_speedups =
    match recorded_cores fresh with
    | Some c when c < 2.0 ->
      Printf.printf
        "NOTICE %s: runner records %.0f core(s); speedup gates skipped \
         (correctness flags still active)\n"
        fresh_path c;
      false
    | _ -> true
  in
  let failures = ref [] in
  let checked = ref 0 in
  List.iter
    (fun (path, b) ->
      match List.assoc_opt path fresh with
      | None ->
        failures :=
          Printf.sprintf "%s: present in baseline, missing in fresh run" path
          :: !failures
      | Some f -> (
        incr checked;
        match check_leaf ~tolerance ~gate_speedups path b f with
        | Pass -> ()
        | Fail msg -> failures := msg :: !failures))
    base;
  (* the reverse direction: a gated metric with no committed reference
     would otherwise never be compared, silently, forever *)
  List.iter
    (fun (path, f) ->
      if is_metric path f && not (List.mem_assoc path base) then
        if allow_missing then
          Printf.printf
            "NOTICE %s: metric %s has no baseline leaf (allowed by \
             --allow-missing; refresh the baseline to start gating it)\n"
            fresh_path path
        else
          failures :=
            Printf.sprintf
              "%s: metric present in fresh run but missing from baseline \
               (refresh with --update-baselines, or pass --allow-missing)"
              path
            :: !failures)
    fresh;
  (!checked, List.rev !failures)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | a :: v :: _ when a = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let tolerance =
    match opt "--tolerance" args with
    | Some v -> float_of_string v
    | None -> 0.15
  in
  let baseline_dir =
    Option.value ~default:"bench/baselines" (opt "--baseline-dir" args)
  in
  let allow_missing = List.mem "--allow-missing" args in
  let update = List.mem "--update-baselines" args in
  let files =
    List.filter
      (fun a ->
        Filename.check_suffix a ".json"
        && not (String.length a > 1 && a.[0] = '-'))
      (List.tl args)
  in
  if files = [] then begin
    prerr_endline
      "usage: check_regress [--baseline-dir DIR] [--tolerance F] \
       [--allow-missing] [--update-baselines] BENCH_x.json ...";
    exit 2
  end;
  let failed = ref false in
  List.iter
    (fun fresh_path ->
      let baseline_path =
        Filename.concat baseline_dir (Filename.basename fresh_path)
      in
      if update then begin
        (* refresh the committed reference from this run *)
        let data = read_file fresh_path in
        ignore (J.parse data);
        let oc = open_out_bin baseline_path in
        output_string oc data;
        close_out oc;
        Printf.printf "updated %s\n" baseline_path
      end
      else if not (Sys.file_exists baseline_path) then begin
        Printf.printf
          "FAIL %s: no baseline at %s (run with --update-baselines and \
           commit it)\n"
          fresh_path baseline_path;
        failed := true
      end
      else begin
        match
          check_artifact ~tolerance ~allow_missing ~baseline_path
            ~fresh_path
        with
        | checked, [] ->
          Printf.printf "ok   %s: %d leaves within %.0f%% of %s\n" fresh_path
            checked (100.0 *. tolerance) baseline_path
        | _, failures ->
          Printf.printf "FAIL %s vs %s:\n" fresh_path baseline_path;
          List.iter (fun m -> Printf.printf "  - %s\n" m) failures;
          failed := true
        | exception J.Parse_error msg ->
          Printf.printf "FAIL %s: %s\n" fresh_path msg;
          failed := true
      end)
    files;
  if !failed then exit 1
