(* End-to-end benchmark harness.

     main.exe --workload NAME --seed N [--seconds S] [--trace [0|1]]
              [--out DIR] [--spec BENCHMARK.json] [--ogb-cli PATH]
     main.exe compare DIR_A DIR_B [--spec BENCHMARK.json]
     main.exe smoke [--spec ...] [--ogb-cli ...] [--out DIR]

   A run prints [metric <name> <value> <unit>] for every metric
   BENCHMARK.json lists (end_to_end, or per_layer with --trace), writes
   the JSON artifact e2e-run-*.json (and, traced, e2e-trace-<workload>.json
   with the spans) under --out, and ends with one JSON result line.  It
   exits 1 when any operation failed or returned a wrong answer. *)

module J = Server.Json

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string;
  spec : string;
  ogb_cli : string;
  smoke : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N [--seconds S] [--trace [0|1]] [--out DIR]\n\
    \                [--spec FILE] [--ogb-cli PATH]\n\
    \       main.exe compare DIR_A DIR_B [--spec FILE]\n\
    \       main.exe smoke [--spec FILE] [--ogb-cli PATH] [--out DIR]";
  exit 2

let rec parse o = function
  | [] -> o
  | "--workload" :: v :: r -> parse { o with workload = v } r
  | "--seed" :: v :: r -> parse { o with seed = int_of_string v } r
  | "--seconds" :: v :: r -> parse { o with seconds = float_of_string v } r
  | "--trace" :: ("0" | "1" as v) :: r -> parse { o with trace = v = "1" } r
  | "--trace" :: r -> parse { o with trace = true } r
  | "--out" :: v :: r -> parse { o with out = v } r
  | "--spec" :: v :: r -> parse { o with spec = v } r
  | "--ogb-cli" :: v :: r -> parse { o with ogb_cli = v } r
  | a :: _ ->
    Printf.eprintf "unknown argument %S\n" a;
    usage ()

let defaults =
  { workload = "";
    seed = 1;
    seconds = 15.0;
    trace = false;
    out = "bench/results";
    spec = "BENCHMARK.json";
    ogb_cli = "_build/default/bin/ogb_cli.exe";
    smoke = false }

let workloads = List.map (fun w -> w.Inproc.name) Inproc.all @ [ "serve_mixed" ]

(* One run; returns whether it passed (every operation right, every
   listed metric produced). *)
let run (spec : Report.spec) o =
  Span.recorded := [];
  let tally, values, detail =
    if o.workload = "serve_mixed" then
      Serve.run ~ogb_cli:o.ogb_cli ~out:o.out ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
        ~smoke:o.smoke
    else
      match List.find_opt (fun w -> w.Inproc.name = o.workload) Inproc.all with
      | Some wl -> Inproc.run wl ~seed:o.seed ~seconds:o.seconds ~trace:o.trace ~smoke:o.smoke
      | None ->
        Printf.eprintf "unknown workload %S (one of %s)\n" o.workload
          (String.concat ", " workloads);
        exit 2
  in
  List.iter (Printf.eprintf "failed: %s\n") (List.rev tally.Book.errors);
  let defs = if o.trace then spec.Report.per_layer else spec.Report.end_to_end in
  match Report.select defs values with
  | Error missing ->
    Printf.eprintf "%s: metrics not produced: %s\n" o.workload missing;
    false
  | Ok metrics ->
    let stamp = Report.timestamp () in
    let artifact =
      J.Obj
        ([ ("workload", J.Str o.workload);
           ("seed", Num (float_of_int o.seed));
           ("trace", Bool o.trace);
           ("seconds", Num o.seconds);
           ("smoke", Bool o.smoke);
           ("cores", Num (float_of_int (Domain.recommended_domain_count ())));
           ("timestamp", Str stamp);
           ("attempted", Num (float_of_int tally.Book.attempted));
           ("failed", Num (float_of_int tally.Book.failed));
           ("errors", Arr (List.map (fun e -> J.Str e) tally.Book.errors));
           ("metrics", Obj (List.map (fun (k, v) -> (k, J.Num v)) values)) ]
        @ detail)
    in
    Report.write_file
      (Filename.concat o.out
         (Printf.sprintf "e2e-run-%s-seed%d-trace%d-%s-%d.json" o.workload o.seed
            (Bool.to_int o.trace) stamp (Unix.getpid ())))
      (J.to_string artifact ^ "\n");
    if o.trace then
      Report.write_file
        (Filename.concat o.out (Printf.sprintf "e2e-trace-%s.json" o.workload))
        (J.to_string
           (J.Obj [ ("workload", J.Str o.workload); ("spans", Span.to_json (Span.all ())) ])
        ^ "\n");
    let ok = tally.Book.failed = 0 in
    print_endline
      (J.to_string
         (J.Obj
            [ ("correct", J.Bool ok);
              ("attempted", Num (float_of_int tally.Book.attempted));
              ("failed", Num (float_of_int tally.Book.failed));
              ("metrics", metrics) ]));
    ok

let setup o =
  Report.mkdir_p o.out;
  Jitenv.init (Filename.concat o.out (Printf.sprintf "e2e-jit-%d" (Unix.getpid ())));
  (* every plan runs under the analyzer, as in the daemon *)
  Analysis.Hook.install ();
  Report.load_spec o.spec

(* Run [f] with standard output sent to /dev/null. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Unix.close null;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* Every workload at toy sizes, untraced and traced: each must finish
   with no failed operation and every metric BENCHMARK.json lists. *)
let smoke o =
  let o = { o with smoke = true; seconds = 0.2; out = Filename.concat o.out "e2e-smoke" } in
  Jitenv.shared := true;
  let spec = setup o in
  let ok =
    List.for_all Fun.id
      (List.concat_map
         (fun workload ->
           List.map
             (fun trace ->
               let ok = quietly (fun () -> run spec { o with workload; trace }) in
               Printf.printf "smoke: %s trace=%d %s\n%!" workload (Bool.to_int trace)
                 (if ok then "ok" else "FAILED");
               ok)
             [ false; true ])
         workloads)
  in
  Jitenv.remove_tree o.out;
  if ok then print_endline "smoke: ok" else prerr_endline "smoke: FAILED";
  exit (if ok then 0 else 1)

let () =
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 1));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 1));
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: a :: b :: rest ->
    let o = parse defaults rest in
    exit (Report.compare ~spec:(Report.load_spec o.spec) a b)
  | "smoke" :: rest -> smoke (parse defaults rest)
  | args ->
    let o = parse defaults args in
    if o.workload = "" then usage ();
    let spec = setup o in
    exit (if run spec o then 0 else 1)
