(* Trend tracking over the per-workload bench artifacts: fold every
   timestamped bench/results/<workload>-<ts>.json into one cumulative
   BENCH_history.json holding per-workload, per-metric time series.

   The file is merged, not rebuilt: CI restores the previous history
   from its cache, this module appends the runs it has not seen (keyed
   on workload + timestamp), and the decay check then looks at the
   resulting series — so a trend survives even though each CI job only
   ever sees its own fresh artifacts.

   Decay gate: a single slow run is noise, but a headline speedup that
   has dropped strictly on each of the last [window] runs is a trend;
   [check_decay] fails on such monotonic decay per workload. *)

let history_file = "BENCH_history.json"
let decay_window = 3

(* workload -> metric -> (timestamp, value) series, timestamp-sorted *)
type series = (string * (string * (string * float) list) list) list

module J = Server.Json

(* booleans (the [agree] flags) become 0/1 series *)
let to_num = function
  | J.Num f -> Some f
  | J.Bool b -> Some (if b then 1.0 else 0.0)
  | _ -> None

let parse_file path =
  let ic = open_in_bin path in
  J.parse
    (Fun.protect
       ~finally:(fun () -> close_in_noerr ic)
       (fun () -> really_input_string ic (in_channel_length ic)))

let metric_of_leaf (k, v) =
  match to_num v with
  | Some f when k <> "cores" && k <> "reps" -> Some (k, f)
  | _ -> None

(* ---- loading ---- *)

let load_history path : series =
  if not (Sys.file_exists path) then []
  else
    match parse_file path with
    | J.Obj kvs -> (
      match List.assoc_opt "workloads" kvs with
      | Some (J.Obj workloads) ->
        List.map
          (fun (wl, metrics) ->
            let metrics =
              match metrics with
              | J.Obj ms ->
                List.map
                  (fun (metric, points) ->
                    let pts =
                      match points with
                      | J.Arr ps ->
                        List.filter_map
                          (fun p ->
                            match
                              ( Option.bind (J.member "ts" p) J.str,
                                Option.bind (J.member "value" p) to_num )
                            with
                            | Some ts, Some v -> Some (ts, v)
                            | _ -> None)
                          ps
                      | _ -> []
                    in
                    (metric, pts))
                  ms
              | _ -> []
            in
            (wl, metrics))
          workloads
      | _ -> [])
    | _ -> []
    | exception J.Parse_error _ -> []

(* A timestamped result artifact: <workload>-YYYYmmdd-HHMMSS.json.
   The -latest aliases are duplicates of the newest stamped file and
   are skipped. *)
let stamped_artifact fname =
  if not (Filename.check_suffix fname ".json") then None
  else
    let base = Filename.chop_suffix fname ".json" in
    if Filename.check_suffix base "-latest" then None
    else
      (* split at the -YYYYmmdd-HHMMSS suffix: two dash-separated
         numeric groups of 8 and 6 digits *)
      let l = String.length base in
      if l < 16 then None
      else
        let ts = String.sub base (l - 15) 15 in
        let numeric s =
          String.for_all (function '0' .. '9' -> true | _ -> false) s
        in
        if
          ts.[8] = '-'
          && numeric (String.sub ts 0 8)
          && numeric (String.sub ts 9 6)
          && base.[l - 16] = '-'
        then Some (String.sub base 0 (l - 16), ts)
        else None

let scan_results dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.filter_map (fun fname ->
           match stamped_artifact fname with
           | Some (wl, ts) -> Some (wl, ts, Filename.concat dir fname)
           | None -> None)

(* ---- merging ---- *)

let add_point history ~workload ~metric ~ts ~value =
  let upsert_metric metrics =
    let pts = Option.value ~default:[] (List.assoc_opt metric metrics) in
    if List.mem_assoc ts pts then metrics
    else
      (metric, List.sort compare ((ts, value) :: pts))
      :: List.remove_assoc metric metrics
  in
  let metrics = Option.value ~default:[] (List.assoc_opt workload history) in
  (workload, upsert_metric metrics) :: List.remove_assoc workload history

let fold_results ~results_dir history : series * int =
  let fresh = ref 0 in
  let history =
    List.fold_left
      (fun hist (workload, ts, path) ->
        match parse_file path with
        | J.Obj kvs ->
          let seen =
            match List.assoc_opt workload hist with
            | Some metrics -> (
              match List.assoc_opt "speedup" metrics with
              | Some pts -> List.mem_assoc ts pts
              | None -> false)
            | None -> false
          in
          if seen then hist
          else begin
            incr fresh;
            List.fold_left
              (fun hist leaf ->
                match metric_of_leaf leaf with
                | Some (metric, value) ->
                  add_point hist ~workload ~metric ~ts ~value
                | None -> hist)
              hist kvs
          end
        | _ | (exception J.Parse_error _) ->
          Printf.eprintf "history: skipping unreadable %s\n" path;
          hist)
      history (scan_results results_dir)
  in
  (List.sort compare history, !fresh)

(* ---- writing ---- *)

let to_json (history : series) =
  let open Bench_core in
  let runs =
    List.fold_left
      (fun acc (_, metrics) ->
        match List.assoc_opt "speedup" metrics with
        | Some pts -> max acc (List.length pts)
        | None -> acc)
      0 history
  in
  Obj
    [ ("runs", Int runs);
      ( "workloads",
        Obj
          (List.map
             (fun (wl, metrics) ->
               ( wl,
                 Obj
                   (List.map
                      (fun (metric, pts) ->
                        ( metric,
                          Arr
                            (List.map
                               (fun (ts, v) ->
                                 Obj [ ("ts", Str ts); ("value", Num v) ])
                               pts) ))
                      (List.sort compare metrics)) ))
             history) ) ]

let save path history =
  Bench_core.write_file path (Bench_core.to_string (to_json history))

(* ---- the decay gate ---- *)

(* Strictly-decreasing headline speedup over the last [decay_window]
   runs: every step down, no recovery.  Returns the offending
   workloads with their recent series. *)
let decaying (history : series) =
  List.filter_map
    (fun (wl, metrics) ->
      match List.assoc_opt "speedup" metrics with
      | Some pts when List.length pts >= decay_window ->
        let recent =
          let skip = List.length pts - decay_window in
          List.filteri (fun i _ -> i >= skip) pts
        in
        let values = List.map snd recent in
        let rec strictly_down = function
          | a :: (b :: _ as rest) -> b < a && strictly_down rest
          | _ -> true
        in
        if strictly_down values then Some (wl, recent) else None
      | _ -> None)
    history

(* ---- reporting (shared with `ogb analyze`) ---- *)

let print_summary ?(out = stdout) (history : series) =
  if history = [] then
    Printf.fprintf out "bench history: no runs recorded yet\n"
  else begin
    Printf.fprintf out "bench history (%s):\n" history_file;
    List.iter
      (fun (wl, metrics) ->
        match List.assoc_opt "speedup" metrics with
        | Some pts ->
          let recent =
            let l = List.length pts in
            List.filteri (fun i _ -> i >= l - 5) pts
          in
          Printf.fprintf out "  %-12s %d run(s), speedup trail: %s\n" wl
            (List.length pts)
            (String.concat " -> "
               (List.map (fun (_, v) -> Printf.sprintf "%.2fx" v) recent))
        | None -> Printf.fprintf out "  %-12s (no speedup series)\n" wl)
      history
  end
