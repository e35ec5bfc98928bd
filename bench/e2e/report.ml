(* Metric definitions from BENCHMARK.json, the printed report, the
   JSON artifact, and [compare] over two directories of artifacts. *)

module J = Server.Json

type metric = { name : string; unit : string; lower_better : bool; bound : float option }

type spec = { end_to_end : metric list; per_layer : metric list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_spec path =
  let j = J.parse (read_file path) in
  let metrics key =
    match J.member key j with
    | Some (J.Arr xs) ->
      List.map
        (fun m ->
          match (J.str_field "name" m, J.str_field "unit" m) with
          | Some name, Some unit ->
            { name;
              unit;
              lower_better = J.str_field "better" m <> Some "higher";
              bound = Option.bind (J.member "bound" m) J.num }
          | _ -> failwith (path ^ ": metric without name or unit"))
        xs
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

(* Print [metric <name> <value> <unit>] for every metric the spec lists
   for this mode and return them as the result's "metrics" object;
   [Error] names any the run did not produce. *)
let select (defs : metric list) values =
  let missing =
    List.filter
      (fun d ->
        match List.assoc_opt d.name values with
        | Some v -> not (Float.is_finite v)
        | None -> true)
      defs
  in
  if missing <> [] then
    Error (String.concat ", " (List.map (fun d -> d.name) missing))
  else begin
    List.iter
      (fun d -> Printf.printf "metric %s %.17g %s\n" d.name (List.assoc d.name values) d.unit)
      defs;
    Ok
      (J.Obj
         (List.map
            (fun d ->
              ( d.name,
                J.Obj
                  [ ("value", J.Num (List.assoc d.name values)); ("unit", J.Str d.unit) ] ))
            defs))
  end

let timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* ---- compare ---- *)

let artifacts dir =
  List.filter_map
    (fun f ->
      if String.starts_with ~prefix:"e2e-run-" f && Filename.check_suffix f ".json" then
        let j = J.parse (read_file (Filename.concat dir f)) in
        if J.bool_field "trace" j then None else Some j
      else None)
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let values_of runs ~workload ~metric =
  List.filter_map
    (fun j ->
      if J.str_field "workload" j = Some workload then
        Option.bind (J.member "metrics" j) (fun m -> Option.bind (J.member metric m) J.num)
      else None)
    runs

(* Verdict for B against A under [bound] (a share of A's median). *)
let verdict (d : metric) a b =
  let bound = Option.value ~default:0.1 d.bound in
  let sa = Stats.summarize a and sb = Stats.summarize b in
  let spread s = (s.Stats.q3 -. s.Stats.q1) /. Float.abs s.Stats.median in
  let worse x y = if d.lower_better then x > y else x < y in
  (* positive: B worse than A, as a share of A's median *)
  let change =
    (if d.lower_better then sb.Stats.median -. sa.Stats.median
     else sa.Stats.median -. sb.Stats.median)
    /. Float.abs sa.Stats.median
  in
  let all_better = List.for_all (fun x -> List.for_all (fun y -> worse y x) a) b in
  let all_worse = List.for_all (fun x -> List.for_all (fun y -> worse x y) a) b in
  if spread sa > bound || spread sb > bound then
    if all_better then "better" else if all_worse then "worse" else "unresolved"
  else if change > bound then "worse"
  else if change < -.bound then "better"
  else "unchanged"

let compare ~spec dir_a dir_b =
  let a = artifacts dir_a and b = artifacts dir_b in
  let workloads =
    List.sort_uniq compare (List.filter_map (J.str_field "workload") (a @ b))
  in
  let pp s =
    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" s.Stats.median s.Stats.q1 s.Stats.q3 s.Stats.n
  in
  Printf.printf "%-16s %-12s %-34s %-34s %s\n" "metric" "workload" ("A " ^ dir_a)
    ("B " ^ dir_b) "verdict";
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (d : metric) ->
      List.iter
        (fun workload ->
          let va = values_of a ~workload ~metric:d.name in
          let vb = values_of b ~workload ~metric:d.name in
          if va <> [] && vb <> [] then begin
            let v = verdict d va vb in
            Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v));
            Printf.printf "%-16s %-12s %-34s %-34s %s\n" d.name workload
              (pp (Stats.summarize va)) (pp (Stats.summarize vb)) v
          end)
        workloads)
    spec.end_to_end;
  Printf.printf "summary: %s\n"
    (String.concat ", "
       (List.map
          (fun v ->
            Printf.sprintf "%s %d" v (Option.value ~default:0 (Hashtbl.find_opt counts v)))
          [ "better"; "unchanged"; "worse"; "unresolved" ]));
  if Hashtbl.mem counts "worse" then 1 else 0
