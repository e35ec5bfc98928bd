(* Bookkeeping shared by the workloads: operations attempted and
   failed, latency samples per operation kind, and the metrics derived
   from them.  A kind is labelled "<algo>.<tier>" for algorithm runs
   (bfs.vm, pagerank.native, ...), or by the request op (mxv, update). *)

type t = {
  lock : Mutex.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failures, for the log *)
  samples : (string, float list) Hashtbl.t;
}

let create () =
  { lock = Mutex.create ();
    attempted = 0;
    failed = 0;
    errors = [];
    samples = Hashtbl.create 64 }

let attempt b = Mutex.protect b.lock (fun () -> b.attempted <- b.attempted + 1)

let fail b why =
  Mutex.protect b.lock (fun () ->
      b.failed <- b.failed + 1;
      if List.length b.errors < 10 then b.errors <- why :: b.errors)

let add b label ms =
  Mutex.protect b.lock (fun () ->
      Hashtbl.replace b.samples label
        (ms :: Option.value ~default:[] (Hashtbl.find_opt b.samples label)))

let samples b label = Option.value ~default:[] (Hashtbl.find_opt b.samples label)

let labels b =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) b.samples [])

let median b label = Stats.median (samples b label)

(* Split "<algo>.<tier>"; request kinds without a tier give [None]. *)
let algo_tier label =
  match String.rindex_opt label '.' with
  | Some i ->
    Some (String.sub label 0 i, String.sub label (i + 1) (String.length label - i - 1))
  | None -> None

let algos b =
  List.sort_uniq compare (List.filter_map (fun l -> Option.map fst (algo_tier l)) (labels b))

let tier_median b ~algo ~tier =
  match samples b (algo ^ "." ^ tier) with [] -> None | xs -> Some (Stats.median xs)

(* Geometric mean over the workload's algorithms of the median latency
   at [tier]. *)
let tier_ms b tier =
  Stats.geomean (List.filter_map (fun algo -> tier_median b ~algo ~tier) (algos b))

(* Geometric mean over every kind of its median latency. *)
let op_ms b = Stats.geomean (List.map (median b) (labels b))

(* Sum over algorithms run at both tiers of (median at [upper] - median
   at [lower]): the time the layers between the two tiers add. *)
let self_ms b ~upper ~lower =
  Stats.sum
    (List.filter_map
       (fun algo ->
         match (tier_median b ~algo ~tier:upper, tier_median b ~algo ~tier:lower) with
         | Some u, Some l -> Some (u -. l)
         | _ -> None)
       (algos b))

let tier_sum b tier =
  Stats.sum (List.filter_map (fun algo -> tier_median b ~algo ~tier) (algos b))

let ratio b ~upper ~lower =
  Stats.geomean
    (List.filter_map
       (fun algo ->
         match (tier_median b ~algo ~tier:upper, tier_median b ~algo ~tier:lower) with
         | Some u, Some l when l > 0.0 -> Some (u /. l)
         | _ -> None)
       (algos b))

(* The tier metrics every workload reports. *)
let tier_metrics b =
  [ ("vm_ms", tier_ms b "vm");
    ("dsl_ms", tier_ms b "dsl");
    ("nonblocking_ms", tier_ms b "nonblocking");
    ("native_ms", tier_ms b "native");
    ("op_ms", op_ms b) ]

(* The layer split the traced run reports. *)
let layer_metrics b =
  [ ("minivm.self_ms", self_ms b ~upper:"vm" ~lower:"dsl");
    ("core.self_ms", self_ms b ~upper:"dsl" ~lower:"native");
    ("exec.self_ms", self_ms b ~upper:"nonblocking" ~lower:"dsl");
    ("kernel.native_ms", tier_sum b "native");
    ("penalty.vm_over_native", ratio b ~upper:"vm" ~lower:"native");
    ("penalty.dsl_over_native", ratio b ~upper:"dsl" ~lower:"native") ]

(* Median, quartiles and sample count of a series, for the artifact. *)
let summary_json xs =
  let s = Stats.summarize xs in
  Server.Json.Obj
    [ ("median", Num s.Stats.median); ("q1", Num s.Stats.q1); ("q3", Num s.Stats.q3);
      ("n", Num (float_of_int s.Stats.n)) ]

let kinds_json b =
  Server.Json.Obj (List.map (fun label -> (label, summary_json (samples b label))) (labels b))

(* Per-algorithm layer table of a traced run: tier medians and the
   differences between adjacent tiers, in ms. *)
let print_layer_table b =
  let tiers = [ "vm"; "dsl"; "nonblocking"; "native" ] in
  let cell = function
    | Some x -> Printf.sprintf "%10.3f" x
    | None -> Printf.sprintf "%10s" "-"
  in
  let diff a c = match (a, c) with Some x, Some y -> Some (x -. y) | _ -> None in
  Printf.printf "%-10s %s | %10s %10s %10s %10s\n" "algo"
    (String.concat " " (List.map (Printf.sprintf "%10s") tiers))
    "minivm" "core" "exec" "kernel";
  List.iter
    (fun algo ->
      let m tier = tier_median b ~algo ~tier in
      Printf.printf "%-10s %s | %s %s %s %s\n" algo
        (String.concat " " (List.map (fun t -> cell (m t)) tiers))
        (cell (diff (m "vm") (m "dsl")))
        (cell (diff (m "dsl") (m "native")))
        (cell (diff (m "nonblocking") (m "dsl")))
        (cell (m "native")))
    (algos b)
