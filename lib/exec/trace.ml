type node_event = { id : int; label : string; seconds : float; nvals : int }

type t = {
  total_seconds : float;
  nodes : node_event list;
  rewrites : (string * int) list;
  cse_merged : int;
  schedule : string;
  lookups : int;
  cache_hits : int;
  compiles : int;
}

let make ~total_seconds ~nodes ~rewrites ~cse_merged ~schedule ~before
    ~after =
  let d f = f after - f before in
  { total_seconds;
    nodes = List.sort (fun a b -> compare a.id b.id) nodes;
    rewrites;
    cse_merged;
    schedule;
    lookups = d (fun (s : Jit.Jit_stats.snapshot) -> s.lookups);
    cache_hits =
      d (fun (s : Jit.Jit_stats.snapshot) -> s.memory_hits + s.disk_hits);
    compiles = d (fun (s : Jit.Jit_stats.snapshot) -> s.compiles) }

let pp fmt t =
  Format.fprintf fmt "execution: %d node%s in %.6fs@\n"
    (List.length t.nodes)
    (if List.length t.nodes = 1 then "" else "s")
    t.total_seconds;
  Format.fprintf fmt "kernel cache: %d lookups, %d hits, %d compiles@\n"
    t.lookups t.cache_hits t.compiles;
  if t.schedule <> "" then
    Format.fprintf fmt "schedule: %s (measured %.3fms)@\n" t.schedule
      (t.total_seconds *. 1e3);
  (match t.rewrites with
  | [] -> ()
  | rs ->
    Format.fprintf fmt "rewrites:";
    List.iter (fun (name, n) -> Format.fprintf fmt " %s=%d" name n) rs;
    Format.fprintf fmt "@\n");
  List.iter
    (fun e ->
      Format.fprintf fmt "  n%-3d %-40s %.6fs  nvals=%d@\n" e.id e.label
        e.seconds e.nvals)
    t.nodes

let to_string t = Format.asprintf "%a" pp t
