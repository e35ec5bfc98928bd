(* The serve request mix and its oracles.  One generator per client
   connection, seeded from the workload seed and the client index:

   - 60% [run] over every (algo, tier) pair the daemon accepts for
     bfs, pagerank and tc, on the shared read-only graph [g];
   - 30% [mxv]/[vxm] (the batcher's path) with an all-ones or a sparse
     small-integer operand, so every product is exact;
   - 10% [update] edge batches on the client's own graph [w<i>], so the
     bench-side mirror of that graph stays exact under concurrency.

   Every response is checked against references computed here from the
   same graph spec the daemon loads. *)

open Gbtl
module J = Server.Json

type kind = Run of string * string | Mxv | Vxm | Update

let run_pairs =
  [ ("bfs", "native"); ("bfs", "dsl"); ("bfs", "vm");
    ("pagerank", "native"); ("pagerank", "dsl"); ("pagerank", "nonblocking");
    ("pagerank", "vm");
    ("tc", "native"); ("tc", "dsl"); ("tc", "nonblocking"); ("tc", "vm") ]

let kinds = List.map (fun (a, t) -> Run (a, t)) run_pairs @ [ Mxv; Vxm; Update ]

let label = function
  | Run (a, t) -> a ^ "." ^ t
  | Mxv -> "mxv"
  | Vxm -> "vxm"
  | Update -> "update"

let is_write = function Update -> true | Run _ | Mxv | Vxm -> false

let graph_spec ~n ~seed = Printf.sprintf "er:n=%d,seed=%d" n seed
let write_spec ~n ~seed ~client = graph_spec ~n ~seed:(seed + 1 + client)
let write_name client = Printf.sprintf "w%d" client

let load_fp64 spec ~symmetrize =
  match Server.Graph_spec.load_fp64 spec ~symmetrize with
  | Ok m -> m
  | Error e -> failwith e

(* ---- references for the read-only graph ---- *)

type refs = {
  g : float Smatrix.t;
  bfs : (int * float) list;
  pagerank : (int * float) list * int;
  tc : float;
}

let by_index l = List.sort (fun (i, _) (j, _) -> compare i j) l

(* The daemon runs every algorithm at its library defaults from source
   vertex 0; the references do the same through the generic tier. *)
let references ~n ~seed =
  let g = load_fp64 (graph_spec ~n ~seed) ~symmetrize:true in
  let b = Smatrix.cast ~into:Dtype.Bool g in
  let ranks, iters = Algorithms.Pagerank.generic g in
  { g;
    bfs =
      List.map
        (fun (i, l) -> (i, float_of_int l))
        (by_index (Svector.to_alist (Algorithms.Bfs.generic b ~src:0)));
    pagerank = (by_index (Svector.to_alist ranks), iters);
    tc =
      float_of_int (Algos.count_triangles (Algorithms.Triangle.of_undirected b)) }

(* y = A u (mxv) or y = u A (vxm) over Plus/Times, structurally: an
   output entry exists wherever some stored product term does. *)
let product g ~which u =
  let acc = Hashtbl.create 64 in
  Smatrix.iter
    (fun i j a ->
      let src, dst = match which with `Mxv -> (j, i) | `Vxm -> (i, j) in
      match Svector.get u src with
      | None -> ()
      | Some x ->
        Hashtbl.replace acc dst
          ((a *. x) +. Option.value ~default:0.0 (Hashtbl.find_opt acc dst)))
    g;
  by_index (Hashtbl.fold (fun i x l -> (i, x) :: l) acc [])

(* ---- per-client generator and write-graph mirror ---- *)

type client = {
  index : int;
  n : int;
  rng : Graphs.Rng.t;
  edges : (int * int, unit) Hashtbl.t;  (** mirror of [w<index>] *)
  added : (int * int) Queue.t;  (** upserted keys, deleted oldest-first *)
  mutable next_id : int;
}

let client ~n ~seed ~index =
  let w = load_fp64 (write_spec ~n ~seed ~client:index) ~symmetrize:false in
  let edges = Hashtbl.create (Smatrix.nvals w) in
  Smatrix.iter (fun i j _ -> Hashtbl.replace edges (i, j) ()) w;
  { index;
    n;
    rng = Graphs.Rng.create ~seed:((seed * 7919) + index);
    edges;
    added = Queue.create ();
    next_id = index * 1_000_000 }

type expect =
  | Ranks
  | Levels
  | Triangles
  | Product of (int * float) list
  | Updated of { additions : int; deletions : int; edges : int }

type request = { id : int; kind : kind; body : J.t; expect : expect }

let num x = J.Num (float_of_int x)

let operand c =
  if Graphs.Rng.bool c.rng then
    (J.Str "ones", Svector.of_dense Dtype.FP64 (Array.make c.n 1.0))
  else
    let k = 1 + Graphs.Rng.int c.rng 32 in
    let entries =
      List.sort_uniq
        (fun (i, _) (j, _) -> compare i j)
        (List.init k (fun _ ->
             (Graphs.Rng.int c.rng c.n, float_of_int (1 + Graphs.Rng.int c.rng 9))))
    in
    ( J.Arr (List.map (fun (i, x) -> J.Arr [ num i; J.Num x ]) entries),
      Svector.of_coo Dtype.FP64 c.n entries )

(* Draw the batch and apply it to the mirror in the same order the
   registry will. *)
let update_batch c =
  let additions = ref 0 and deletions = ref 0 in
  let batch =
    List.init 8 (fun _ ->
        if Graphs.Rng.int c.rng 4 = 0 && not (Queue.is_empty c.added) then begin
          let i, j = Queue.pop c.added in
          incr deletions;
          Hashtbl.remove c.edges (i, j);
          J.Arr [ num i; num j ]
        end
        else begin
          let i = Graphs.Rng.int c.rng c.n and j = Graphs.Rng.int c.rng c.n in
          incr additions;
          Hashtbl.replace c.edges (i, j) ();
          Queue.push (i, j) c.added;
          J.Arr [ num i; num j; J.Num 1.0 ]
        end)
  in
  ( batch,
    Updated
      { additions = !additions;
        deletions = !deletions;
        edges = Hashtbl.length c.edges } )

let draw_kind c =
  let x = Graphs.Rng.int c.rng 100 in
  if x < 60 then
    let a, t = List.nth run_pairs (Graphs.Rng.int c.rng (List.length run_pairs)) in
    Run (a, t)
  else if x < 75 then Mxv
  else if x < 90 then Vxm
  else Update

(* The next request of [kind] (drawn from the mix when absent). *)
let next refs ?kind c =
  let kind = match kind with Some k -> k | None -> draw_kind c in
  c.next_id <- c.next_id + 1;
  let id = c.next_id in
  let base = [ ("id", num id) ] in
  let body, expect =
    match kind with
    | Run (algo, tier) ->
      ( base
        @ [ ("op", J.Str "run"); ("algo", J.Str algo); ("tier", J.Str tier);
            ("graph", J.Str "g"); ("top", num 0) ],
        match algo with "bfs" -> Levels | "pagerank" -> Ranks | _ -> Triangles )
    | Mxv | Vxm ->
      let wire, u = operand c in
      let which = if kind = Mxv then `Mxv else `Vxm in
      ( base
        @ [ ("op", J.Str (label kind)); ("graph", J.Str "g"); ("vector", wire) ],
        Product (product refs.g ~which u) )
    | Update ->
      let batch, expect = update_batch c in
      ( base
        @ [ ("op", J.Str "update"); ("name", J.Str (write_name c.index));
            ("edges", J.Arr batch) ],
        expect )
  in
  { id; kind; body = J.Obj body; expect }

(* ---- checking a response ---- *)

let entries resp =
  match J.member "result" resp with
  | Some (J.Arr xs) ->
    Some
      (by_index
         (List.filter_map
            (function
              | J.Arr [ J.Num i; J.Num x ] -> Some (int_of_float i, x)
              | _ -> None)
            xs))
  | _ -> None

(* [Ok ms_reported] when the response is right, [Error why] otherwise. *)
let check refs req resp =
  let status = Option.value ~default:"?" (J.str_field "status" resp) in
  let reported = Option.bind (J.member "ms" resp) J.num in
  if status <> "ok" then
    Error
      (Printf.sprintf "%s: status %s (%s)" (label req.kind) status
         (Option.value ~default:"" (J.str_field "error" resp)))
  else
    let right =
      match req.expect with
      | Levels -> entries resp = Some refs.bfs
      | Ranks ->
        let ranks, iters = refs.pagerank in
        entries resp = Some ranks
        && (match J.int_field "iters" resp with None -> true | Some k -> k = iters)
      | Triangles -> Option.bind (J.member "value" resp) J.num = Some refs.tc
      | Product expected -> entries resp = Some expected
      | Updated { additions; deletions; edges } ->
        J.int_field "additions" resp = Some additions
        && J.int_field "deletions" resp = Some deletions
        && J.int_field "edges" resp = Some edges
    in
    if right then Ok reported
    else Error (Printf.sprintf "%s: wrong answer (request %d)" (label req.kind) req.id)
