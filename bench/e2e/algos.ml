(* The eight tier-1 algorithms at the four execution tiers, each with an
   output oracle.  Every tier call is split in two: the timed part runs
   the algorithm and returns a decoder, and the untimed decoder turns the
   raw result into a canonical [outcome] the oracle can compare.

   Oracles: bfs, sssp and pagerank are checked against their library
   [generic] tier (closure-parameterized GBTL, independent of the JIT
   kernels); triangle against a plain sorted-adjacency count in this
   file; cc, labelprop, ktruss and bc against their native tier. *)

open Gbtl
module C = Ogb.Container
module A = Algorithms

type tier = Vm | Dsl | Nonblocking | Native

let tiers = [ Vm; Dsl; Nonblocking; Native ]

let tier_name = function
  | Vm -> "vm"
  | Dsl -> "dsl"
  | Nonblocking -> "nonblocking"
  | Native -> "native"

type value =
  | Ints of (int * int) list  (** bfs levels, cc / labelprop labels *)
  | Floats of (int * float) list  (** sssp distances, ranks, centrality *)
  | Scalar of float  (** triangle count *)
  | Pairs of (int * int) list  (** k-truss edges *)

type outcome = { value : value; iters : int option }

(* PageRank runs at a fixed convergence threshold: at the library default
   (1e-5) an ER graph converges after one iteration and the workload
   would time the set-up of the loop, not the loop. *)
let pagerank_threshold = 1e-12

let ktruss_k = 3
let src = 0

(* Every tier must match its oracle exactly, floats included: the tiers
   are bit-identical on these inputs. *)
let agrees got ~reference =
  got.value = reference.value
  &&
  match (got.iters, reference.iters) with
  | Some a, Some b -> a = b
  | _ -> true

(* ---- canonical decoders ---- *)

let by_index l = List.sort (fun (i, _) (j, _) -> compare i j) l
let ints_of_svector sv = Ints (by_index (Svector.to_alist sv))
let floats_of_svector sv = Floats (by_index (Svector.to_alist sv))

let ints_of_container c =
  Ints (by_index (List.map (fun (i, x) -> (i, int_of_float x)) (C.vector_entries c)))

let floats_of_container c = Floats (by_index (C.vector_entries c))

let pairs_of_container c =
  Pairs (List.sort compare (List.map (fun (i, j, _) -> (i, j)) (C.matrix_entries c)))

let pairs_of_smatrix m =
  Pairs (List.sort compare (List.map (fun (i, j, _) -> (i, j)) (Smatrix.to_coo m)))

let plain value = { value; iters = None }

(* ---- input graphs ---- *)

(* One workload graph in every form the algorithms take.  Built from a
   [Server.Graph_spec] string, so the serve workload's daemon and this
   bench generate the very same graph from the same spec. *)
type graph = {
  spec : string;
  n : int;
  nnz : int;  (** stored entries of the directed adjacency *)
  dir_bool : bool Smatrix.t;
  dir_fp64 : float Smatrix.t;
  weighted : float Smatrix.t;
  sym_bool : bool Smatrix.t;
  lower : int Smatrix.t;
}

(* Deterministic integer weights 1..9 for sssp, so shortest distances
   are exact in floating point on every tier. *)
let weight i j = float_of_int (1 + ((((i * 7919) + (j * 104729)) land 0xffff) mod 9))

let graph spec =
  let edges =
    match Server.Graph_spec.parse spec with
    | `Edges g -> g
    | `File _ | `Error _ -> invalid_arg ("graph spec " ^ spec)
  in
  (* RMAT emits self-loops and repeats; k-truss and bc need loop-free
     input, so every workload drops loops up front *)
  let g =
    { edges with
      Graphs.Edge_list.edges =
        List.filter (fun (s, d, _) -> s <> d) edges.Graphs.Edge_list.edges }
  in
  let dir_bool = Graphs.Convert.bool_adjacency g in
  let sym_bool = Graphs.Convert.bool_adjacency (Graphs.Edge_list.symmetrize g) in
  { spec;
    n = g.Graphs.Edge_list.nvertices;
    nnz = Smatrix.nvals dir_bool;
    dir_bool;
    dir_fp64 = Graphs.Convert.matrix_of_edges Dtype.FP64 g;
    weighted =
      Graphs.Convert.matrix_of_edges Dtype.FP64
        (Graphs.Edge_list.map_weights (fun i j _ -> weight i j) g);
    sym_bool;
    lower = A.Triangle.of_undirected sym_bool }

(* Independent triangle count: for every strictly-lower edge (i, j),
   intersect the sorted lower neighbourhoods of i and j. *)
let count_triangles lower =
  let n = Smatrix.nrows lower in
  let rows =
    Array.init n (fun i ->
        let a = Array.of_list (Smatrix.fold_row (fun acc j _ -> j :: acc) [] lower i) in
        Array.sort compare a;
        a)
  in
  let count = ref 0 in
  for i = 0 to n - 1 do
    Array.iter
      (fun j ->
        let a = rows.(i) and b = rows.(j) in
        let p = ref 0 and q = ref 0 in
        while !p < Array.length a && !q < Array.length b do
          let x = a.(!p) and y = b.(!q) in
          if x = y then (incr count; incr p; incr q)
          else if x < y then incr p
          else incr q
        done)
      rows.(i)
  done;
  !count

(* ---- the algorithms ---- *)

type algo = {
  name : string;
  run : tier -> unit -> unit -> outcome;
      (** [run tier ()] executes (the part to time) and returns the
          decoder *)
  reference : outcome Lazy.t;
}

let names =
  [ "bfs"; "sssp"; "pagerank"; "triangle"; "cc"; "labelprop"; "ktruss"; "bc" ]

let make g name =
  let threshold = pagerank_threshold in
  match name with
  | "bfs" ->
    let c = C.of_smatrix g.dir_bool in
    { name;
      reference =
        lazy (plain (ints_of_svector (A.Bfs.generic g.dir_bool ~src)));
      run =
        (fun tier () ->
          let dec c () = plain (ints_of_container c) in
          match tier with
          | Vm -> dec (A.Bfs.vm_loops c ~src)
          | Dsl -> dec (A.Bfs.dsl c ~src)
          | Nonblocking ->
            dec (Exec.with_mode Exec.Nonblocking (fun () -> A.Bfs.dsl c ~src))
          | Native ->
            let l = A.Bfs.native g.dir_bool ~src in
            fun () -> plain (ints_of_svector l)) }
  | "sssp" ->
    let c = C.of_smatrix g.weighted in
    { name;
      reference =
        lazy (plain (floats_of_svector (A.Sssp.generic g.weighted ~src)));
      run =
        (fun tier () ->
          let dec c () = plain (floats_of_container c) in
          match tier with
          | Vm -> dec (A.Sssp.vm_loops c ~src)
          | Dsl -> dec (A.Sssp.dsl c ~src)
          | Nonblocking ->
            dec (Exec.with_mode Exec.Nonblocking (fun () -> A.Sssp.dsl c ~src))
          | Native ->
            let d = A.Sssp.native g.weighted ~src in
            fun () -> plain (floats_of_svector d)) }
  | "pagerank" ->
    let c = C.of_smatrix g.dir_fp64 in
    { name;
      reference =
        lazy
          (let r, it = A.Pagerank.generic ~threshold g.dir_fp64 in
           { value = floats_of_svector r; iters = Some it });
      run =
        (fun tier () ->
          let dec (r, it) () = { value = floats_of_container r; iters = Some it } in
          match tier with
          | Vm ->
            let r = A.Pagerank.vm_loops ~threshold c in
            fun () -> plain (floats_of_container r)
          | Dsl -> dec (A.Pagerank.dsl ~threshold c)
          | Nonblocking -> dec (A.Pagerank.nonblocking ~threshold c)
          | Native ->
            let r, it = A.Pagerank.native ~threshold g.dir_fp64 in
            fun () -> { value = floats_of_svector r; iters = Some it }) }
  | "triangle" ->
    let c = C.of_smatrix g.lower in
    { name;
      reference = lazy (plain (Scalar (float_of_int (count_triangles g.lower))));
      run =
        (fun tier () ->
          let t =
            match tier with
            | Vm -> A.Triangle.vm_loops c
            | Dsl -> A.Triangle.dsl c
            | Nonblocking -> A.Triangle.nonblocking c
            | Native -> float_of_int (A.Triangle.native g.lower)
          in
          fun () -> plain (Scalar t)) }
  | "cc" ->
    let c = C.of_smatrix g.sym_bool in
    { name;
      reference =
        lazy (plain (ints_of_svector (A.Connected_components.native g.sym_bool)));
      run =
        (fun tier () ->
          let dec c () = plain (ints_of_container c) in
          match tier with
          | Vm -> dec (A.Connected_components.vm_loops c)
          | Dsl -> dec (A.Connected_components.dsl c)
          | Nonblocking ->
            dec
              (Exec.with_mode Exec.Nonblocking (fun () ->
                   A.Connected_components.dsl c))
          | Native ->
            let l = A.Connected_components.native g.sym_bool in
            fun () -> plain (ints_of_svector l)) }
  | "labelprop" ->
    let c = C.of_smatrix g.sym_bool in
    { name;
      reference = lazy (plain (ints_of_svector (A.Labelprop.native g.sym_bool)));
      run =
        (fun tier () ->
          let dec (l, _rounds) () = plain (ints_of_container l) in
          match tier with
          | Vm ->
            let l = A.Labelprop.vm_loops c in
            fun () -> plain (ints_of_container l)
          | Dsl -> dec (A.Labelprop.dsl c)
          | Nonblocking -> dec (A.Labelprop.nonblocking c)
          | Native ->
            let l = A.Labelprop.native g.sym_bool in
            fun () -> plain (ints_of_svector l)) }
  | "ktruss" ->
    let c = C.of_smatrix g.sym_bool in
    let k = ktruss_k in
    { name;
      reference = lazy (plain (pairs_of_smatrix (A.Ktruss.native ~k g.sym_bool)));
      run =
        (fun tier () ->
          let dec c () = plain (pairs_of_container c) in
          match tier with
          | Vm -> dec (A.Ktruss.vm_loops ~k c)
          | Dsl -> dec (A.Ktruss.dsl ~k c)
          | Nonblocking -> dec (A.Ktruss.nonblocking ~k c)
          | Native ->
            let e = A.Ktruss.native ~k g.sym_bool in
            fun () -> plain (pairs_of_smatrix e)) }
  | "bc" ->
    let c = C.of_smatrix g.dir_bool in
    { name;
      reference =
        lazy (plain (floats_of_svector (A.Bc.single_source g.dir_bool ~src)));
      run =
        (fun tier () ->
          let dec c () = plain (floats_of_container c) in
          match tier with
          | Vm -> dec (A.Bc.vm_loops c ~src)
          | Dsl -> dec (A.Bc.dsl c ~src)
          | Nonblocking -> dec (A.Bc.nonblocking c ~src)
          | Native ->
            let d = A.Bc.single_source g.dir_bool ~src in
            fun () -> plain (floats_of_svector d)) }
  | other -> invalid_arg ("unknown algorithm " ^ other)
