open Gbtl
module C = Ogb.Container

type tier = Native | Dsl | Nonblocking | Vm

let tiers =
  [ ("native", Native); ("dsl", Dsl); ("nonblocking", Nonblocking); ("vm", Vm) ]

let tier_name t = fst (List.find (fun (_, t') -> t' = t) tiers)

type result =
  | Entries of { entries : (int * float) list; iters : int option }
  | Count of int

type outcome = { result : result; ms : float }

type entry = {
  name : string;
  tiers : tier list;
  run : tier -> float Smatrix.t -> src:int -> outcome;
  label : int -> string;
}

(* [f] runs on the clock; its answer is decoded after it stops. *)
let measure f decode =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  let ms = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e6 in
  { result = decode r; ms }

let make name label runners =
  { name;
    label;
    tiers = List.map fst runners;
    run =
      (fun tier m ~src ->
        match List.assoc_opt tier runners with
        | Some run -> run m ~src
        | None ->
          invalid_arg
            (Printf.sprintf "Registry: %s has no %s tier" name (tier_name tier)))
  }

(* The four tiers of one algorithm.  [input] derives what the algorithm
   reads from the loaded graph (a Bool cast, the lower triangle, ...):
   the native tier runs on it directly, the other three on a container
   over it.  Without a dedicated nonblocking function the dsl function
   runs under the nonblocking engine. *)
let four ~input ~native ~of_native ~dsl ?nonblocking ~vm ~of_container () =
  let nonblocking =
    match nonblocking with
    | Some f -> f
    | None ->
      fun g ~src -> Exec.with_mode Exec.Nonblocking (fun () -> dsl g ~src)
  in
  let on_container f m ~src =
    let g = C.of_smatrix (input m) in
    measure (fun () -> f g ~src) of_container
  in
  [ ( Native,
      fun m ~src ->
        let x = input m in
        measure (fun () -> native x ~src) of_native );
    (Dsl, on_container dsl);
    (Nonblocking, on_container nonblocking);
    (Vm, on_container vm) ]

let no_src f x ~src:_ = f x
let bool_m m = Smatrix.cast ~into:Dtype.Bool m
let entries ?iters entries = Entries { entries; iters }

let ranked ?iters l =
  entries ?iters (List.stable_sort (fun (_, a) (_, b) -> compare b a) l)

let svector_entries v =
  List.rev (Svector.fold (fun acc i x -> (i, x) :: acc) [] v)
let float_levels l = entries (List.map (fun (i, l) -> (i, float_of_int l)) l)
let count_labels count c = Count (count (C.as_vector Dtype.Int64 c))

let bfs =
  make "bfs" (Printf.sprintf "reached %d vertices")
    (four ~input:bool_m ~native:Bfs.native
       ~of_native:(fun l -> float_levels (Bfs.levels_of_svector l))
       ~dsl:Bfs.dsl ~vm:Bfs.vm_loops
       ~of_container:(fun c -> float_levels (Bfs.levels_of_container c))
       ())

let sssp =
  make "sssp" (Printf.sprintf "distances to %d vertices")
    (four ~input:Fun.id ~native:Sssp.native
       ~of_native:(fun d -> entries (svector_entries d))
       ~dsl:Sssp.dsl ~vm:Sssp.vm_loops
       ~of_container:(fun d -> entries (Sssp.distances_of_container d))
       ())

let pagerank =
  let with_iters f g =
    let r, k = f g in
    (r, Some k)
  in
  make "pagerank" (Printf.sprintf "ranks of %d vertices")
    (four ~input:Fun.id
       ~native:(no_src (fun m -> Pagerank.native m))
       ~of_native:(fun (r, iters) -> ranked ~iters (svector_entries r))
       ~dsl:(no_src (with_iters (fun g -> Pagerank.dsl g)))
       ~nonblocking:(no_src (with_iters (fun g -> Pagerank.nonblocking g)))
       ~vm:(no_src (fun g -> (Pagerank.vm_loops g, None)))
       ~of_container:(fun (r, iters) ->
         ranked ?iters (Pagerank.ranks_of_container r))
       ())

let tc =
  make "tc" (Printf.sprintf "triangles: %d")
    (four
       ~input:Triangle.of_undirected
       ~native:(no_src Triangle.native)
       ~of_native:(fun t -> Count t)
       ~dsl:(no_src Triangle.dsl) ~nonblocking:(no_src Triangle.nonblocking)
       ~vm:(no_src Triangle.vm_loops)
       ~of_container:(fun t -> Count (int_of_float t))
       ())

let cc =
  make "cc" (Printf.sprintf "components: %d")
    (four ~input:bool_m
       ~native:(no_src Connected_components.native)
       ~of_native:(fun l -> Count (Connected_components.component_count l))
       ~dsl:(no_src Connected_components.dsl)
       ~vm:(no_src Connected_components.vm_loops)
       ~of_container:(count_labels Connected_components.component_count)
       ())

let labelprop =
  let rounds = Labelprop.default_rounds in
  make "labelprop" (Printf.sprintf "communities: %d")
    (four ~input:bool_m
       ~native:(no_src (Labelprop.native ~rounds))
       ~of_native:(fun l -> Count (Labelprop.community_count l))
       ~dsl:(no_src (fun g -> fst (Labelprop.dsl ~rounds g)))
       ~nonblocking:(no_src (fun g -> fst (Labelprop.nonblocking ~rounds g)))
       ~vm:(no_src (Labelprop.vm_loops ~rounds))
       ~of_container:(count_labels Labelprop.community_count)
       ())

let ktruss =
  let k = 4 in
  make "ktruss" (Printf.sprintf "%d-truss has %d edges" k)
    (four ~input:bool_m
       ~native:(no_src (Ktruss.native ~k))
       ~of_native:(fun t -> Count (Ktruss.edge_count t))
       ~dsl:(no_src (Ktruss.dsl ~k))
       ~nonblocking:(no_src (Ktruss.nonblocking ~k))
       ~vm:(no_src (Ktruss.vm_loops ~k))
       ~of_container:(fun t -> Count (C.nvals t / 2))
       ())

let bc =
  make "bc" (Printf.sprintf "single-source betweenness over %d vertices")
    (four ~input:bool_m ~native:Bc.single_source
       ~of_native:(fun c -> ranked (svector_entries c))
       ~dsl:Bc.dsl ~nonblocking:Bc.nonblocking ~vm:Bc.vm_loops
       ~of_container:(fun c -> ranked (C.vector_entries c))
       ())

let mis =
  make "mis" (Printf.sprintf "independent set of %d vertices")
    [ ( Native,
        fun m ~src:_ ->
          let g = bool_m m in
          measure (fun () -> Mis.native g) (fun s -> Count (Svector.nvals s)) )
    ]

let all = [ bfs; sssp; pagerank; tc; cc; labelprop; ktruss; bc; mis ]
let find name = List.find_opt (fun e -> e.name = name) all

let lookup ~algo ~tier =
  match (find algo, List.assoc_opt tier tiers) with
  | Some e, Some t when List.mem t e.tiers -> Some (e, t)
  | _ -> None

let summary e = function
  | Count n -> e.label n
  | Entries { entries; iters = None } -> e.label (List.length entries)
  | Entries { entries; iters = Some k } ->
    Printf.sprintf "%s, converged in %d iterations"
      (e.label (List.length entries))
      k
