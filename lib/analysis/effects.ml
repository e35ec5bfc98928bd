(* Static effect system over plan DAGs.

   This module infers a read/write footprint for every plan node over
   every location class execution can actually touch, and derives
   scheduler hazards from footprint overlap.  A leaf matrix's lazily
   built CSC cache is the [Csc_cache] instance (what [ogb analyze]
   reports as races); the vector representation switch is the other.
   Kernels read vectors through [Svector.sparse_view]/[dense_view],
   which never convert, so the switch is modelled conservatively: a
   kernel reading a dense vector still counts as a writer of its
   representation, and the Prebuild remedy sparsifies it (value-
   preserving) before the plan runs.

   Locations are keyed by the *physical* backing storage, not the leaf
   node id: two distinct containers wrapping one [Svector]/[Smatrix]
   (aliased operands the DSL can produce with [of_svector] called
   twice) collapse to one location, and a vector [Transpose] node —
   the identity on its container — is resolved to whatever it
   aliases. *)

module Plan = Exec.Plan
module C = Ogb.Container
module IS = Set.Make (Int)

type access = Read | Write

type resource =
  | Mat_entries of int  (* CSR entries of the matrix canonical at [id] *)
  | Mat_csc of int  (* its lazily built CSC side-cache *)
  | Vec_entries of int  (* stored entries of the vector canonical at [id] *)
  | Vec_rep of int  (* its sparse/dense representation switch *)
  | Node_out of int  (* a node's own (private) result slot *)
  | Accum_sink  (* the assignment sink's container (written post-plan) *)
  | Op_context  (* operator-context stack (read-only during execution) *)

type footprint = { node : int; effects : (resource * access) list }

type kind = Write_write | Read_write

type cls = Csc_cache | Rep_switch

type hazard = {
  a : int;
  b : int;
  owner : int;
  cls : cls;
  kind : kind;
  container : C.t option;
}

type strategy = Prebuild | Edge

exception Effect_hazard of { stage : string; hazards : hazard list }

(* -- alias resolution --
   Canonical owner per physical storage: the first (topo-order) node
   whose container wraps it.  Vector transposes are the identity on the
   container, so they inherit their dependency's canonical id. *)

type canon = {
  ids : (int, int) Hashtbl.t;  (* leaf/alias node id -> canonical owner id *)
  conts : (int, C.t) Hashtbl.t;  (* canonical owner id -> a container *)
  mutable reg : ([ `M | `V ] * Obj.t * int) list;  (* storage -> owner *)
  mutable aliased : int;  (* distinct nodes collapsed into an owner *)
  mutable next_syn : int;  (* ids for non-node containers (masks) *)
}

let storage_of_container = function
  | C.Mat (_, m) -> (`M, Obj.repr m)
  | C.Vec (_, v) -> (`V, Obj.repr v)

let canon_find canon c =
  let tag, o = storage_of_container c in
  List.find_opt (fun (t, o', _) -> t = tag && o' == o) canon.reg

(* Owner id for a container that is not itself a plan node (a mask):
   resolves to the leaf it aliases when it shares storage with one,
   otherwise gets a synthetic (negative) id — a reader-only location. *)
let canon_of_container canon c =
  match canon_find canon c with
  | Some (_, _, owner) -> owner
  | None ->
    let tag, o = storage_of_container c in
    let owner = canon.next_syn in
    canon.next_syn <- owner - 1;
    canon.reg <- (tag, o, owner) :: canon.reg;
    Hashtbl.replace canon.conts owner c;
    owner

let build_canon plan order =
  let canon =
    { ids = Hashtbl.create 32; conts = Hashtbl.create 32; reg = [];
      aliased = 0; next_syn = -1 }
  in
  let register id c =
    match canon_find canon c with
    | Some (_, _, owner) ->
      if owner <> id then canon.aliased <- canon.aliased + 1;
      Hashtbl.replace canon.ids id owner
    | None ->
      let tag, o = storage_of_container c in
      canon.reg <- (tag, o, id) :: canon.reg;
      Hashtbl.replace canon.ids id id;
      Hashtbl.replace canon.conts id c
  in
  List.iter
    (fun id ->
      let n = Plan.node plan id in
      match n.Plan.op with
      | Plan.Leaf c -> register id c
      | Plan.Transpose when n.Plan.kind = Plan.K_vec ->
        (* vector transpose is the identity: alias the dependency *)
        if Array.length n.Plan.deps > 0 then begin
          match Hashtbl.find_opt canon.ids n.Plan.deps.(0) with
          | Some owner -> Hashtbl.replace canon.ids id owner
          | None -> ()
        end
      | _ -> ())
    order;
  canon

(* -- per-node effect inference -- *)

(* Dependency positions through which executing [n] may build a CSC
   index: transposed Mat×Vec and untransposed Vec×Mat (pull dispatch
   decides at runtime — unless the schedule pinned push, which never
   leaves the CSR side) and
   unmasked Mat×Mat reading a transposed operand through the CSC
   transpose view. *)
let csc_touch_positions plan n =
  match n.Plan.op with
  | Plan.MatMul { transpose_a; transpose_b; masked; layout; _ }
    when Array.length n.Plan.deps >= 2 -> (
    let ka = (Plan.node plan n.Plan.deps.(0)).Plan.kind in
    let kb = (Plan.node plan n.Plan.deps.(1)).Plan.kind in
    match ka, kb, masked with
    | Plan.K_mat, Plan.K_vec, _ ->
      if transpose_a && layout <> Plan.L_csc_push then [ 0 ] else []
    | Plan.K_vec, Plan.K_mat, _ -> if transpose_b then [] else [ 1 ]
    | Plan.K_mat, Plan.K_mat, None ->
      (if transpose_a then [ 0 ] else [])
      @ (if transpose_b then [ 1 ] else [])
    | _, _, _ -> [])
  | _ -> []

(* Ops that hand vector operands to a kernel through the array ABI —
   modelled as representation writers (see the header); Extract/Select
   read through the container accessors, and Transpose is the
   identity. *)
let destructive_vec_reader n =
  match n.Plan.op with
  | Plan.MatMul _ | Plan.Ewise _ | Plan.ApplyChain _ | Plan.EwiseApply _
  | Plan.EwiseMultReduce _ | Plan.ReduceScalar _ -> true
  | Plan.Leaf _ | Plan.Transpose | Plan.ReduceRows _ | Plan.ExtractVec _
  | Plan.ExtractMat _ | Plan.Select _ -> false

let has_operators n =
  match n.Plan.op with
  | Plan.Leaf _ | Plan.Transpose | Plan.ExtractVec _ | Plan.ExtractMat _
  | Plan.Select _ -> false
  | Plan.MatMul _ | Plan.Ewise _ | Plan.ApplyChain _ | Plan.EwiseApply _
  | Plan.EwiseMultReduce _ | Plan.ReduceRows _ | Plan.ReduceScalar _ -> true

let vec_size infos id =
  match Hashtbl.find_opt infos id with
  | Some { Verify.shape = Verify.S_vec n; _ } -> Some n
  | Some _ | None -> None

(* Auto-densification floor (Svector's densify_worthwhile): vectors
   smaller than this never grow a dense side, so their representation is
   stable under the sparse ABI. *)
let densify_floor = 32

let footprints_canon ?(assume_formats = false) ?infos plan =
  let formats_on = assume_formats || Gbtl.Format_stats.enabled () in
  let order = Plan.topo plan in
  let canon = build_canon plan order in
  let infos =
    (* shape inference refines the representation-stability rule; a
       plan the verifier rejects gets no refinement (conservative) *)
    match infos with
    | Some infos -> infos
    | None -> (
      try Verify.infer ~stage:"effects" plan with _ -> Hashtbl.create 0)
  in
  let leaf_info id =
    (* canonical owner + observed storage facts, when [id] resolves to
       (an alias of) a leaf *)
    match Hashtbl.find_opt canon.ids id with
    | Some owner -> (
      match Hashtbl.find_opt canon.conts owner with
      | Some (C.Mat (_, m) as c) ->
        Some (owner, c, `Mat (Gbtl.Smatrix.csc_cached m))
      | Some (C.Vec (_, v) as c) ->
        Some (owner, c, `Vec (Gbtl.Svector.is_dense v))
      | None -> None)
    | None -> None
  in
  let mask_read spec =
    (* masks are read through the non-destructive accessors; canonical
       by storage so a mask aliasing an operand shares its location *)
    let c = spec.Ogb.Expr.container in
    let owner = canon_of_container canon c in
    match c with
    | C.Mat _ -> (Mat_entries owner, Read)
    | C.Vec _ -> (Vec_entries owner, Read)
  in
  let fp_of id =
    let n = Plan.node plan id in
    let acc = ref [] in
    let push e = acc := e :: !acc in
    (match n.Plan.op with
    | Plan.Leaf _ -> ()
    | _ -> push (Node_out id, Write));
    if has_operators n then push (Op_context, Read);
    (match n.Plan.op with
    | Plan.MatMul { masked = Some spec; _ } -> push (mask_read spec)
    | _ -> ());
    if (Plan.root plan).Plan.id = id then begin
      (match plan.Plan.sink_mask with
      | Some spec -> push (mask_read spec)
      | None -> ());
      if n.Plan.kind <> Plan.K_scalar then push (Accum_sink, Write)
    end;
    let touches = csc_touch_positions plan n in
    Array.iteri
      (fun pos d ->
        let dn = Plan.node plan d in
        match dn.Plan.kind with
        | Plan.K_scalar -> ()
        | Plan.K_mat -> (
          match leaf_info d with
          | Some (owner, _, `Mat cached) ->
            push (Mat_entries owner, Read);
            if formats_on && (not cached) && List.mem pos touches then
              push (Mat_csc owner, Write)
          | Some _ | None ->
            (* intermediate matrix: its CSC side is necessarily absent
               when the node runs, so a toucher always builds it *)
            push (Node_out d, Read);
            if formats_on && List.mem pos touches then push (Mat_csc d, Write))
        | Plan.K_vec -> (
          match leaf_info d with
          | Some (owner, _, `Vec dense) ->
            push (Vec_entries owner, Read);
            (* a dense operand counts as a representation write
               regardless of the format toggle *)
            if dense && destructive_vec_reader n then
              push (Vec_rep owner, Write)
          | Some _ | None ->
            push (Node_out d, Read);
            (* intermediates come out dense when the format layer's
               fill rules say so — statically: any vector at or above
               the densify floor may be dense when the next kernel
               reads it *)
            let unstable =
              match vec_size infos d with
              | Some sz -> sz >= densify_floor
              | None -> true
            in
            if formats_on && unstable && destructive_vec_reader n then
              push (Vec_rep d, Write)))
      n.Plan.deps;
    { node = id; effects = List.rev !acc }
  in
  (canon, List.map fp_of order)

let footprints ?assume_formats plan =
  snd (footprints_canon ?assume_formats plan)

(* -- hazards --
   Group resources by the storage they live in (a matrix's CSC cache
   overlaps its entries; a vector's representation switch overlaps its
   entries and, for intermediates, the node output it arrived as), then
   report unordered writer/writer and writer/reader pairs per group.
   Node outputs have exactly one writer — the producer, an ancestor of
   every consumer — so they never conflict and only contribute reads. *)

let unordered_hazards ?assume_formats ?infos plan order =
  let canon, fps = footprints_canon ?assume_formats ?infos plan in
  let kind_of id = (Plan.node plan id).Plan.kind in
  let group_of = function
    | Mat_entries l | Mat_csc l -> Some (`Mat l)
    | Vec_entries l | Vec_rep l -> Some (`Vec l)
    | Node_out d -> (
      match kind_of d with
      | Plan.K_mat -> Some (`Mat d)
      | Plan.K_vec -> Some (`Vec d)
      | Plan.K_scalar -> None)
    | Accum_sink | Op_context -> None
  in
  let writers : ([ `Mat of int | `Vec of int ], IS.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let readers = Hashtbl.create 16 in
  let add tbl g id =
    let cur =
      match Hashtbl.find_opt tbl g with Some s -> s | None -> IS.empty
    in
    Hashtbl.replace tbl g (IS.add id cur)
  in
  List.iter
    (fun fp ->
      List.iter
        (fun (r, a) ->
          match group_of r, a, r with
          | Some g, Write, (Mat_csc _ | Vec_rep _) -> add writers g fp.node
          | Some g, Read, _ -> add readers g fp.node
          | _, _, _ -> ())
        fp.effects)
    fps;
  (* DAG ancestor sets in topo order (as in the scheduler) *)
  let anc : (int, IS.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun id ->
      let n = Plan.node plan id in
      let s =
        Array.fold_left
          (fun acc d ->
            let da =
              match Hashtbl.find_opt anc d with
              | Some s -> s
              | None -> IS.empty
            in
            IS.add d (IS.union acc da))
          IS.empty n.Plan.deps
      in
      Hashtbl.replace anc id s)
    order;
  let ancestors id =
    match Hashtbl.find_opt anc id with Some s -> s | None -> IS.empty
  in
  let unordered a b =
    (not (IS.mem a (ancestors b))) && not (IS.mem b (ancestors a))
  in
  let out : (int * int * int, hazard) Hashtbl.t = Hashtbl.create 8 in
  let emit kind x y g =
    let owner = match g with `Mat l | `Vec l -> l in
    let cls = match g with `Mat _ -> Csc_cache | `Vec _ -> Rep_switch in
    let a, b = if x <= y then (x, y) else (y, x) in
    if a <> b then begin
      let key = (a, b, owner) in
      if (not (Hashtbl.mem out key)) && unordered a b then
        Hashtbl.replace out key
          { a; b; owner; cls; kind;
            container = Hashtbl.find_opt canon.conts owner }
    end
  in
  (* write-write pairs first so they win the dedup over read-write *)
  Hashtbl.iter
    (fun g ws ->
      IS.iter
        (fun w1 -> IS.iter (fun w2 -> if w1 < w2 then emit Write_write w1 w2 g) ws)
        ws)
    writers;
  Hashtbl.iter
    (fun g ws ->
      let rs =
        match Hashtbl.find_opt readers g with Some s -> s | None -> IS.empty
      in
      IS.iter
        (fun w ->
          IS.iter
            (fun r -> if not (IS.mem r ws) then emit Read_write w r g)
            rs)
        ws)
    writers;
  let lst = Hashtbl.fold (fun _ h acc -> h :: acc) out [] in
  List.sort (fun x y -> compare (x.a, x.b, x.owner) (y.a, y.b, y.owner)) lst

(* Leaves have no effects, so kernels that run one at a time cannot
   race: a chain has no unordered pair to look at. *)
let find ?assume_formats ?infos plan =
  let order = Plan.topo plan in
  if Plan.kernel_chain plan order then []
  else unordered_hazards ?assume_formats ?infos plan order

(* -- remedies --
   Prebuild performs the lazy conversion eagerly, before any domain
   starts: [ensure_csc] for a matrix index, [sparsify] for a dense
   vector the sparse ABI would flip mid-flight.  Both are value-
   preserving.  Hazards on intermediates have no container to prepare,
   so they fall back to a dependency edge; Edge serializes the pair
   outright.  Every added edge is directed from the topo-earlier node
   to the topo-later one (positions taken before any edit), so the
   additions are consistent with one linear order and cannot form a
   cycle; trailing deps are harmless because [execute_node] reads its
   operands positionally from the front. *)

let add_edge pos plan h =
  let p id = match Hashtbl.find_opt pos id with Some p -> p | None -> max_int in
  let first, second = if p h.a < p h.b then (h.a, h.b) else (h.b, h.a) in
  let n = Plan.node plan second in
  if not (Array.exists (fun d -> d = first) n.Plan.deps) then
    n.Plan.deps <- Array.append n.Plan.deps [| first |]

let remedy ?infos ~strategy plan =
  let hazards = find ?infos plan in
  let pos : (int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iteri (fun i id -> Hashtbl.replace pos id i) (Plan.topo plan);
  List.iter
    (fun h ->
      match strategy, h.cls, h.container with
      | Prebuild, Csc_cache, Some (C.Mat (_, m)) -> Gbtl.Smatrix.ensure_csc m
      | Prebuild, Rep_switch, Some (C.Vec (_, v)) -> Gbtl.Svector.sparsify v
      | Prebuild, _, _ | Edge, _, _ -> add_edge pos plan h)
    hazards;
  hazards

(* -- rendering -- *)

let kind_to_string = function
  | Write_write -> "write-write"
  | Read_write -> "read-write"

let cls_to_string = function
  | Csc_cache -> "CSC cache"
  | Rep_switch -> "sparse/dense representation"

let describe h =
  Printf.sprintf
    "%s hazard on the %s of node #%d between unordered nodes #%d and #%d \
     (remedy: %s, or add a dependency edge)"
    (kind_to_string h.kind) (cls_to_string h.cls) h.owner h.a h.b
    (match h.cls with
    | Csc_cache -> "prebuild the index"
    | Rep_switch -> "pre-sparsify the vector")

let resource_to_string = function
  | Mat_entries l -> Printf.sprintf "mat#%d.entries" l
  | Mat_csc l -> Printf.sprintf "mat#%d.csc" l
  | Vec_entries l -> Printf.sprintf "vec#%d.entries" l
  | Vec_rep l -> Printf.sprintf "vec#%d.rep" l
  | Node_out d -> Printf.sprintf "out#%d" d
  | Accum_sink -> "sink"
  | Op_context -> "ctx"

let report ?assume_formats plan =
  let canon, fps = footprints_canon ?assume_formats plan in
  let buf = Buffer.create 256 in
  List.iter
    (fun fp ->
      let n = Plan.node plan fp.node in
      let side a =
        match
          List.filter_map
            (fun (r, a') -> if a' = a then Some (resource_to_string r) else None)
            fp.effects
        with
        | [] -> "-"
        | rs -> String.concat "," rs
      in
      Buffer.add_string buf
        (Printf.sprintf "  #%-3d %-14s R{%s} W{%s}\n" fp.node
           (Plan.op_label n.Plan.op) (side Read) (side Write)))
    fps;
  if canon.aliased > 0 then
    Buffer.add_string buf
      (Printf.sprintf "  (%d aliased node(s) collapsed by physical storage)\n"
         canon.aliased);
  Buffer.contents buf

let message = function
  | Effect_hazard { stage; hazards } ->
    Some
      (Printf.sprintf "effect analysis [%s]: %s" stage
         (String.concat "; " (List.map describe hazards)))
  | _ -> None
