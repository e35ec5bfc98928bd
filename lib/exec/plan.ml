open Gbtl
module C = Ogb.Container

exception Plan_error of string

let perr fmt = Printf.ksprintf (fun s -> raise (Plan_error s)) fmt

type kind = K_vec | K_mat | K_scalar

(* Storage-layout annotation chosen by Rewrite.select_layout: which side
   of the matrix operand the kernel will walk, and (when the vector
   operand's fill is known at planning time) the push/pull direction. *)
type layout = L_default | L_csc | L_csc_pull | L_csc_push

type op =
  | Leaf of C.t
  | Transpose
  | MatMul of {
      sr : Jit.Op_spec.semiring;
      transpose_a : bool;
      transpose_b : bool;
      masked : Ogb.Expr.mask_spec option;
      layout : layout;
    }
  | Ewise of {
      kind : [ `Add | `Mult ];
      op : string;
      transpose_a : bool;
      transpose_b : bool;
    }
  | ApplyChain of { chain : Jit.Op_spec.unary list; transpose : bool }
  | EwiseApply of {
      kind : [ `Add | `Mult ];
      op : string;
      chain : Jit.Op_spec.unary list;
    }
  | EwiseMultReduce of { op : string; monoid_op : string; identity : string }
  | ReduceRows of { op : string; identity : string; transpose : bool }
  | ReduceScalar of { op : string; identity : string }
  | ExtractVec of Index_set.t
  | ExtractMat of { rows : Index_set.t; cols : Index_set.t; transpose : bool }
  | Select of Select.predicate

type node = {
  id : int;
  mutable op : op;
  mutable deps : int array;
  mutable kind : kind;
}

type t = {
  tbl : (int, node) Hashtbl.t;
  mutable next : int;
  mutable root : int;
  mutable sink_mask : Ogb.Expr.mask_spec option;
  mutable events : (string * int) list;  (* rewrite name -> firings *)
  mutable cse_merged : int;
  mutable schedule_desc : string;  (* schedule the planner applied *)
}

let node plan id = Hashtbl.find plan.tbl id
let root plan = node plan plan.root
let size plan = Hashtbl.length plan.tbl
let events plan = List.rev plan.events
let cse_merged plan = plan.cse_merged

let record_event plan name count =
  if count > 0 then plan.events <- (name, count) :: plan.events

(* -- labels (trace display and plan dumps) -- *)

let unary_names chain =
  String.concat ";" (List.map Jit.Op_spec.unary_name chain)

let kind_tag = function `Add -> "add" | `Mult -> "mult"

let layout_tag = function
  | L_default -> ""
  | L_csc -> "[a:csc]"
  | L_csc_pull -> "[a:csc][pull]"
  | L_csc_push -> "[a:csc][push]"

let op_label = function
  | Leaf c -> if C.is_matrix c then "leaf:mat" else "leaf:vec"
  | Transpose -> "transpose"
  | MatMul { sr; transpose_a; transpose_b; masked; layout } ->
    Printf.sprintf "mxm[%s.%s]%s%s%s%s" sr.Jit.Op_spec.add_op
      sr.Jit.Op_spec.mul_op
      (if transpose_a then "[Ta]" else "")
      (if transpose_b then "[Tb]" else "")
      (match masked with
      | Some { complemented = true; _ } -> "[mask~]"
      | Some _ -> "[mask]"
      | None -> "")
      (layout_tag layout)
  | Ewise { kind; op; transpose_a; transpose_b } ->
    Printf.sprintf "ewise_%s[%s]%s%s" (kind_tag kind) op
      (if transpose_a then "[Ta]" else "")
      (if transpose_b then "[Tb]" else "")
  | ApplyChain { chain; transpose } ->
    Printf.sprintf "apply[%s]%s" (unary_names chain)
      (if transpose then "[T]" else "")
  | EwiseApply { kind; op; chain } ->
    Printf.sprintf "ewise_%s_apply[%s;%s]" (kind_tag kind) op
      (unary_names chain)
  | EwiseMultReduce { op; monoid_op; identity } ->
    Printf.sprintf "ewise_mult_reduce[%s;%s/%s]" op monoid_op identity
  | ReduceRows { op; identity; transpose } ->
    Printf.sprintf "reduce_rows[%s/%s]%s" op identity
      (if transpose then "[T]" else "")
  | ReduceScalar { op; identity } ->
    Printf.sprintf "reduce_scalar[%s/%s]" op identity
  | ExtractVec _ -> "extract_vec"
  | ExtractMat { transpose; _ } ->
    if transpose then "extract_mat[T]" else "extract_mat"
  | Select _ -> "select"

(* -- topological order (deterministic: DFS post-order from the root) -- *)

let topo plan =
  let seen = Hashtbl.create 32 in
  let order = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      Array.iter visit (node plan id).deps;
      order := id :: !order
    end
  in
  visit plan.root;
  List.rev !order

(* Consumer counts; the sink counts as one consumer of the root. *)
let refcounts plan =
  let counts = Hashtbl.create 32 in
  let bump id =
    Hashtbl.replace counts id
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts id))
  in
  Hashtbl.iter (fun _ n -> Array.iter bump n.deps) plan.tbl;
  bump plan.root;
  counts

(* Drop nodes unreachable from the root (after rewrites alias/absorb). *)
let drop_dead plan =
  let live = Hashtbl.create 32 in
  List.iter (fun id -> Hashtbl.add live id ()) (topo plan);
  let dead =
    Hashtbl.fold
      (fun id _ acc -> if Hashtbl.mem live id then acc else id :: acc)
      plan.tbl []
  in
  List.iter (Hashtbl.remove plan.tbl) dead;
  List.length dead

(* True when no two non-leaf nodes of [order] (a topological order) can
   run at once: each one consumes the one before it.  Leaves do nothing
   when they run, so such a plan has nothing to overlap and nothing to
   race on. *)
let kernel_chain plan order =
  let rec go prev = function
    | [] -> true
    | id :: rest -> (
      let n = node plan id in
      match n.op with
      | Leaf _ -> go prev rest
      | _ ->
        (match prev with None -> true | Some p -> Array.mem p n.deps)
        && go (Some id) rest)
  in
  go None order

(* A copy with fresh node records and dependency arrays, so a rewrite
   or an added edge on one never reaches the other; [op] gives each
   copied node's op. *)
let copy ?(op = fun n -> n.op) plan =
  let tbl = Hashtbl.create (Hashtbl.length plan.tbl) in
  Hashtbl.iter
    (fun id n ->
      Hashtbl.replace tbl id { n with op = op n; deps = Array.copy n.deps })
    plan.tbl;
  { plan with tbl }

let pp fmt plan =
  List.iter
    (fun id ->
      let n = node plan id in
      Format.fprintf fmt "n%-3d %-40s" n.id (op_label n.op);
      if Array.length n.deps > 0 then begin
        Format.fprintf fmt " <-";
        Array.iter (fun d -> Format.fprintf fmt " n%d" d) n.deps
      end;
      if id = plan.root then Format.fprintf fmt "   (root)";
      Format.fprintf fmt "@\n")
    (topo plan);
  (match plan.sink_mask with
  | Some _ -> Format.fprintf fmt "sink mask: unpushed@\n"
  | None -> ());
  match events plan with
  | [] -> ()
  | evs ->
    Format.fprintf fmt "rewrites:";
    List.iter (fun (name, n) -> Format.fprintf fmt " %s=%d" name n) evs;
    Format.fprintf fmt "@\n"

let to_string plan = Format.asprintf "%a" pp plan

(* -- lowering: Expr.t tree -> DAG with common-subexpression sharing -- *)

let fresh plan op deps kind =
  let id = plan.next in
  plan.next <- id + 1;
  Hashtbl.replace plan.tbl id { id; op; deps; kind };
  id

(* -- structural keys --
   One byte encoding of an op with every parameter, shared by CSE below
   and the planner's shape key: fixed-width ints, length-prefixed
   strings, bound constants by their bits.  Ops holding index sets or
   closures (extract, select) have none. *)

exception No_key

let key_int b i = Buffer.add_int64_le b (Int64.of_int i)
let key_bool b x = Buffer.add_char b (if x then 't' else 'f')

let key_str b s =
  key_int b (String.length s);
  Buffer.add_string b s

let key_unary b = function
  | Jit.Op_spec.Named s ->
    Buffer.add_char b 'N';
    key_str b s
  | Jit.Op_spec.Bound { op; side; const } ->
    Buffer.add_char b 'B';
    key_str b op;
    key_bool b (side = `First);
    Buffer.add_int64_le b (Int64.bits_of_float const)

let key_chain b chain =
  key_int b (List.length chain);
  List.iter (key_unary b) chain

let key_kind b k = Buffer.add_char b (match k with `Add -> '+' | `Mult -> '*')

(* A container's dtype and dimensions. *)
let key_shape b c =
  key_str b (C.dtype_name c);
  match c with
  | C.Vec (_, v) ->
    Buffer.add_char b 'v';
    key_int b (Svector.size v)
  | C.Mat (_, m) ->
    Buffer.add_char b 'm';
    key_int b (Smatrix.nrows m);
    key_int b (Smatrix.ncols m)

let key_mask b = function
  | None -> Buffer.add_char b '-'
  | Some { Ogb.Expr.container; complemented } ->
    key_bool b complemented;
    key_shape b container

let key_op b = function
  | Leaf c ->
    (* the shape facts the rewrites read; a vector's layout steers
       select_layout *)
    Buffer.add_char b 'L';
    key_shape b c;
    (match c with
    | C.Vec (_, v) -> key_bool b (Svector.is_dense v)
    | C.Mat _ -> ())
  | Transpose -> Buffer.add_char b 'T'
  | MatMul { sr; transpose_a; transpose_b; masked; layout } ->
    Buffer.add_char b 'M';
    key_str b sr.Jit.Op_spec.add_op;
    key_str b sr.Jit.Op_spec.add_identity;
    key_str b sr.Jit.Op_spec.mul_op;
    key_bool b transpose_a;
    key_bool b transpose_b;
    key_mask b masked;
    Buffer.add_char b
      (match layout with
      | L_default -> 'd'
      | L_csc -> 'c'
      | L_csc_pull -> 'p'
      | L_csc_push -> 'q')
  | Ewise { kind; op; transpose_a; transpose_b } ->
    Buffer.add_char b 'E';
    key_kind b kind;
    key_str b op;
    key_bool b transpose_a;
    key_bool b transpose_b
  | ApplyChain { chain; transpose } ->
    Buffer.add_char b 'A';
    key_chain b chain;
    key_bool b transpose
  | EwiseApply { kind; op; chain } ->
    Buffer.add_char b 'F';
    key_kind b kind;
    key_str b op;
    key_chain b chain
  | EwiseMultReduce { op; monoid_op; identity } ->
    Buffer.add_char b 'R';
    key_str b op;
    key_str b monoid_op;
    key_str b identity
  | ReduceRows { op; identity; transpose } ->
    Buffer.add_char b 'W';
    key_str b op;
    key_str b identity;
    key_bool b transpose
  | ReduceScalar { op; identity } ->
    Buffer.add_char b 'S';
    key_str b op;
    key_str b identity
  | ExtractVec _ | ExtractMat _ | Select _ -> raise No_key

let key_node b n =
  key_op b n.op;
  Buffer.add_char b
    (match n.kind with K_vec -> 'v' | K_mat -> 'm' | K_scalar -> 's');
  key_int b (Array.length n.deps);
  Array.iter (key_int b) n.deps

(* Hash-consing keys.  Only pure ops participate (lowering produces no
   mask and no layout on a matmul; select_layout runs after CSE);
   extract/select get unique nodes. *)
let cse_key op deps =
  match op with
  | Transpose | MatMul { masked = None; _ } | Ewise _ | ApplyChain _
  | ReduceRows _ ->
    let b = Buffer.create 64 in
    key_op b op;
    Array.iter (key_int b) deps;
    Some (Buffer.contents b)
  | _ -> None

type builder = {
  plan : t;
  keys : (string, int) Hashtbl.t;
  mutable leaves : (C.t * int) list;  (* physical identity *)
}

let shared b op deps kind =
  match cse_key op deps with
  | None -> fresh b.plan op deps kind
  | Some key -> (
    match Hashtbl.find_opt b.keys key with
    | Some id ->
      b.plan.cse_merged <- b.plan.cse_merged + 1;
      Jit.Jit_stats.record_fusion "cse";
      id
    | None ->
      let id = fresh b.plan op deps kind in
      Hashtbl.add b.keys key id;
      id)

let leaf_node b c =
  match List.find_opt (fun (c', _) -> c' == c) b.leaves with
  | Some (_, id) ->
    b.plan.cse_merged <- b.plan.cse_merged + 1;
    Jit.Jit_stats.record_fusion "cse";
    id
  | None ->
    let kind = if C.is_matrix c then K_mat else K_vec in
    let id = fresh b.plan (Leaf c) [||] kind in
    b.leaves <- (c, id) :: b.leaves;
    id

let child_kind b id = (node b.plan id).kind

let rec lower_expr b (e : Ogb.Expr.t) =
  match e with
  | Leaf c -> leaf_node b c
  | Transpose x ->
    let x' = lower_expr b x in
    shared b Transpose [| x' |] (child_kind b x')
  | MatMul { a; b = bb; sr } ->
    let a' = lower_expr b a and b' = lower_expr b bb in
    let kind =
      match child_kind b a', child_kind b b' with
      | K_mat, K_mat -> K_mat
      | _ -> K_vec
    in
    shared b
      (MatMul
         { sr;
           transpose_a = false;
           transpose_b = false;
           masked = None;
           layout = L_default })
      [| a'; b' |] kind
  | EwiseAdd { a; b = bb; op } ->
    let a' = lower_expr b a and b' = lower_expr b bb in
    shared b
      (Ewise { kind = `Add; op; transpose_a = false; transpose_b = false })
      [| a'; b' |] (child_kind b a')
  | EwiseMult { a; b = bb; op } ->
    let a' = lower_expr b a and b' = lower_expr b bb in
    shared b
      (Ewise { kind = `Mult; op; transpose_a = false; transpose_b = false })
      [| a'; b' |] (child_kind b a')
  | Apply { f; x } ->
    let x' = lower_expr b x in
    shared b
      (ApplyChain { chain = [ f ]; transpose = false })
      [| x' |] (child_kind b x')
  | ReduceRows { op; identity; x } ->
    let x' = lower_expr b x in
    shared b (ReduceRows { op; identity; transpose = false }) [| x' |] K_vec
  | ExtractVec { x; idx } ->
    let x' = lower_expr b x in
    fresh b.plan (ExtractVec idx) [| x' |] K_vec
  | ExtractMat { x; rows; cols } ->
    let x' = lower_expr b x in
    fresh b.plan (ExtractMat { rows; cols; transpose = false }) [| x' |] K_mat
  | Select { pred; x } ->
    let x' = lower_expr b x in
    fresh b.plan (Select pred) [| x' |] (child_kind b x')

let builder () =
  { plan =
      { tbl = Hashtbl.create 32;
        next = 0;
        root = -1;
        sink_mask = None;
        events = [];
        cse_merged = 0;
        schedule_desc = "" };
    keys = Hashtbl.create 32;
    leaves = [] }

let of_expr ?mask e =
  let b = builder () in
  let root = lower_expr b e in
  b.plan.root <- root;
  b.plan.sink_mask <- mask;
  record_event b.plan "cse" b.plan.cse_merged;
  b.plan

let of_expr_reduce ~op ~identity e =
  let b = builder () in
  let x = lower_expr b e in
  b.plan.root <- fresh b.plan (ReduceScalar { op; identity }) [| x |] K_scalar;
  record_event b.plan "cse" b.plan.cse_merged;
  b.plan

(* -- node execution (mirrors Expr's eager evaluator, kernel for kernel,
      so the two modes share Kernel_sig cache entries and produce
      bit-identical containers) -- *)

type value = V_cont of C.t | V_scal of float

let cont = function
  | V_cont c -> c
  | V_scal _ -> perr "expected a container, found a scalar"

let vec_of_entries dt size entries =
  let out = Svector.create dt size in
  Svector.replace_contents out entries;
  C.Vec (dt, out)

let promote2 ca cb =
  let (Dtype.P dt) = Dtype.promote (C.dtype ca) (C.dtype cb) in
  Dtype.P dt

let check_sizes u v =
  if Svector.size u <> Svector.size v then
    raise
      (Ogb.Expr.Eval_error
         (Printf.sprintf "element-wise operation on vectors of sizes %d and %d"
            (Svector.size u) (Svector.size v)))

let execute_node _plan n (vals : value array) : value =
  match n.op with
  | Leaf c -> V_cont c
  | Transpose -> (
    match cont vals.(0) with
    | C.Mat (dt, m) -> V_cont (C.Mat (dt, Jit.Kernels.transpose_m dt m))
    | C.Vec _ as c -> V_cont c (* vector transpose is the identity *))
  | MatMul { sr; transpose_a = ta; transpose_b = tb; masked; layout } ->
    (* the schedule's direction choice overrides the kernel's layout
       rule; both directions are bit-identical by construction *)
    let direction =
      match layout with
      | L_csc_pull -> `Pull
      | L_csc_push -> `Push
      | L_default | L_csc -> `Auto
    in
    V_cont
      (fst
         (Ogb.Expr.product ?mask:masked ~direction sr
            (cont vals.(0), ta)
            (cont vals.(1), tb)))
  | Ewise { kind; op; transpose_a = ta; transpose_b = tb } -> (
    let ca = cont vals.(0) and cb = cont vals.(1) in
    let (Dtype.P dt) = promote2 ca cb in
    let ca = Ogb.Expr.unify (Dtype.P dt) ca
    and cb = Ogb.Expr.unify (Dtype.P dt) cb in
    match ca, cb with
    | C.Vec _, C.Vec _ ->
      let u = C.as_vector dt ca and v = C.as_vector dt cb in
      check_sizes u v;
      V_cont (C.Vec (dt, Jit.Kernels.Vector.ewise kind dt ~op u v))
    | C.Mat _, C.Mat _ ->
      let ma = C.as_matrix dt ca and mb = C.as_matrix dt cb in
      V_cont
        (C.Mat
           ( dt,
             Jit.Kernels.ewise_m kind dt ~op ~transpose_a:ta ~transpose_b:tb ma
               mb ))
    | C.Vec _, C.Mat _ | C.Mat _, C.Vec _ ->
      raise
        (Ogb.Expr.Eval_error
           "element-wise operation between a vector and a matrix"))
  | ApplyChain { chain; transpose } -> (
    match cont vals.(0) with
    | C.Vec (dt, v) ->
      V_cont (C.Vec (dt, Jit.Kernels.Vector.apply_chain dt ~chain v))
    | C.Mat (dt, m) -> (
      match chain with
      | [] -> perr "empty apply chain"
      | f :: rest ->
        let out = Jit.Kernels.apply_m dt f ~transpose m in
        (* remaining stages map the fresh (node-private) result in place,
           like the blocking evaluator's temp-fusion *)
        List.iter
          (fun f ->
            Smatrix.map_inplace out
              ~f:(Jit.Op_spec.instantiate_unary dt f).Unaryop.f)
          rest;
        V_cont (C.Mat (dt, out))))
  | EwiseApply { kind; op; chain } ->
    let ca = cont vals.(0) and cb = cont vals.(1) in
    let (Dtype.P dt) = promote2 ca cb in
    let ca = Ogb.Expr.unify (Dtype.P dt) ca
    and cb = Ogb.Expr.unify (Dtype.P dt) cb in
    let u = C.as_vector dt ca and v = C.as_vector dt cb in
    check_sizes u v;
    V_cont (C.Vec (dt, Jit.Kernels.Vector.ewise_fused kind dt ~op ~chain u v))
  | EwiseMultReduce { op; monoid_op; identity } ->
    let ca = cont vals.(0) and cb = cont vals.(1) in
    let (Dtype.P dt) = promote2 ca cb in
    let ca = Ogb.Expr.unify (Dtype.P dt) ca
    and cb = Ogb.Expr.unify (Dtype.P dt) cb in
    let u = C.as_vector dt ca and v = C.as_vector dt cb in
    check_sizes u v;
    V_scal
      (Dtype.to_float dt
         (Jit.Kernels.ewise_mult_reduce_v dt ~op ~monoid_op ~identity u v))
  | ReduceRows { op; identity; transpose } -> (
    match cont vals.(0) with
    | C.Mat (dt, m) ->
      let size = if transpose then Smatrix.ncols m else Smatrix.nrows m in
      V_cont
        (vec_of_entries dt size
           (Jit.Kernels.reduce_rows dt ~op ~identity ~transpose m))
    | C.Vec _ -> raise (Ogb.Expr.Eval_error "reduce_rows on a vector"))
  | ReduceScalar { op; identity } -> (
    match cont vals.(0) with
    | C.Vec (dt, v) ->
      V_scal (Dtype.to_float dt (Jit.Kernels.reduce_v_scalar dt ~op ~identity v))
    | C.Mat (dt, m) ->
      V_scal (Dtype.to_float dt (Jit.Kernels.reduce_m_scalar dt ~op ~identity m)))
  | ExtractVec idx -> (
    match cont vals.(0) with
    | C.Vec (dt, v) ->
      let out = Svector.create dt (Index_set.length idx (Svector.size v)) in
      Extract.vector ~out v idx;
      V_cont (C.Vec (dt, out))
    | C.Mat _ -> raise (Ogb.Expr.Eval_error "vector extract on a matrix"))
  | ExtractMat { rows; cols; transpose } -> (
    match cont vals.(0) with
    | C.Mat (dt, m) ->
      let nrows = if transpose then Smatrix.ncols m else Smatrix.nrows m in
      let ncols = if transpose then Smatrix.nrows m else Smatrix.ncols m in
      let out =
        Smatrix.create dt (Index_set.length rows nrows)
          (Index_set.length cols ncols)
      in
      Extract.matrix ~out ~transpose m rows cols;
      V_cont (C.Mat (dt, out))
    | C.Vec _ -> raise (Ogb.Expr.Eval_error "matrix extract on a vector"))
  | Select pred -> (
    match cont vals.(0) with
    | C.Vec (dt, v) ->
      let out = Svector.create dt (Svector.size v) in
      Select.vector pred ~out v;
      V_cont (C.Vec (dt, out))
    | C.Mat (dt, m) ->
      let out = Smatrix.create dt (Smatrix.nrows m) (Smatrix.ncols m) in
      Select.matrix pred ~out m;
      V_cont (C.Mat (dt, out)))
