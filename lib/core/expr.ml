open Gbtl

exception Eval_error of string

let eerr fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

type t =
  | Leaf of Container.t
  | Transpose of t
  | MatMul of { a : t; b : t; sr : Jit.Op_spec.semiring }
  | EwiseAdd of { a : t; b : t; op : string }
  | EwiseMult of { a : t; b : t; op : string }
  | Apply of { f : Jit.Op_spec.unary; x : t }
  | ReduceRows of { op : string; identity : string; x : t }
  | ExtractVec of { x : t; idx : Index_set.t }
  | ExtractMat of { x : t; rows : Index_set.t; cols : Index_set.t }
  | Select of { pred : Select.predicate; x : t }

type mask_spec = { container : Container.t; complemented : bool }

let of_container c = Leaf c

let matmul a b = MatMul { a; b; sr = Context.current_semiring () }
let add a b = EwiseAdd { a; b; op = Context.current_add_binop () }
let mult a b = EwiseMult { a; b; op = Context.current_mult_binop () }
let transpose x = Transpose x

let apply ?f x =
  let f = match f with Some f -> f | None -> Context.current_unary () in
  Apply { f; x }

let reduce_rows x =
  let op, identity = Context.current_monoid () in
  ReduceRows { op; identity; x }

let extract_vec x idx = ExtractVec { x; idx }
let extract_mat x rows cols = ExtractMat { x; rows; cols }
let select pred x = Select { pred; x }

let rec result_dtype = function
  | Leaf c -> Container.dtype c
  | Transpose x | Apply { x; _ } | ReduceRows { x; _ }
  | ExtractVec { x; _ } | ExtractMat { x; _ } | Select { x; _ } ->
    result_dtype x
  | MatMul { a; b; _ } | EwiseAdd { a; b; _ } | EwiseMult { a; b; _ } ->
    Dtype.promote (result_dtype a) (result_dtype b)

(* Cast a container to the expression dtype when needed. *)
let unify (Dtype.P _ as packed) c =
  if Dtype.equal_packed (Container.dtype c) packed then c
  else Container.cast packed c

(* The write mask a top-level product takes into its kernel: a matrix
   mask for Mat×Mat, a vector mask of the result's size for mat×vec.
   Any other mask stays with the write step, which reports the
   mismatch. *)
let mmask_of_spec = function
  | Some { container = Container.Mat (_, m); complemented } ->
    Some (Gbtl.Mask.mmask ~complemented m)
  | Some { container = Container.Vec _; _ } | None -> None

let vmask_of_spec size = function
  | Some { container = Container.Vec (_, v); complemented }
    when Svector.size v = size ->
    Some (Gbtl.Mask.vmask ~complemented v)
  | Some { container = Container.Vec _ | Container.Mat _; _ } | None -> None

(* One product of evaluated operands (with their transpose flags) —
   shared by both evaluators, so they dispatch the same kernels and take
   a mask under the same rule.  [direction] is the nonblocking planner's
   pull/push pin for the transposed mat×vec product. *)
let product ?mask ?direction sr (ca, ta) (cb, tb) =
  let (Dtype.P dt) = Dtype.promote (Container.dtype ca) (Container.dtype cb) in
  let ca = unify (Dtype.P dt) ca and cb = unify (Dtype.P dt) cb in
  match ca, cb with
  | Container.Mat (_, _), Container.Mat (_, _) ->
    let ma = Container.as_matrix dt ca and mb = Container.as_matrix dt cb in
    let mmask = mmask_of_spec mask in
    let mask = Option.value mmask ~default:Gbtl.Mask.No_mmask in
    ( Container.Mat
        (dt, Jit.Kernels.mxm dt sr ~transpose_a:ta ~transpose_b:tb ~mask ma mb),
      mmask <> None )
  | Container.Mat (_, _), Container.Vec (_, _) ->
    let m = Container.as_matrix dt ca and v = Container.as_vector dt cb in
    let vmask =
      vmask_of_spec (if ta then Smatrix.ncols m else Smatrix.nrows m) mask
    in
    ( Container.Vec
        ( dt,
          Jit.Kernels.Vector.mxv dt sr ?direction ?mask:vmask ~transpose:ta m v
        ),
      vmask <> None )
  | Container.Vec (_, _), Container.Mat (_, _) ->
    let v = Container.as_vector dt ca and m = Container.as_matrix dt cb in
    let vmask =
      vmask_of_spec (if tb then Smatrix.nrows m else Smatrix.ncols m) mask
    in
    ( Container.Vec
        (dt, Jit.Kernels.Vector.vxm dt sr ?mask:vmask ~transpose:tb v m),
      vmask <> None )
  | Container.Vec (_, _), Container.Vec (_, _) ->
    eerr "@ between two vectors (use eWiseMult + reduce for a dot product)"

(* Operation fusion toggle (exposed for the ablation benchmark). *)
let fusion_enabled = ref true
let set_fusion b = fusion_enabled := b
let fusion () = !fusion_enabled

(* Does evaluating the expression hand back a container owned by the
   user (which must not be mutated)? *)
let rec borrows_container = function
  | Leaf _ -> true
  | Transpose x -> borrows_container x
  | MatMul _ | EwiseAdd _ | EwiseMult _ | Apply _ | ReduceRows _
  | ExtractVec _ | ExtractMat _ | Select _ ->
    false

(* The container kind an expression will evaluate to, decidable without
   evaluation (used to gate the fused-module path). *)
let rec static_kind = function
  | Leaf (Container.Vec _) -> `Vec
  | Leaf (Container.Mat _) -> `Mat
  | Transpose x | Apply { x; _ } -> static_kind x
  | MatMul { a; b; _ } -> (
    match static_kind a, static_kind b with
    | `Mat, `Mat -> `Mat
    | `Mat, `Vec | `Vec, `Mat | `Vec, `Vec -> `Vec)
  | EwiseAdd { a; _ } | EwiseMult { a; _ } -> static_kind a
  | ReduceRows _ | ExtractVec _ -> `Vec
  | ExtractMat _ -> `Mat
  | Select { x; _ } -> static_kind x

(* Fused-module detection: an apply-chain whose base is an element-wise
   operation over vectors compiles into one kernel (paper §V's "single
   binary module containing all the previously deferred operations"). *)
let fused_candidate f x =
  if not !fusion_enabled then None
  else begin
    let rec collect acc = function
      | Apply { f; x } -> collect (f :: acc) x
      | base -> (acc, base)
    in
    match collect [ f ] x with
    | chain, EwiseAdd { a; b; op }
      when static_kind a = `Vec && static_kind b = `Vec ->
      Some (chain, `Add, op, a, b)
    | chain, EwiseMult { a; b; op }
      when static_kind a = `Vec && static_kind b = `Vec ->
      Some (chain, `Mult, op, a, b)
    | _, _ -> None
  end

(* Evaluate an operand, absorbing transpose wrappers into a flag. *)
let rec eval_operand e =
  match e with
  | Transpose x ->
    let c, t = eval_operand x in
    (c, not t)
  | e -> (eval e, false)

(* [eval_masked ?mask e] also says whether [mask] went into the kernel,
   so that the result holds only mask-allowed entries. *)
and eval_masked ?mask (e : t) : Container.t * bool =
  match e with
  | MatMul { a; b; sr } -> eval_matmul ?mask a b sr
  | e -> (eval e, false)

and eval_matmul ?mask a b sr =
  let ca, ta = eval_operand a in
  let cb, tb = eval_operand b in
  product ?mask sr (ca, ta) (cb, tb)

and eval (e : t) : Container.t =
  match e with
  | Leaf c -> c
  | Transpose x -> (
    let c, transposed = eval_operand (Transpose x) in
    match c, transposed with
    | c, false -> c
    | Container.Mat (dt, m), true ->
      Container.Mat (dt, Jit.Kernels.transpose_m dt m)
    | Container.Vec _, true -> c (* vector transpose is the identity *))
  | MatMul { a; b; sr } -> fst (eval_matmul a b sr)
  | EwiseAdd { a; b; op } -> eval_ewise `Add op a b
  | EwiseMult { a; b; op } -> eval_ewise `Mult op a b
  | Apply { f; x } when fused_candidate f x <> None -> (
    (* one compiled module for the whole apply-over-eWise pipeline *)
    match fused_candidate f x with
    | None -> assert false
    | Some (chain, kind, op, a, b) ->
      let ca, _ = eval_operand a in
      let cb, _ = eval_operand b in
      let (Dtype.P dt) =
        Dtype.promote (Container.dtype ca) (Container.dtype cb)
      in
      let ca = unify (Dtype.P dt) ca and cb = unify (Dtype.P dt) cb in
      let u = Container.as_vector dt ca and v = Container.as_vector dt cb in
      if Svector.size u <> Svector.size v then
        eerr "element-wise operation on vectors of sizes %d and %d"
          (Svector.size u) (Svector.size v);
      Container.Vec (dt, Jit.Kernels.Vector.ewise_fused kind dt ~op ~chain u v))
  | Apply { f; x } -> (
    let c, transposed = eval_operand x in
    (* Operation fusion (the paper's §V planned lazy-evaluation feature):
       when the operand is itself a computed temporary (not a leaf
       borrowed from the user), map the unary over it in place instead of
       dispatching a second kernel into a fresh container. *)
    let fresh = !fusion_enabled && not (borrows_container x) in
    match c with
    | Container.Vec (dt, v) ->
      if fresh then begin
        Svector.map_inplace v
          ~f:(Jit.Op_spec.instantiate_unary dt f).Unaryop.f;
        c
      end
      else Container.Vec (dt, Jit.Kernels.Vector.apply dt f v)
    | Container.Mat (dt, m) ->
      if fresh && not transposed then begin
        Smatrix.map_inplace m
          ~f:(Jit.Op_spec.instantiate_unary dt f).Unaryop.f;
        c
      end
      else Container.Mat (dt, Jit.Kernels.apply_m dt f ~transpose:transposed m))
  | ReduceRows { op; identity; x } -> (
    let c, transposed = eval_operand x in
    match c with
    | Container.Mat (dt, m) ->
      let entries =
        Jit.Kernels.reduce_rows dt ~op ~identity ~transpose:transposed m
      in
      let size = if transposed then Smatrix.ncols m else Smatrix.nrows m in
      let out = Svector.create dt size in
      Svector.replace_contents out entries;
      Container.Vec (dt, out)
    | Container.Vec _ -> eerr "reduce_rows on a vector")
  | ExtractVec { x; idx } -> (
    match eval x with
    | Container.Vec (dt, v) ->
      let out =
        Svector.create dt (Index_set.length idx (Svector.size v))
      in
      Extract.vector ~out v idx;
      Container.Vec (dt, out)
    | Container.Mat _ -> eerr "vector extract on a matrix")
  | ExtractMat { x; rows; cols } -> (
    let c, transposed = eval_operand x in
    match c with
    | Container.Mat (dt, m) ->
      let nrows = if transposed then Smatrix.ncols m else Smatrix.nrows m in
      let ncols = if transposed then Smatrix.nrows m else Smatrix.ncols m in
      let out =
        Smatrix.create dt
          (Index_set.length rows nrows)
          (Index_set.length cols ncols)
      in
      Extract.matrix ~out ~transpose:transposed m rows cols;
      Container.Mat (dt, out)
    | Container.Vec _ -> eerr "matrix extract on a vector")
  | Select { pred; x } -> (
    match eval x with
    | Container.Vec (dt, v) ->
      let out = Svector.create dt (Svector.size v) in
      Gbtl.Select.vector pred ~out v;
      Container.Vec (dt, out)
    | Container.Mat (dt, m) ->
      let out = Smatrix.create dt (Smatrix.nrows m) (Smatrix.ncols m) in
      Gbtl.Select.matrix pred ~out m;
      Container.Mat (dt, out))

and eval_ewise kind op a b =
  let ca, ta = eval_operand a in
  let cb, tb = eval_operand b in
  let (Dtype.P dt) = Dtype.promote (Container.dtype ca) (Container.dtype cb) in
  let ca = unify (Dtype.P dt) ca and cb = unify (Dtype.P dt) cb in
  match ca, cb with
  | Container.Vec (_, _), Container.Vec (_, _) ->
    let u = Container.as_vector dt ca and v = Container.as_vector dt cb in
    if Svector.size u <> Svector.size v then
      eerr "element-wise operation on vectors of sizes %d and %d"
        (Svector.size u) (Svector.size v);
    Container.Vec (dt, Jit.Kernels.Vector.ewise kind dt ~op u v)
  | Container.Mat (_, _), Container.Mat (_, _) ->
    let ma = Container.as_matrix dt ca and mb = Container.as_matrix dt cb in
    Container.Mat
      (dt, Jit.Kernels.ewise_m kind dt ~op ~transpose_a:ta ~transpose_b:tb ma mb)
  | Container.Vec _, Container.Mat _ | Container.Mat _, Container.Vec _ ->
    eerr "element-wise operation between a vector and a matrix"

let force_blocking_masked ?mask e = eval_masked ?mask e
let force_blocking ?mask e = fst (eval_masked ?mask e)

(* Terminating operations divert to the nonblocking engine when one is
   installed and the mode asks for it; [lib/exec] registers the hooks at
   initialization (see Exec_hook). *)
let force_masked ?mask e =
  match Exec_hook.mode (), !Exec_hook.evaluator with
  | Exec_hook.Nonblocking, Some f ->
    (Obj.obj f : ?mask:mask_spec -> t -> Container.t * bool) ?mask e
  | (Exec_hook.Blocking | Exec_hook.Nonblocking), _ -> eval_masked ?mask e

let force ?mask e = fst (force_masked ?mask e)

let reduce_scalar_blocking ~op ~identity e =
  match eval e with
  | Container.Vec (dt, v) ->
    Dtype.to_float dt (Jit.Kernels.reduce_v_scalar dt ~op ~identity v)
  | Container.Mat (dt, m) ->
    Dtype.to_float dt (Jit.Kernels.reduce_m_scalar dt ~op ~identity m)

let reduce_scalar e =
  let op, identity = Context.current_monoid () in
  match Exec_hook.mode (), !Exec_hook.reducer with
  | Exec_hook.Nonblocking, Some f ->
    (Obj.obj f : op:string -> identity:string -> t -> float) ~op ~identity e
  | (Exec_hook.Blocking | Exec_hook.Nonblocking), _ ->
    reduce_scalar_blocking ~op ~identity e
