open Gbtl
open Minivm.Ast
module C = Ogb.Container
module E = Ogb.Expr
module Ks = Jit.Kernel_sig

(* ==================================================================
   Part 1: signature emission for deferred expressions.

   [emit_eval]/[emit_operand] mirror [Expr.eval]/[Expr.eval_operand]
   decision for decision, but instead of dispatching each kernel they
   record its signature.  Where the concrete evaluator picks a variant
   at runtime (mxv push vs. pull, a sparse vs. a dense operand), every
   variant is emitted — warm-up wants a superset.
   ================================================================== *)

type collector = { seen : (string, unit) Hashtbl.t; mutable sigs : Ks.t list }

let new_collector () = { seen = Hashtbl.create 32; sigs = [] }

let emit_sig col s =
  let k = Ks.key s in
  if not (Hashtbl.mem col.seen k) then begin
    Hashtbl.add col.seen k ();
    col.sigs <- s :: col.sigs
  end

let semiring_ops (sr : Jit.Op_spec.semiring) =
  [ ("add", sr.add_op); ("identity", sr.add_identity); ("mul", sr.mul_op) ]

let dt_name e =
  let (Dtype.P dt) = E.result_dtype e in
  Dtype.name dt

let rec xkind = function
  | E.Leaf (C.Vec _) -> `Vec
  | E.Leaf (C.Mat _) -> `Mat
  | E.Transpose x | E.Apply { x; _ } -> xkind x
  | E.MatMul { a; b; _ } -> (
    match xkind a, xkind b with `Mat, `Mat -> `Mat | _, _ -> `Vec)
  | E.EwiseAdd { a; _ } | E.EwiseMult { a; _ } -> xkind a
  | E.ReduceRows _ | E.ExtractVec _ -> `Vec
  | E.ExtractMat _ -> `Mat
  | E.Select { x; _ } -> xkind x

let rec borrows = function
  | E.Leaf _ -> true
  | E.Transpose x -> borrows x
  | E.MatMul _ | E.EwiseAdd _ | E.EwiseMult _ | E.Apply _ | E.ReduceRows _
  | E.ExtractVec _ | E.ExtractMat _ | E.Select _ ->
    false

let fused_candidate f x =
  if not (E.fusion ()) then None
  else begin
    let rec collect acc = function
      | E.Apply { f; x } -> collect (f :: acc) x
      | base -> (acc, base)
    in
    match collect [ f ] x with
    | chain, E.EwiseAdd { a; b; op } when xkind a = `Vec && xkind b = `Vec ->
      Some (chain, `Add, op, a, b)
    | chain, E.EwiseMult { a; b; op } when xkind a = `Vec && xkind b = `Vec ->
      Some (chain, `Mult, op, a, b)
    | _, _ -> None
  end

let rec strip = function
  | E.Transpose x ->
    let e, t = strip x in
    (e, not t)
  | e -> (e, false)

let dense_uv = [ ("u", "dense"); ("v", "dense") ]

(* Every signature [Jit.Kernels]' mat×vec product keys at its default
   direction: a row gather pulls over the CSR arrays, a column gather
   (Aᵀu, uA) pulls over the CSC side when the operand is dense and
   pushes along the CSR rows when it is sparse; a vector mask turns a
   pull into the masked pull. *)
let emit_product col ~vxm ~transpose ?mask dts ops =
  let op = if vxm then "vxm" else "mxv" in
  let by_cols = transpose <> vxm in
  let flags = if transpose then [ "transpose_a" ] else [] in
  let csc = if by_cols then [ ("a", "csc") ] else [] in
  let make formats flags =
    Ks.make ~op ~dtypes:dts ~operators:ops ~formats ~flags ()
  in
  emit_sig col (make [] flags);
  emit_sig col (make (csc @ [ ("u", "dense"); ("w", "dense") ]) flags);
  match mask with
  | Some { E.container = C.Vec _; _ } ->
    emit_sig col (make (csc @ [ ("u", "dense") ]) ("masked_pull" :: flags))
  | Some { E.container = C.Mat _; _ } | None -> ()

let rec emit_operand col e =
  let core, transposed = strip e in
  (match core with E.Transpose _ -> () | core -> emit_eval col core);
  (core, transposed)

and emit_eval col ?mask e =
  match e with
  | E.Leaf _ -> ()
  | E.Transpose _ ->
    (* top-level transpose materializes through the transpose kernel *)
    let core, transposed = emit_operand col e in
    if transposed && xkind core = `Mat then
      emit_sig col
        (Ks.make ~op:"transpose" ~dtypes:[ ("T", dt_name core) ] ())
  | E.MatMul { a; b; sr } -> (
    let _, ta = emit_operand col a in
    let _, tb = emit_operand col b in
    let dts = [ ("T", dt_name e) ] in
    let ops = semiring_ops sr in
    match xkind a, xkind b with
    | `Mat, `Mat -> (
      match mask with
      | None ->
        emit_sig col
          (Ks.make ~op:"mxm" ~dtypes:dts ~operators:ops
             ~flags:[ "gustavson" ] ())
      | Some (spec : E.mask_spec) ->
        if C.is_matrix spec.container then begin
          let flags =
            (if ta then [ "transpose_a" ] else [])
            @ (if tb then [ "transpose_b" ] else [])
            @
            if spec.complemented then [ "mask"; "mask_complement" ]
            else [ "mask" ]
          in
          emit_sig col (Ks.make ~op:"mxm" ~dtypes:dts ~operators:ops ~flags ())
        end)
    | `Mat, `Vec -> emit_product col ~vxm:false ~transpose:ta ?mask dts ops
    | `Vec, `Mat -> emit_product col ~vxm:true ~transpose:tb ?mask dts ops
    | `Vec, `Vec -> (* runtime error; the verifier's domain *) ())
  | E.EwiseAdd { a; b; op } -> emit_ewise col `Add op a b e
  | E.EwiseMult { a; b; op } -> emit_ewise col `Mult op a b e
  | E.Apply { f; x } -> (
    match fused_candidate f x with
    | Some (chain, kind, op, a, b) ->
      ignore (emit_operand col a);
      ignore (emit_operand col b);
      let kind_name =
        match kind with
        | `Add -> "ewise_add_fused_v"
        | `Mult -> "ewise_mult_fused_v"
      in
      let chain_name =
        String.concat ";" (List.map Jit.Op_spec.unary_name chain)
      in
      emit_sig col
        (Ks.make ~op:kind_name
           ~dtypes:[ ("T", dt_name e) ]
           ~operators:[ ("op", op); ("chain", chain_name) ]
           ());
      (* dense operands: the dense merge, then the chain's dense apply *)
      emit_sig col
        (Ks.make
           ~op:(match kind with `Add -> "ewise_add_v" | `Mult -> "ewise_mult_v")
           ~dtypes:[ ("T", dt_name e) ]
           ~operators:[ ("op", op) ] ~formats:dense_uv ());
      emit_sig col
        (Ks.make ~op:"apply_v"
           ~dtypes:[ ("T", dt_name e) ]
           ~operators:[ ("f", chain_name) ]
           ~formats:[ ("u", "dense") ] ())
    | None -> (
      let _, transposed = emit_operand col x in
      (* a fresh computed temporary is mapped in place — no kernel *)
      let fresh = E.fusion () && not (borrows x) in
      let dts = [ ("T", dt_name x) ] in
      let fname = Jit.Op_spec.unary_name f in
      match xkind x with
      | `Vec ->
        if not fresh then begin
          emit_sig col
            (Ks.make ~op:"apply_v" ~dtypes:dts ~operators:[ ("f", fname) ] ());
          emit_sig col
            (Ks.make ~op:"apply_v" ~dtypes:dts
               ~operators:[ ("f", fname) ]
               ~formats:[ ("u", "dense") ] ())
        end
      | `Mat ->
        if not (fresh && not transposed) then
          emit_sig col
            (Ks.make ~op:"apply_m" ~dtypes:dts
               ~operators:[ ("f", fname) ]
               ~flags:(if transposed then [ "transpose_a" ] else [])
               ())))
  | E.ReduceRows { op; identity; x } -> (
    let _, transposed = emit_operand col x in
    match xkind x with
    | `Mat ->
      emit_sig col
        (Ks.make ~op:"reduce_rows"
           ~dtypes:[ ("T", dt_name x) ]
           ~operators:[ ("op", op); ("identity", identity) ]
           ~flags:(if transposed then [ "transpose_a" ] else [])
           ())
    | `Vec -> ())
  | E.ExtractVec { x; _ } -> emit_eval col x
  | E.ExtractMat { x; _ } -> ignore (emit_operand col x)
  | E.Select { x; _ } -> emit_eval col x

and emit_ewise col kind op a b whole =
  let _, ta = emit_operand col a in
  let _, tb = emit_operand col b in
  let dts = [ ("T", dt_name whole) ] in
  match xkind a, xkind b with
  | `Vec, `Vec ->
    let kn =
      match kind with `Add -> "ewise_add_v" | `Mult -> "ewise_mult_v"
    in
    emit_sig col (Ks.make ~op:kn ~dtypes:dts ~operators:[ ("op", op) ] ());
    emit_sig col
      (Ks.make ~op:kn ~dtypes:dts ~operators:[ ("op", op) ] ~formats:dense_uv
         ())
  | `Mat, `Mat ->
    let kn =
      match kind with `Add -> "ewise_add_m" | `Mult -> "ewise_mult_m"
    in
    let flags =
      (if ta then [ "transpose_a" ] else [])
      @ if tb then [ "transpose_b" ] else []
    in
    emit_sig col
      (Ks.make ~op:kn ~dtypes:dts ~operators:[ ("op", op) ] ~flags ())
  | _, _ -> ()

let emit_reduce col ~op ~identity e =
  emit_eval col e;
  let kn =
    match xkind e with
    | `Vec -> "reduce_v_scalar"
    | `Mat -> "reduce_m_scalar"
  in
  emit_sig col
    (Ks.make ~op:kn
       ~dtypes:[ ("T", dt_name e) ]
       ~operators:[ ("op", op); ("identity", identity) ]
       ());
  if xkind e = `Vec then
    emit_sig col
      (Ks.make ~op:kn
         ~dtypes:[ ("T", dt_name e) ]
         ~operators:[ ("op", op); ("identity", identity) ]
         ~formats:[ ("u", "dense") ] ())

let expr_signatures ?mask e =
  let col = new_collector () in
  emit_eval col ?mask e;
  List.rev col.sigs

let reduce_signatures ~op ~identity e =
  let col = new_collector () in
  emit_reduce col ~op ~identity e;
  List.rev col.sigs

(* ==================================================================
   Part 2: the abstract VM.
   ================================================================== *)

type aval =
  | VUnknown
  | VNil
  | VBool of bool option
  | VNum of float option
  | VStr of string option
  | VList of aval array
  | VCont of C.t
  | VExpr of E.t
  | VOp of Ogb.Context.entry
  | VMask of Ogb.Ops.mask
  | VAllIdx
  | VView of C.t * Ogb.Ops.mask option
  | VClosure of string * string list * Minivm.Ast.block
  | VBuiltin of string

exception Return_of of aval

type frame = (string, aval) Hashtbl.t

type st = {
  col : collector;
  env : Minivm.Env.t;
  toplevel : frame;
  mutable depth : int;
}

let of_value = function
  | Minivm.Value.Nil -> VNil
  | Minivm.Value.Bool b -> VBool (Some b)
  | Minivm.Value.Int i -> VNum (Some (float_of_int i))
  | Minivm.Value.Float f -> VNum (Some f)
  | Minivm.Value.Str s -> VStr (Some s)
  | Minivm.Value.Builtin (name, _) -> VBuiltin name
  | Minivm.Value.Foreign (Ogb.Vm_bridge.Cont c) -> VCont c
  | Minivm.Value.Foreign (Ogb.Vm_bridge.Op_entry e) -> VOp e
  | Minivm.Value.Foreign (Ogb.Vm_bridge.Mask_arg m) -> VMask m
  | Minivm.Value.Foreign Ogb.Vm_bridge.All_indices -> VAllIdx
  | _ -> VUnknown

let as_expr = function
  | VCont c -> Some (E.of_container c)
  | VExpr e -> Some e
  | _ -> None

let amask = function
  | VNil -> None
  | VCont c -> Some (Ogb.Ops.Mask c)
  | VMask m -> Some m
  | _ -> None

(* Mirror of [Ops.set]/[Ops.update]'s force step: the mask reaches the
   expression when its kind matches the target's ([Ops.prune_mask]);
   the write itself goes through the library, no kernels. *)
let emit_set col target mask e =
  let mask =
    match mask with
    | Some (Ogb.Ops.Mask mc) -> Some { E.container = mc; complemented = false }
    | Some (Ogb.Ops.Mask_complement mc) ->
      Some { E.container = mc; complemented = true }
    | None -> None
  in
  let mask =
    match mask with
    | Some spec when C.is_matrix spec.E.container = C.is_matrix target ->
      mask
    | Some _ | None -> None
  in
  emit_eval col ?mask e

let lookup st frames name =
  let rec go = function
    | [] -> (
      match Minivm.Env.lookup st.env name with
      | v -> of_value v
      | exception _ -> VUnknown)
    | f :: rest -> (
      match Hashtbl.find_opt f name with Some v -> v | None -> go rest)
  in
  go frames

let assign frames name v =
  let rec go = function
    | [] -> ( match frames with f :: _ -> Hashtbl.replace f name v | [] -> ())
    | f :: rest ->
      if Hashtbl.mem f name then Hashtbl.replace f name v else go rest
  in
  go frames

let aunary op v =
  match op, v with
  | "~", VCont c -> VMask (Ogb.Ops.Mask_complement c)
  | "-", VNum x -> VNum (Option.map (fun x -> -.x) x)
  | "-", (VCont _ | VExpr _) -> (
    match as_expr v with
    | Some e -> VExpr (E.apply ~f:(Jit.Op_spec.Named "AdditiveInverse") e)
    | None -> VUnknown)
  | "not", _ -> VBool None
  | _, _ -> VUnknown

let abinary a op b =
  match op, as_expr a, as_expr b with
  | "@", Some ea, Some eb -> VExpr (E.matmul ea eb)
  | "+", Some ea, Some eb -> VExpr (E.add ea eb)
  | "*", Some ea, Some eb -> VExpr (E.mult ea eb)
  | _, _, _ -> (
    match op, a, b with
    | ("+" | "-" | "*" | "/" | "%"), VNum (Some x), VNum (Some y) ->
      VNum
        (Some
           (match op with
           | "+" -> x +. y
           | "-" -> x -. y
           | "*" -> x *. y
           | "/" -> x /. y
           | _ -> Float.rem x y))
    | ("+" | "-" | "*" | "/" | "%"), (VNum _ | VUnknown), (VNum _ | VUnknown)
      ->
      VNum None
    | ("<" | ">" | "<=" | ">=" | "==" | "!="), _, _ -> VBool None
    | ("and" | "or"), _, _ -> VBool None
    | _, _, _ -> VUnknown)

let aattr recv name =
  match recv, name with
  | VCont c, "T" -> VExpr (E.transpose (E.of_container c))
  | VExpr e, "T" -> VExpr (E.transpose e)
  | VCont _, "nvals" -> VNum None
  | VCont c, "size" ->
    if C.is_matrix c then VNum None
    else VNum (Some (float_of_int (C.size c)))
  | VCont c, "shape" ->
    if C.is_matrix c then begin
      let r, cl = C.shape c in
      VList [| VNum (Some (float_of_int r)); VNum (Some (float_of_int cl)) |]
    end
    else VUnknown
  | VCont c, "dtype" -> VStr (Some (C.dtype_name c))
  | VList arr, "length" -> VNum (Some (float_of_int (Array.length arr)))
  | _, _ -> VUnknown

let aindex a k =
  match a, k with
  | VCont _, VNum _ -> VNum None
  | VCont c, (VNil | VCont _ | VMask _) -> VView (c, amask k)
  | VCont c, VAllIdx -> VView (c, None)
  | VList arr, VNum (Some i) ->
    let i = int_of_float i in
    if i >= 0 && i < Array.length arr then arr.(i) else VUnknown
  | _, _ -> VUnknown

let do_set st target mask value =
  match value with
  | VExpr e -> emit_set st.col target mask e
  | VCont c -> emit_set st.col target mask (E.of_container c)
  | _ -> (* scalar assignment: library write, no kernels *) ()

let set_index st tv kv vv =
  match tv, kv with
  | VCont c, (VNil | VAllIdx) -> do_set st c None vv
  | VCont c, (VCont _ | VMask _) -> do_set st c (amask kv) vv
  | VView (c, m), (VNil | VAllIdx) -> do_set st c m vv
  | _, _ -> ()

let num_arg = function
  | VNum (Some x) :: _ -> Some x
  | _ -> None

let builtin_call st name args =
  match name, args with
  | "Vector", [ VNum (Some n) ] -> VCont (C.vector_empty (int_of_float n))
  | "Vector", [ VNum (Some n); VStr (Some dt) ] -> (
    match Dtype.of_name dt with
    | dt -> VCont (C.vector_empty ~dtype:dt (int_of_float n))
    | exception _ -> VUnknown)
  | "Vector", [ VList items ] ->
    VCont
      (C.vector_dense
         (List.map
            (fun v -> match v with VNum (Some x) -> x | _ -> 0.)
            (Array.to_list items)))
  | "Matrix", [ VNum (Some r); VNum (Some c) ] ->
    VCont (C.matrix_empty (int_of_float r) (int_of_float c))
  | "Matrix", [ VNum (Some r); VNum (Some c); VStr (Some dt) ] -> (
    match Dtype.of_name dt with
    | dt -> VCont (C.matrix_empty ~dtype:dt (int_of_float r) (int_of_float c))
    | exception _ -> VUnknown)
  | "Semiring", [ VStr (Some s) ] -> VOp (Ogb.Context.semiring s)
  | "Semiring", [ VStr (Some a); VStr (Some i); VStr (Some m) ] ->
    VOp (Ogb.Context.custom_semiring ~add_op:a ~add_identity:i ~mul_op:m)
  | "Monoid", [ VStr (Some op); VStr (Some identity) ] ->
    VOp (Ogb.Context.monoid ~op ~identity)
  | "BinaryOp", [ VStr (Some op) ] -> VOp (Ogb.Context.binary op)
  | "UnaryOp", [ VStr (Some op) ] -> VOp (Ogb.Context.unary op)
  | "UnaryOp", [ VStr (Some op); VNum (Some k) ] ->
    (* the bound constant folded abstractly — same float arithmetic as
       the VM, so the operator name renders identically *)
    VOp (Ogb.Context.unary_bound ~op k)
  | "Accumulator", [ VStr (Some op) ] -> VOp (Ogb.Context.accum op)
  | "reduce", [ v ] -> (
    match as_expr v with
    | Some e ->
      let op, identity = Ogb.Context.current_monoid () in
      emit_reduce st.col ~op ~identity e;
      VNum None
    | None -> VNum None)
  | "apply", [ v ] -> (
    match as_expr v with
    | Some e -> VExpr (Ogb.Ops.apply e)
    | None -> VUnknown)
  | "reduce_rows", [ v ] -> (
    match as_expr v with
    | Some e -> VExpr (Ogb.Ops.reduce_rows e)
    | None -> VUnknown)
  | "normalize_rows", _ -> VNil
  | "select", [ VStr (Some pred); VNum k; v ] -> (
    (* the predicate threshold does not reach any kernel signature (the
       select itself is a library pass), so an unknown constant is
       folded to 0 *)
    match as_expr v with
    | Some e ->
      let k = Option.value k ~default:0.0 in
      let p =
        match pred with
        | "gt" -> Gbtl.Select.Value_gt k
        | "eq" -> Gbtl.Select.Value_eq k
        | _ -> Gbtl.Select.Value_ge k
      in
      VExpr (Ogb.Ops.select p e)
    | None -> VUnknown)
  | "select", _ -> VUnknown
  | ("label_onehot" | "label_decode"), _ ->
    (* host-side scatter/decode: library writes, no kernels *)
    VNil
  | "abs", args -> VNum (Option.map Float.abs (num_arg args))
  | "float", [ VNum x ] -> VNum x
  | "int", [ VNum x ] ->
    VNum (Option.map (fun x -> Float.of_int (int_of_float x)) x)
  | ("min" | "max"), [ VNum (Some x); VNum (Some y) ] ->
    VNum (Some (if name = "min" then Float.min x y else Float.max x y))
  | ("min" | "max"), _ -> VNum None
  | ("len" | "range"), _ -> VNum None
  | "str", _ -> VStr None
  | "print", _ -> VNil
  | _, _ -> VUnknown

let rec exec_block st frames block = List.iter (exec_stmt st frames) block

and exec_stmt st frames = function
  | ExprStmt e -> ignore (aeval st frames e)
  | Assign (name, e) -> assign frames name (aeval st frames e)
  | SetIndex (t, k, v) ->
    let tv = aeval st frames t in
    let kv = aeval st frames k in
    let vv = aeval st frames v in
    set_index st tv kv vv
  | SetAttr (t, _, v) ->
    ignore (aeval st frames t);
    ignore (aeval st frames v)
  | If (c, tb, fb) ->
    ignore (aeval st frames c);
    exec_block st frames tb;
    exec_block st frames fb
  | While (c, body) ->
    (* two passes: signatures emitted in iteration 1 under contexts the
       loop itself may alter stabilize by iteration 2 *)
    ignore (aeval st frames c);
    exec_block st frames body;
    ignore (aeval st frames c);
    exec_block st frames body
  | For (var, iter, body) ->
    ignore (aeval st frames iter);
    assign frames var (VNum None);
    exec_block st frames body;
    exec_block st frames body
  | With (entries, body) ->
    let pushed =
      List.fold_left
        (fun n e ->
          match aeval st frames e with
          | VOp entry ->
            Ogb.Context.push entry;
            n + 1
          | _ -> n)
        0 entries
    in
    Fun.protect
      ~finally:(fun () ->
        for _ = 1 to pushed do
          Ogb.Context.pop ()
        done)
      (fun () -> exec_block st frames body)
  | Def (name, params, body) -> assign frames name (VClosure (name, params, body))
  | Return e -> raise (Return_of (aeval st frames e))
  | Break | Continue | Pass -> ()

and aeval st frames = function
  | Const v -> of_value v
  | Var name -> lookup st frames name
  | Unary (op, e) -> aunary op (aeval st frames e)
  | Binary (op, a, b) ->
    let av = aeval st frames a in
    let bv = aeval st frames b in
    abinary av op bv
  | Call (callee, args) ->
    let cv = aeval st frames callee in
    let avs = List.map (aeval st frames) args in
    call_value st cv avs
  | Method (recv, name, args) ->
    let rv = aeval st frames recv in
    let avs = List.map (aeval st frames) args in
    amethod st rv name avs
  | Attr (recv, name) -> aattr (aeval st frames recv) name
  | Index (a, b) ->
    let av = aeval st frames a in
    let bv = aeval st frames b in
    aindex av bv
  | ListLit items -> VList (Array.of_list (List.map (aeval st frames) items))
  | Lambda (params, body) -> VClosure ("<lambda>", params, body)

and amethod st recv name args =
  match recv, name, args with
  | VCont c, "update", [ m; v ] ->
    (match as_expr v with
    | Some e -> emit_set st.col c (amask m) e
    | None -> ());
    VNil
  | VCont c, "dup", [] -> VCont c
  | VCont _, "isequal", [ _ ] -> (* host-side compare, no kernels *) VBool None
  | VCont _, "clear", [] -> VNil
  | VCont _, "get", [ _ ] -> VNum None
  | VCont _, "set", [ _; _ ] -> VNil
  | VList _, "append", [ _ ] -> VNil
  | VList _, "pop", [] -> VUnknown
  | _, _, _ -> VUnknown

and call_value st v args =
  match v with
  | VBuiltin name -> builtin_call st name args
  | VClosure (_, params, body) ->
    if st.depth > 8 then VUnknown
    else begin
      st.depth <- st.depth + 1;
      Fun.protect
        ~finally:(fun () -> st.depth <- st.depth - 1)
        (fun () ->
          let frame : frame = Hashtbl.create 8 in
          List.iteri
            (fun i p ->
              Hashtbl.replace frame p
                (match List.nth_opt args i with Some a -> a | None -> VUnknown))
            params;
          match exec_block st [ frame; st.toplevel ] body with
          | () -> VNil
          | exception Return_of r -> r)
    end
  | _ -> VUnknown

let signatures ?env program ~entry ~args =
  let env = match env with Some e -> e | None -> Vm_check.default_env () in
  let col = new_collector () in
  let toplevel : frame = Hashtbl.create 16 in
  let st = { col; env; toplevel; depth = 0 } in
  let base = Ogb.Context.depth () in
  Fun.protect
    ~finally:(fun () ->
      while Ogb.Context.depth () > base do
        Ogb.Context.pop ()
      done)
    (fun () ->
      (try exec_block st [ toplevel ] program with Return_of _ -> ());
      match Hashtbl.find_opt toplevel entry with
      | Some (VClosure _ as c) -> ignore (call_value st c args)
      | Some _ | None -> ());
  List.rev col.sigs
