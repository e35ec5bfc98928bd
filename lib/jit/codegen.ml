(* Kernel source templates.  The loop bodies are the monomorphized text of
   the Array_kernels algorithms; keep the two in sync. *)

type cls = F | I | B

let cls_of_dtype = function
  | "double" | "f64" -> Some F
  | "int64_t" | "i64" -> Some I
  | "bool" | "b" -> Some B
  | _ -> None

let supported_dtype d = cls_of_dtype d <> None

let ty = function F -> "float" | I -> "int" | B -> "bool"

let float_lit f =
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'n' || c = 'i') s then s
  else s ^ "."

let const_lit cls f =
  match cls with
  | F -> float_lit f
  | I -> string_of_int (int_of_float f)
  | B -> if f <> 0.0 then "true" else "false"

let binop_expr_cls cls name =
  let f_truth = "(fun x -> x <> 0.)" and i_truth = "(fun x -> x <> 0)" in
  match cls, name with
  | F, "Plus" -> Some "(fun x y -> x +. y)"
  | F, "Minus" -> Some "(fun x y -> x -. y)"
  | F, "Times" -> Some "(fun x y -> x *. y)"
  | F, "Div" -> Some "(fun x y -> x /. y)"
  | F, "Min" -> Some "(fun (x : float) y -> if x <= y then x else y)"
  | F, "Max" -> Some "(fun (x : float) y -> if x >= y then x else y)"
  | F, "First" -> Some "(fun (x : float) (_ : float) -> x)"
  | F, "Second" -> Some "(fun (_ : float) (y : float) -> y)"
  | F, "LogicalOr" ->
    Some
      (Printf.sprintf "(fun x y -> if %s x || %s y then 1. else 0.)" f_truth
         f_truth)
  | F, "LogicalAnd" ->
    Some
      (Printf.sprintf "(fun x y -> if %s x && %s y then 1. else 0.)" f_truth
         f_truth)
  | F, "LogicalXor" ->
    Some
      (Printf.sprintf "(fun x y -> if %s x <> %s y then 1. else 0.)" f_truth
         f_truth)
  | F, "Equal" -> Some "(fun (x : float) y -> if x = y then 1. else 0.)"
  | F, "NotEqual" -> Some "(fun (x : float) y -> if x <> y then 1. else 0.)"
  | F, "LessThan" -> Some "(fun (x : float) y -> if x < y then 1. else 0.)"
  | F, "GreaterThan" -> Some "(fun (x : float) y -> if x > y then 1. else 0.)"
  | F, "LessEqual" -> Some "(fun (x : float) y -> if x <= y then 1. else 0.)"
  | F, "GreaterEqual" -> Some "(fun (x : float) y -> if x >= y then 1. else 0.)"
  | I, "Plus" -> Some "(fun x y -> x + y)"
  | I, "Minus" -> Some "(fun x y -> x - y)"
  | I, "Times" -> Some "(fun x y -> x * y)"
  | I, "Div" -> Some "(fun x y -> if y = 0 then 0 else x / y)"
  | I, "Min" -> Some "(fun (x : int) y -> if x <= y then x else y)"
  | I, "Max" -> Some "(fun (x : int) y -> if x >= y then x else y)"
  | I, "First" -> Some "(fun (x : int) (_ : int) -> x)"
  | I, "Second" -> Some "(fun (_ : int) (y : int) -> y)"
  | I, "LogicalOr" ->
    Some
      (Printf.sprintf "(fun x y -> if %s x || %s y then 1 else 0)" i_truth
         i_truth)
  | I, "LogicalAnd" ->
    Some
      (Printf.sprintf "(fun x y -> if %s x && %s y then 1 else 0)" i_truth
         i_truth)
  | I, "LogicalXor" ->
    Some
      (Printf.sprintf "(fun x y -> if %s x <> %s y then 1 else 0)" i_truth
         i_truth)
  | I, "Equal" -> Some "(fun (x : int) y -> if x = y then 1 else 0)"
  | I, "NotEqual" -> Some "(fun (x : int) y -> if x <> y then 1 else 0)"
  | I, "LessThan" -> Some "(fun (x : int) y -> if x < y then 1 else 0)"
  | I, "GreaterThan" -> Some "(fun (x : int) y -> if x > y then 1 else 0)"
  | I, "LessEqual" -> Some "(fun (x : int) y -> if x <= y then 1 else 0)"
  | I, "GreaterEqual" -> Some "(fun (x : int) y -> if x >= y then 1 else 0)"
  | B, "Plus" -> Some "(fun x y -> x || y)"
  | B, "Minus" -> Some "(fun (x : bool) y -> x <> y)"
  | B, "Times" -> Some "(fun x y -> x && y)"
  | B, "Div" -> Some "(fun (x : bool) (_ : bool) -> x)"
  | B, "Min" -> Some "(fun x y -> x && y)"
  | B, "Max" -> Some "(fun x y -> x || y)"
  | B, "First" -> Some "(fun (x : bool) (_ : bool) -> x)"
  | B, "Second" -> Some "(fun (_ : bool) (y : bool) -> y)"
  | B, "LogicalOr" -> Some "(fun x y -> x || y)"
  | B, "LogicalAnd" -> Some "(fun x y -> x && y)"
  | B, "LogicalXor" -> Some "(fun (x : bool) y -> x <> y)"
  | B, "Equal" -> Some "(fun (x : bool) y -> x = y)"
  | B, "NotEqual" -> Some "(fun (x : bool) y -> x <> y)"
  | B, "LessThan" -> Some "(fun x y -> (not x) && y)"
  | B, "GreaterThan" -> Some "(fun x y -> x && not y)"
  | B, "LessEqual" -> Some "(fun x y -> not (x && not y))"
  | B, "GreaterEqual" -> Some "(fun x y -> not ((not x) && y))"
  | (F | I | B), _ -> None

let identity_expr_cls cls name =
  match cls, name with
  | F, ("Zero" | "False") -> Some "0."
  | F, ("One" | "True") -> Some "1."
  | F, "MinIdentity" -> Some "infinity"
  | F, "MaxIdentity" -> Some "neg_infinity"
  | I, ("Zero" | "False") -> Some "0"
  | I, ("One" | "True") -> Some "1"
  | I, "MinIdentity" -> Some "max_int"
  | I, "MaxIdentity" -> Some "min_int"
  | B, ("Zero" | "False") -> Some "false"
  | B, ("One" | "True" | "MinIdentity") -> Some "true"
  | B, "MaxIdentity" -> Some "false"
  | (F | I | B), _ -> None

let unary_expr_cls cls (u : Op_spec.unary) =
  match u with
  | Op_spec.Named name -> (
    match cls, name with
    | _, "Identity" -> Some "(fun x -> x)"
    | F, "AdditiveInverse" -> Some "(fun x -> -. x)"
    | I, "AdditiveInverse" -> Some "(fun x -> - x)"
    | B, "AdditiveInverse" -> Some "(fun (x : bool) -> x)"
    | F, "LogicalNot" -> Some "(fun x -> if x = 0. then 1. else 0.)"
    | I, "LogicalNot" -> Some "(fun x -> if x = 0 then 1 else 0)"
    | B, "LogicalNot" -> Some "(fun x -> not x)"
    | F, "MultiplicativeInverse" -> Some "(fun x -> 1. /. x)"
    | I, "MultiplicativeInverse" -> Some "(fun x -> if x = 0 then 0 else 1 / x)"
    | B, "MultiplicativeInverse" -> Some "(fun (_ : bool) -> true)"
    | (F | I | B), _ -> None)
  | Op_spec.Bound { op; side; const } -> (
    match binop_expr_cls cls op with
    | None -> None
    | Some op_expr ->
      let k = const_lit cls const in
      Some
        (match side with
        | `First -> Printf.sprintf "(fun x -> %s %s x)" op_expr k
        | `Second -> Printf.sprintf "(fun x -> %s x %s)" op_expr k))

let with_cls dtype f = Option.bind (cls_of_dtype dtype) f

let binop_expr ~dtype name = with_cls dtype (fun c -> binop_expr_cls c name)
let identity_expr ~dtype name = with_cls dtype (fun c -> identity_expr_cls c name)
let unary_expr ~dtype u = with_cls dtype (fun c -> unary_expr_cls c u)

let header key =
  Printf.sprintf
    "(* generated by ogb-jit; kernel %s *)\n[@@@warning \"-26-27-32\"]\n" key

let register key =
  Printf.sprintf "let () = Jit_plugin_api.register %S (Obj.repr kernel)\n" key

(* The mxv/vxm bodies share the gather/scatter loops with the operand
   order of ⊗ spliced in. *)
let matvec_body ~t ~gather_term ~scatter_term =
  Printf.sprintf
    {|let kernel (arg : Obj.t) : Obj.t =
  let (arp, aci, avs, uidx, uvls, un, nrows, ncols, transpose) =
    (Obj.obj arg
      : int array * int array * %s array * int array * %s array * int * int
        * int * bool)
  in
  if not transpose then begin
    let u_dense = Array.make ncols identity_ in
    let u_occ = Array.make ncols false in
    for k = 0 to un - 1 do
      u_dense.(uidx.(k)) <- uvls.(k);
      u_occ.(uidx.(k)) <- true
    done;
    let out_idx = Array.make (max nrows 1) 0
    and out_vls = Array.make (max nrows 1) identity_ in
    let n = ref 0 in
    for i = 0 to nrows - 1 do
      let acc = ref identity_ and hit = ref false in
      for p = arp.(i) to arp.(i + 1) - 1 do
        let j = aci.(p) in
        if u_occ.(j) then begin
          let v = %s in
          acc := (if !hit then add_ !acc v else v);
          hit := true
        end
      done;
      if !hit then begin
        out_idx.(!n) <- i;
        out_vls.(!n) <- !acc;
        incr n
      end
    done;
    Obj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
  end
  else begin
    let acc = Array.make (max ncols 1) identity_ in
    let occ = Array.make (max ncols 1) false in
    for k = 0 to un - 1 do
      let j = uidx.(k) in
      let uj = uvls.(k) in
      for p = arp.(j) to arp.(j + 1) - 1 do
        let c = aci.(p) in
        let v = %s in
        if occ.(c) then acc.(c) <- add_ acc.(c) v
        else begin
          acc.(c) <- v;
          occ.(c) <- true
        end
      done
    done;
    let n = ref 0 in
    for c = 0 to ncols - 1 do
      if occ.(c) then incr n
    done;
    let out_idx = Array.make (max !n 1) 0
    and out_vls = Array.make (max !n 1) identity_ in
    let k = ref 0 in
    for c = 0 to ncols - 1 do
      if occ.(c) then begin
        out_idx.(!k) <- c;
        out_vls.(!k) <- acc.(c);
        incr k
      end
    done;
    Obj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
  end
|}
    t t gather_term scatter_term

let matvec_source ~orientation ~dtype ~(sr : Op_spec.semiring) ~key =
  with_cls dtype (fun cls ->
      match
        ( binop_expr_cls cls sr.Op_spec.add_op,
          binop_expr_cls cls sr.Op_spec.mul_op,
          identity_expr_cls cls sr.Op_spec.add_identity )
      with
      | Some add, Some mul, Some ident ->
        let t = ty cls in
        (* mxv: term = A_value ⊗ u_value; vxm: u_value ⊗ A_value.  In the
           gather loop the matrix value is avs.(p) and the vector value is
           u_dense.(j); in the scatter loop they are avs.(p) and uj. *)
        let gather_term, scatter_term =
          match orientation with
          | `Mxv -> ("mul_ avs.(p) u_dense.(j)", "mul_ avs.(p) uj")
          | `Vxm -> ("mul_ u_dense.(j) avs.(p)", "mul_ uj avs.(p)")
        in
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let add_ = %s\n" add;
               Printf.sprintf "let mul_ = %s\n" mul;
               Printf.sprintf "let identity_ : %s = %s\n" t ident;
               matvec_body ~t ~gather_term ~scatter_term;
               register key;
             ])
      | _, _, _ -> None)

let mxv_source ~dtype ~sr ~key = matvec_source ~orientation:`Mxv ~dtype ~sr ~key

(* vxm swaps the roles: the non-transposed direction is the scatter; the
   wrapper passes a [transpose] flag that the shared body interprets as
   "use the gather loop", so we must swap the branch meaning here.  To
   keep the generated code identical in structure, the wrapper for vxm
   passes [transpose = not gather_is_needed]; see Kernels.vxm. *)
let vxm_source ~dtype ~sr ~key = matvec_source ~orientation:`Vxm ~dtype ~sr ~key

(* CSC pull dispatch of the transposed product reuses the gather loop
   verbatim: the wrapper hands over the CSC arrays with swapped
   dimensions and the ABI flag false, so only the cache key (which
   carries the formats field) distinguishes the module. *)
let mxv_pull_source ~dtype ~sr ~key =
  matvec_source ~orientation:`Mxv ~dtype ~sr ~key

(* Scatter product with a dense frontier and dense (values, occupancy)
   accumulator output — the monomorphized text of
   Array_kernels.vxm_dense. *)
let vxm_dense_source ~dtype ~(sr : Op_spec.semiring) ~key =
  with_cls dtype (fun cls ->
      match
        ( binop_expr_cls cls sr.Op_spec.add_op,
          binop_expr_cls cls sr.Op_spec.mul_op,
          identity_expr_cls cls sr.Op_spec.add_identity )
      with
      | Some add, Some mul, Some ident ->
        let t = ty cls in
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let add_ = %s\n" add;
               Printf.sprintf "let mul_ = %s\n" mul;
               Printf.sprintf "let identity_ : %s = %s\n" t ident;
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (uvls, uocc, arp, aci, avs, nrows, ncols) =
    (Obj.obj arg
      : %s array * bool array * int array * int array * %s array * int * int)
  in
  let acc = Array.make (max ncols 1) identity_ in
  let occ = Array.make (max ncols 1) false in
  for i = 0 to nrows - 1 do
    if uocc.(i) then begin
      let ui = uvls.(i) in
      for p = arp.(i) to arp.(i + 1) - 1 do
        let c = aci.(p) in
        let v = mul_ ui avs.(p) in
        if occ.(c) then acc.(c) <- add_ acc.(c) v
        else begin
          acc.(c) <- v;
          occ.(c) <- true
        end
      done
    end
  done;
  Obj.repr (acc, occ)
|}
                 t t;
               register key;
             ])
      | _, _, _ -> None)

(* Pull form of the dense-frontier product over the CSC arrays — the
   monomorphized text of Array_kernels.vxm_pull_dense.  One local
   accumulator per output position instead of a read-modify-write on the
   output arrays; rows ascend within each column, so the fold order (and
   hence the result) is identical to vxm_dense_source. *)
let vxm_pull_dense_source ~dtype ~(sr : Op_spec.semiring) ~key =
  with_cls dtype (fun cls ->
      match
        ( binop_expr_cls cls sr.Op_spec.add_op,
          binop_expr_cls cls sr.Op_spec.mul_op,
          identity_expr_cls cls sr.Op_spec.add_identity )
      with
      | Some add, Some mul, Some ident ->
        let t = ty cls in
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let add_ = %s\n" add;
               Printf.sprintf "let mul_ = %s\n" mul;
               Printf.sprintf "let identity_ : %s = %s\n" t ident;
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (uvls, uocc, acp, ari, avs, ncols) =
    (Obj.obj arg
      : %s array * bool array * int array * int array * %s array * int)
  in
  let acc = Array.make (max ncols 1) identity_ in
  let occ = Array.make (max ncols 1) false in
  let full = ref true in
  for i = 0 to Array.length uocc - 1 do
    if not uocc.(i) then full := false
  done;
  if !full then
    for c = 0 to ncols - 1 do
      let lo = acp.(c) and hi = acp.(c + 1) in
      if hi > lo then begin
        let a = ref (mul_ uvls.(ari.(lo)) avs.(lo)) in
        for p = lo + 1 to hi - 1 do
          a := add_ !a (mul_ uvls.(ari.(p)) avs.(p))
        done;
        acc.(c) <- !a;
        occ.(c) <- true
      end
    done
  else
    for c = 0 to ncols - 1 do
      let a = ref identity_ and hit = ref false in
      for p = acp.(c) to acp.(c + 1) - 1 do
        let i = ari.(p) in
        if uocc.(i) then begin
          let v = mul_ uvls.(i) avs.(p) in
          a := (if !hit then add_ !a v else v);
          hit := true
        end
      done;
      if !hit then begin
        acc.(c) <- !a;
        occ.(c) <- true
      end
    done;
  Obj.repr (acc, occ)
|}
                 t t;
               register key;
             ])
      | _, _, _ -> None)

(* Tile continuation of the pull product — the monomorphized text of
   Array_kernels.vxm_tile_acc.  Folds one tile's CSC columns into the
   caller's global accumulator in place; the cache key carries the tile
   shape in its formats field, so each tiling is its own module. *)
let vxm_tile_acc_source ~dtype ~(sr : Op_spec.semiring) ~key =
  with_cls dtype (fun cls ->
      match
        ( binop_expr_cls cls sr.Op_spec.add_op,
          binop_expr_cls cls sr.Op_spec.mul_op )
      with
      | Some add, Some mul ->
        let t = ty cls in
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let add_ = %s\n" add;
               Printf.sprintf "let mul_ = %s\n" mul;
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (uvls, uocc, r0, acp, ari, avs, c0, tncols, acc, occ) =
    (Obj.obj arg
      : %s array * bool array * int * int array * int array * %s array
        * int * int * %s array * bool array)
  in
  for lc = 0 to tncols - 1 do
    let c = c0 + lc in
    let a = ref acc.(c) and hit = ref occ.(c) in
    for p = acp.(lc) to acp.(lc + 1) - 1 do
      let i = r0 + ari.(p) in
      if uocc.(i) then begin
        let v = mul_ uvls.(i) avs.(p) in
        a := (if !hit then add_ !a v else v);
        hit := true
      end
    done;
    if !hit then begin
      acc.(c) <- !a;
      occ.(c) <- true
    end
  done;
  Obj.repr ()
|}
                 t t t;
               register key;
             ])
      | _, _ -> None)

(* Predicate text for "⊕ can no longer change this accumulator" — the
   early-exit test of the masked pull.  Only saturating monoids have
   one; for everything else the constant-false predicate keeps the loop
   exhaustive (and still correct). *)
let saturating_expr_cls cls add_op =
  match cls, add_op with
  | B, ("LogicalOr" | "Plus" | "Max") -> Some "(fun (x : bool) -> x)"
  | F, "LogicalOr" -> Some "(fun x -> x <> 0.)"
  | I, "LogicalOr" -> Some "(fun x -> x <> 0)"
  | (F | I | B), _ -> None

(* Masked pull over the CSC arrays with a dense frontier and a validity
   bitmap as the (complemented) mask — the monomorphized text of
   Array_kernels.mxv_pull_masked with [allowed c = not visited.(c)]. *)
let mxv_pull_masked_source ~dtype ~(sr : Op_spec.semiring) ~key =
  with_cls dtype (fun cls ->
      match
        ( binop_expr_cls cls sr.Op_spec.add_op,
          binop_expr_cls cls sr.Op_spec.mul_op,
          identity_expr_cls cls sr.Op_spec.add_identity )
      with
      | Some add, Some mul, Some ident ->
        let t = ty cls in
        let sat =
          match saturating_expr_cls cls sr.Op_spec.add_op with
          | Some e -> e
          | None -> Printf.sprintf "(fun (_ : %s) -> false)" t
        in
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let add_ = %s\n" add;
               Printf.sprintf "let mul_ = %s\n" mul;
               Printf.sprintf "let sat_ = %s\n" sat;
               Printf.sprintf "let identity_ : %s = %s\n" t ident;
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (acp, ari, avs, uvls, uocc, visited, ncols) =
    (Obj.obj arg
      : int array * int array * %s array * %s array * bool array * bool array
        * int)
  in
  let out_idx = Array.make (max ncols 1) 0 in
  let out_vls = Array.make (max ncols 1) identity_ in
  let n = ref 0 in
  for c = 0 to ncols - 1 do
    if not visited.(c) then begin
      let acc = ref identity_ and hit = ref false in
      let p = ref acp.(c) in
      let stop_p = acp.(c + 1) in
      while !p < stop_p && not (!hit && sat_ !acc) do
        let j = ari.(!p) in
        if uocc.(j) then begin
          let v = mul_ avs.(!p) uvls.(j) in
          acc := (if !hit then add_ !acc v else v);
          hit := true
        end;
        incr p
      done;
      if !hit then begin
        out_idx.(!n) <- c;
        out_vls.(!n) <- !acc;
        incr n
      end
    end
  done;
  Obj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
|}
                 t t;
               register key;
             ])
      | _, _, _ -> None)

(* [post] is spliced in just before the result is boxed: the fused-module
   variant maps the unary chain over the output values there, covering
   both combined and passthrough entries. *)
let ewise_body ?(post = "") ~t ~kind () =
  match kind with
  | `Add ->
    Printf.sprintf
      {|let kernel (arg : Obj.t) : Obj.t =
  let (aidx, avls, an, bidx, bvls, bn) =
    (Obj.obj arg : int array * %s array * int * int array * %s array * int)
  in
  let cap = an + bn in
  if cap = 0 then Obj.repr (([||] : int array), ([||] : %s array))
  else begin
    let dummy = if an > 0 then avls.(0) else bvls.(0) in
    let out_idx = Array.make cap 0 and out_vls = Array.make cap dummy in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < an || !j < bn do
      if !i >= an then begin
        out_idx.(!n) <- bidx.(!j); out_vls.(!n) <- bvls.(!j);
        incr n; incr j
      end
      else if !j >= bn then begin
        out_idx.(!n) <- aidx.(!i); out_vls.(!n) <- avls.(!i);
        incr n; incr i
      end
      else if aidx.(!i) < bidx.(!j) then begin
        out_idx.(!n) <- aidx.(!i); out_vls.(!n) <- avls.(!i);
        incr n; incr i
      end
      else if bidx.(!j) < aidx.(!i) then begin
        out_idx.(!n) <- bidx.(!j); out_vls.(!n) <- bvls.(!j);
        incr n; incr j
      end
      else begin
        out_idx.(!n) <- aidx.(!i); out_vls.(!n) <- op_ avls.(!i) bvls.(!j);
        incr n; incr i; incr j
      end
    done;
    %sObj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
  end
|}
      t t t post
  | `Mult ->
    Printf.sprintf
      {|let kernel (arg : Obj.t) : Obj.t =
  let (aidx, avls, an, bidx, bvls, bn) =
    (Obj.obj arg : int array * %s array * int * int array * %s array * int)
  in
  let cap = if an < bn then an else bn in
  if cap = 0 then Obj.repr (([||] : int array), ([||] : %s array))
  else begin
    let dummy = avls.(0) in
    let out_idx = Array.make cap 0 and out_vls = Array.make cap dummy in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < an && !j < bn do
      if aidx.(!i) < bidx.(!j) then incr i
      else if bidx.(!j) < aidx.(!i) then incr j
      else begin
        out_idx.(!n) <- aidx.(!i); out_vls.(!n) <- op_ avls.(!i) bvls.(!j);
        incr n; incr i; incr j
      end
    done;
    %sObj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
  end
|}
      t t t post

let ewise_source ~kind ~dtype ~op ~key =
  with_cls dtype (fun cls ->
      match binop_expr_cls cls op with
      | Some op_expr ->
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let op_ = %s\n" op_expr;
               ewise_body ~t:(ty cls) ~kind ();
               register key;
             ])
      | None -> None)

(* Fused module: the merge runs with the raw operator, then the whole
   unary chain is mapped over the output values in the same compiled
   unit — one module for the entire deferred pipeline. *)
let ewise_fused_source ~kind ~dtype ~op ~chain ~key =
  with_cls dtype (fun cls ->
      let chain_exprs = List.map (fun u -> unary_expr_cls cls u) chain in
      match binop_expr_cls cls op with
      | Some op_expr when List.for_all Option.is_some chain_exprs ->
        let fs = List.map Option.get chain_exprs in
        let defs =
          List.mapi (fun i f -> Printf.sprintf "let f%d_ = %s\n" i f) fs
        in
        let applied =
          List.fold_left
            (fun acc i -> Printf.sprintf "f%d_ (%s)" i acc)
            "v"
            (List.init (List.length fs) Fun.id)
        in
        let post =
          Printf.sprintf
            "for k_ = 0 to !n - 1 do\n\
            \      out_vls.(k_) <- g_ out_vls.(k_)\n\
            \    done;\n\
            \    "
        in
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let op_ = %s\n" op_expr;
               String.concat "" defs;
               Printf.sprintf "let g_ = fun v -> %s\n" applied;
               ewise_body ~post ~t:(ty cls) ~kind ();
               register key;
             ])
      | _ -> None)

let mxm_body ~t =
  Printf.sprintf
    {|let kernel (arg : Obj.t) : Obj.t =
  let (arp, aci, avs, brp, bci, bvs, nrows_a, ncols_b) =
    (Obj.obj arg
      : int array * int array * %s array * int array * int array * %s array
        * int * int)
  in
  let spa_vals = Array.make (max ncols_b 1) identity_ in
  let spa_occ = Array.make (max ncols_b 1) false in
  let touched = Array.make (max ncols_b 1) 0 in
  let rowptr = Array.make (nrows_a + 1) 0 in
  let cap = ref (max 16 (Array.length avs)) in
  let out_idx = ref (Array.make !cap 0) in
  let out_vls = ref (Array.make !cap identity_) in
  let n = ref 0 in
  let push c v =
    if !n = !cap then begin
      cap := 2 * !cap;
      let idx' = Array.make !cap 0 and vls' = Array.make !cap identity_ in
      Array.blit !out_idx 0 idx' 0 !n;
      Array.blit !out_vls 0 vls' 0 !n;
      out_idx := idx';
      out_vls := vls'
    end;
    !out_idx.(!n) <- c;
    !out_vls.(!n) <- v;
    incr n
  in
  for i = 0 to nrows_a - 1 do
    rowptr.(i) <- !n;
    let nt = ref 0 in
    for p = arp.(i) to arp.(i + 1) - 1 do
      let k = aci.(p) in
      let aik = avs.(p) in
      for q = brp.(k) to brp.(k + 1) - 1 do
        let j = bci.(q) in
        let v = mul_ aik bvs.(q) in
        if spa_occ.(j) then spa_vals.(j) <- add_ spa_vals.(j) v
        else begin
          spa_occ.(j) <- true;
          spa_vals.(j) <- v;
          touched.(!nt) <- j;
          incr nt
        end
      done
    done;
    let row = Array.sub touched 0 !nt in
    Array.sort Int.compare row;
    Array.iter
      (fun j ->
        push j spa_vals.(j);
        spa_occ.(j) <- false)
      row
  done;
  rowptr.(nrows_a) <- !n;
  Obj.repr (rowptr, Array.sub !out_idx 0 !n, Array.sub !out_vls 0 !n)
|}
    t t

let mxm_source ~dtype ~(sr : Op_spec.semiring) ~key =
  with_cls dtype (fun cls ->
      match
        ( binop_expr_cls cls sr.Op_spec.add_op,
          binop_expr_cls cls sr.Op_spec.mul_op,
          identity_expr_cls cls sr.Op_spec.add_identity )
      with
      | Some add, Some mul, Some ident ->
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let add_ = %s\n" add;
               Printf.sprintf "let mul_ = %s\n" mul;
               Printf.sprintf "let identity_ : %s = %s\n" (ty cls) ident;
               mxm_body ~t:(ty cls);
               register key;
             ])
      | _, _, _ -> None)

(* Dense-vector elementwise merge: operands and result are (values,
   occupancy) pairs of one fixed length; the zero literal fills
   unoccupied output slots. *)
let ewise_dense_source ~kind ~dtype ~op ~key =
  with_cls dtype (fun cls ->
      match binop_expr_cls cls op with
      | Some op_expr ->
        let t = ty cls in
        let body =
          match kind with
          | `Add ->
            {|    if aocc.(i) then begin
      out.(i) <- (if bocc.(i) then op_ avls.(i) bvls.(i) else avls.(i));
      occ.(i) <- true
    end
    else if bocc.(i) then begin
      out.(i) <- bvls.(i);
      occ.(i) <- true
    end|}
          | `Mult ->
            {|    if aocc.(i) && bocc.(i) then begin
      out.(i) <- op_ avls.(i) bvls.(i);
      occ.(i) <- true
    end|}
        in
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let op_ = %s\n" op_expr;
               Printf.sprintf "let zero_ : %s = %s\n" t (const_lit cls 0.0);
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (avls, aocc, bvls, bocc) =
    (Obj.obj arg : %s array * bool array * %s array * bool array)
  in
  let len = Array.length avls in
  let out = Array.make (max len 1) zero_ in
  let occ = Array.make (max len 1) false in
  for i = 0 to len - 1 do
%s
  done;
  Obj.repr (out, occ)
|}
                 t t body;
               register key;
             ])
      | None -> None)

let apply_dense_source ~dtype ~f ~key =
  with_cls dtype (fun cls ->
      match unary_expr_cls cls f with
      | Some f_expr ->
        let t = ty cls in
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let f_ = %s\n" f_expr;
               Printf.sprintf "let zero_ : %s = %s\n" t (const_lit cls 0.0);
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (avls, aocc) = (Obj.obj arg : %s array * bool array) in
  let len = Array.length avls in
  let out = Array.make (max len 1) zero_ in
  for i = 0 to len - 1 do
    if aocc.(i) then out.(i) <- f_ avls.(i)
  done;
  Obj.repr (out, Array.copy aocc)
|}
                 t;
               register key;
             ])
      | None -> None)

let reduce_dense_source ~dtype ~op ~identity ~key =
  with_cls dtype (fun cls ->
      match binop_expr_cls cls op, identity_expr_cls cls identity with
      | Some op_expr, Some ident ->
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let op_ = %s\n" op_expr;
               Printf.sprintf "let identity_ : %s = %s\n" (ty cls) ident;
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (avls, aocc) = (Obj.obj arg : %s array * bool array) in
  let acc = ref identity_ in
  for i = 0 to Array.length avls - 1 do
    if aocc.(i) then acc := op_ !acc avls.(i)
  done;
  Obj.repr !acc
|}
                 (ty cls);
               register key;
             ])
      | _, _ -> None)

let apply_source ~dtype ~f ~key =
  with_cls dtype (fun cls ->
      match unary_expr_cls cls f with
      | Some f_expr ->
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let f_ = %s\n" f_expr;
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (aidx, avls, an) = (Obj.obj arg : int array * %s array * int) in
  Obj.repr (Array.sub aidx 0 an, Array.init an (fun k -> f_ avls.(k)))
|}
                 (ty cls);
               register key;
             ])
      | None -> None)

let reduce_source ~dtype ~op ~identity ~key =
  with_cls dtype (fun cls ->
      match binop_expr_cls cls op, identity_expr_cls cls identity with
      | Some op_expr, Some ident ->
        Some
          (String.concat ""
             [ header key;
               Printf.sprintf "let op_ = %s\n" op_expr;
               Printf.sprintf "let identity_ : %s = %s\n" (ty cls) ident;
               Printf.sprintf
                 {|let kernel (arg : Obj.t) : Obj.t =
  let (avls, an) = (Obj.obj arg : %s array * int) in
  let acc = ref identity_ in
  for k = 0 to an - 1 do
    acc := op_ !acc avls.(k)
  done;
  Obj.repr !acc
|}
                 (ty cls);
               register key;
             ])
      | _, _ -> None)

