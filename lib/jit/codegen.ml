(* Plugin sources.  A kernel family's loop body is written once, in
   bodies/ (see Loops); a plugin is a per-signature prelude that binds the
   names of Loop_sig to operator literals, then that body. *)

type cls = F | I | B

let cls_of_dtype = function
  | "double" | "f64" -> Some F
  | "int64_t" | "i64" -> Some I
  | "bool" | "b" -> Some B
  | _ -> None

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

(* ⊕ saturates at any truthy accumulator (nonzero, true): no further
   term can change it, so the masked pull may stop gathering.  The
   closure backend's sat_ reads this table too. *)
let saturates ~dtype add_op =
  match add_op with
  | "LogicalOr" -> true
  | "Plus" | "Max" -> cls_of_dtype dtype = Some B
  | _ -> false

let truth_expr = function
  | F -> "(fun x -> x <> 0.)"
  | I -> "(fun x -> x <> 0)"
  | B -> "(fun (x : bool) -> x)"

let with_cls dtype f = Option.bind (cls_of_dtype dtype) f

let binop_expr ~dtype name = with_cls dtype (fun c -> binop_expr_cls c name)
let identity_expr ~dtype name =
  with_cls dtype (fun c -> identity_expr_cls c name)
let unary_expr ~dtype u = with_cls dtype (fun c -> unary_expr_cls c u)

let header key =
  Printf.sprintf
    "(* generated by ogb-jit; kernel %s *)\n[@@@warning \"-26-27-32\"]\n" key

let register key =
  Printf.sprintf "let () = Jit_plugin_api.register %S (Obj.repr kernel)\n" key

(* header, [type t], one [let] per prelude name, the loop text, the
   registration; None when a name has no literal at this dtype *)
let plugin cls ~key ~text defs =
  if List.exists (fun (_, e) -> e = None) defs then None
  else
    Some
      (String.concat ""
         ([ header key; Printf.sprintf "type t = %s\n" (ty cls) ]
         @ List.map
             (fun (name, e) ->
               Printf.sprintf "let %s = %s\n" name (Option.get e))
             defs
         @ [ text; register key ]))

(* [sat] binds sat_, which only the masked pull reads: an unused prelude
   function still takes code space ahead of the kernel and moves it *)
let semiring_source ?(swap = false) ?(sat = false) ~dtype
    ~(sr : Op_spec.semiring) ~key text =
  with_cls dtype (fun cls ->
      let mul = binop_expr_cls cls sr.Op_spec.mul_op in
      let sat_def =
        if saturates ~dtype sr.Op_spec.add_op then truth_expr cls
        else "(fun (_ : t) -> false)"
      in
      plugin cls ~key ~text
        ([ ("add_", binop_expr_cls cls sr.Op_spec.add_op);
           ( "mul_",
             if swap then Option.map (Printf.sprintf "(fun x y -> %s y x)") mul
             else mul ) ]
        @ (if sat then [ ("sat_", Some sat_def) ] else [])
        @ [ ("identity_", identity_expr_cls cls sr.Op_spec.add_identity) ]))

let mxv_source ~dtype ~sr ~key = semiring_source ~dtype ~sr ~key Loops.matvec

(* [f] is an apply chain, innermost first; f_ is its composition *)
let op_source ?op ?identity ?f ~dtype ~key text =
  with_cls dtype (fun cls ->
      let opt name x g = match x with None -> [] | Some x -> [ (name, g x) ] in
      let compose fs =
        let exprs = List.map (unary_expr_cls cls) fs in
        if List.mem None exprs then None
        else
          match List.map Option.get exprs with
          | [ e ] -> Some e
          | es ->
            Some
              (Printf.sprintf "(fun v -> %s)"
                 (List.fold_left
                    (fun acc e -> Printf.sprintf "%s (%s)" e acc)
                    "v" es))
      in
      plugin cls ~key ~text
        (opt "op_" op (binop_expr_cls cls)
        @ opt "identity_" identity (identity_expr_cls cls)
        @ opt "f_" f compose
        @ [ ("zero_", Some (const_lit cls 0.0)) ]))
