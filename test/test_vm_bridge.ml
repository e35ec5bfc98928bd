(* The DSL inside the MiniVM: containers under interpreter operators,
   magic-method hooks, with-contexts, subscript assignment — the PyGB
   user experience end to end. *)

open Minivm
open Minivm.Ast

let i n = Const (Value.Int n)
let f x = Const (Value.Float x)
let s x = Const (Value.Str x)

let fresh_env () =
  let env = Env.create () in
  Builtins.install env;
  Ogb.Vm_bridge.install env;
  env

let run_program ?(bindings = []) block =
  let env = fresh_env () in
  List.iter (fun (name, v) -> Env.define env name v) bindings;
  Interp.exec_block env block;
  env

let vec l = Ogb.Container.vector_dense l
let wrap = Ogb.Vm_bridge.wrap_container
let unwrap = Ogb.Vm_bridge.unwrap_container

let ventries c = Ogb.Container.vector_entries c
let valist = Alcotest.(list (pair int (float 1e-9)))

let test_matmul_operator () =
  let a = Ogb.Container.matrix_dense [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let u = vec [ 10.0; 100.0 ] in
  let w = Ogb.Container.vector_empty 2 in
  let env =
    run_program
      ~bindings:[ ("a", wrap a); ("u", wrap u); ("w", wrap w) ]
      [ SetIndex (Var "w", Const Value.Nil, Binary ("@", Var "a", Var "u")) ]
  in
  Alcotest.check valist "w = a @ u" [ (0, 210.0); (1, 430.0) ]
    (ventries (unwrap (Env.lookup env "w")))

let test_with_context_semiring () =
  let a = Ogb.Container.matrix_dense [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let u = vec [ 10.0; 100.0 ] in
  let w = Ogb.Container.vector_empty 2 in
  let _ =
    run_program
      ~bindings:[ ("a", wrap a); ("u", wrap u); ("w", wrap w) ]
      [ With
          ( [ Call (Var "Semiring", [ s "MinPlus" ]) ],
            [ SetIndex (Var "w", Const Value.Nil, Binary ("@", Var "a", Var "u"))
            ] ) ]
  in
  Alcotest.check valist "min-plus product" [ (0, 11.0); (1, 13.0) ]
    (ventries w);
  (* the context must be popped afterwards *)
  Alcotest.check Alcotest.int "context stack empty" 0 (Ogb.Context.depth ())

let test_ewise_operators () =
  let u = vec [ 1.0; 2.0 ] in
  let v = vec [ 10.0; 20.0 ] in
  let w = Ogb.Container.vector_empty 2 in
  let _ =
    run_program
      ~bindings:[ ("u", wrap u); ("v", wrap v); ("w", wrap w) ]
      [ SetIndex (Var "w", Const Value.Nil, Binary ("+", Var "u", Var "v"));
        SetIndex (Var "w", Const Value.Nil, Binary ("*", Var "w", Var "v")) ]
  in
  Alcotest.check valist "(u + v) * v" [ (0, 110.0); (1, 440.0) ] (ventries w)

let test_transpose_attr_and_nvals () =
  let a = Ogb.Container.matrix_coo ~nrows:2 ~ncols:2 [ (0, 1, 5.0) ] in
  let w = Ogb.Container.vector_empty 2 in
  let u = vec [ 1.0; 1.0 ] in
  let env =
    run_program
      ~bindings:[ ("a", wrap a); ("u", wrap u); ("w", wrap w) ]
      [ SetIndex (Var "w", Const Value.Nil, Binary ("@", Attr (Var "a", "T"), Var "u"));
        Assign ("n", Attr (Var "a", "nvals"));
        Assign ("shape0", Index (Attr (Var "a", "shape"), i 0)) ]
  in
  Alcotest.check valist "aT @ u" [ (1, 5.0) ] (ventries w);
  Alcotest.check Alcotest.string "nvals" "1"
    (Value.to_string (Env.lookup env "n"));
  Alcotest.check Alcotest.string "shape[0]" "2"
    (Value.to_string (Env.lookup env "shape0"))

let test_masked_assignment () =
  let src = vec [ 1.0; 2.0; 3.0 ] in
  let m = Ogb.Container.vector_coo ~size:3 [ (1, 1.0) ] in
  let w = Ogb.Container.vector_empty 3 in
  let _ =
    run_program
      ~bindings:[ ("src", wrap src); ("m", wrap m); ("w", wrap w) ]
      [ SetIndex (Var "w", Var "m", Var "src") ]
  in
  Alcotest.check valist "masked" [ (1, 2.0) ] (ventries w);
  let w2 = Ogb.Container.vector_empty 3 in
  let _ =
    run_program
      ~bindings:[ ("src", wrap src); ("m", wrap m); ("w", wrap w2) ]
      [ SetIndex (Var "w", Unary ("~", Var "m"), Var "src") ]
  in
  Alcotest.check valist "complement" [ (0, 1.0); (2, 3.0) ] (ventries w2)

let test_masked_view_scalar_assign () =
  (* levels[front][:] = depth *)
  let levels = Ogb.Container.vector_empty 4 in
  let front = Ogb.Container.vector_coo ~size:4 [ (0, 1.0); (2, 1.0) ] in
  let _ =
    run_program
      ~bindings:[ ("levels", wrap levels); ("front", wrap front) ]
      [ SetIndex (Index (Var "levels", Var "front"), Var "AllIndices", i 7) ]
  in
  Alcotest.check valist "scalar through masked view"
    [ (0, 7.0); (2, 7.0) ]
    (ventries levels)

let test_update_method () =
  let w = vec [ 10.0; 10.0 ] in
  let u = vec [ 1.0; 2.0 ] in
  let _ =
    run_program
      ~bindings:[ ("w", wrap w); ("u", wrap u) ]
      [ With
          ( [ Call (Var "Accumulator", [ s "Plus" ]) ],
            [ ExprStmt (Method (Var "w", "update", [ Const Value.Nil; Var "u" ])) ] ) ]
  in
  Alcotest.check valist "w[None] += u" [ (0, 11.0); (1, 12.0) ] (ventries w)

let test_scalar_fill () =
  let w = Ogb.Container.vector_empty 3 in
  let _ =
    run_program
      ~bindings:[ ("w", wrap w) ]
      [ SetIndex (Var "w", Var "AllIndices", f 0.25) ]
  in
  Alcotest.check valist "w[:] = 0.25"
    [ (0, 0.25); (1, 0.25); (2, 0.25) ]
    (ventries w)

let test_reduce_and_apply_builtins () =
  let u = vec [ 1.0; 2.0; 3.0 ] in
  let w = Ogb.Container.vector_empty 3 in
  let env =
    run_program
      ~bindings:[ ("u", wrap u); ("w", wrap w) ]
      [ Assign ("total", Call (Var "reduce", [ Var "u" ]));
        With
          ( [ Call (Var "UnaryOp", [ s "Times"; f 2.0 ]) ],
            [ SetIndex (Var "w", Const Value.Nil, Call (Var "apply", [ Var "u" ])) ] ) ]
  in
  Alcotest.check Alcotest.string "reduce" "6" (Value.to_string (Env.lookup env "total"));
  Alcotest.check valist "apply" [ (0, 2.0); (1, 4.0); (2, 6.0) ] (ventries w)

let test_vector_matrix_builtins () =
  let env =
    run_program
      [ Assign ("v", Call (Var "Vector", [ ListLit [ f 1.0; f 2.0 ] ]));
        Assign ("m", Call (Var "Matrix", [ i 2; i 2; s "int64_t" ]));
        Assign ("n", Attr (Var "v", "nvals")) ]
  in
  Alcotest.check Alcotest.string "vector built" "2"
    (Value.to_string (Env.lookup env "n"));
  Alcotest.check Alcotest.string "matrix dtype" "int64_t"
    (Ogb.Container.dtype_name (unwrap (Env.lookup env "m")))

let test_element_access () =
  let u = vec [ 1.5; 2.5 ] in
  let env =
    run_program
      ~bindings:[ ("u", wrap u) ]
      [ Assign ("x", Index (Var "u", i 1));
        SetIndex (Var "u", i 0, f 9.0);
        Assign ("y", Index (Var "u", i 0)) ]
  in
  Alcotest.check Alcotest.string "read element" "2.5"
    (Value.to_string (Env.lookup env "x"));
  Alcotest.check Alcotest.string "written element" "9"
    (Value.to_string (Env.lookup env "y"))

let test_error_unsupported_binary () =
  let u = vec [ 1.0 ] in
  let env = fresh_env () in
  Env.define env "u" (wrap u);
  match Interp.eval env (Binary ("-", Var "u", Var "u")) with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected unsupported-binary error"

(* labelprop's host-side steps against their element-by-element
   spelling: rows without a label stay empty, the old one-hot contents
   go, and decode writes only where best has an entry. *)
let test_label_onehot_decode () =
  let module C = Ogb.Container in
  let i64 = Gbtl.Dtype.P Gbtl.Dtype.Int64 in
  let n = 7 in
  let labels_of alist = C.vector_coo ~dtype:i64 ~size:n alist in
  let alist = [ (0, 3.0); (2, 0.0); (3, 3.0); (6, 6.0) ] in
  List.iter
    (fun labels ->
      let onehot =
        C.matrix_coo ~dtype:i64 ~nrows:n ~ncols:n [ (1, 1, 5.0); (4, 2, 7.0) ]
      in
      Ogb.Vm_bridge.label_onehot_into labels onehot;
      Alcotest.(check (list (triple int int (float 0.0))))
        "one entry per labelled row"
        (List.map (fun (v, l) -> (v, int_of_float l, 1.0)) alist)
        (C.matrix_entries onehot);
      (* best 9 at v = 1 and 17 at v = 6: labels n - (b mod (n + 1)) *)
      let best = C.vector_coo ~dtype:i64 ~size:n [ (1, 9.0); (6, 17.0) ] in
      Ogb.Vm_bridge.label_decode_into best labels;
      Alcotest.(check (list (pair int (float 0.0))))
        "decoded where best has an entry"
        [ (0, 3.0); (1, 6.0); (2, 0.0); (3, 3.0); (6, 6.0) ]
        (C.vector_entries labels))
    [ labels_of alist;
      (let l = labels_of alist in
       (match l with C.Vec (_, v) -> Gbtl.Svector.densify v | C.Mat _ -> ());
       l) ];
  match
    Ogb.Vm_bridge.label_onehot_into (labels_of [ (0, 7.0) ])
      (C.matrix_empty ~dtype:i64 n n)
  with
  | exception Gbtl.Smatrix.Index_out_of_bounds _ -> ()
  | () -> Alcotest.fail "a label outside the columns must raise"

let suite =
  [ Alcotest.test_case "@ operator" `Quick test_matmul_operator;
    Alcotest.test_case "with Semiring context" `Quick
      test_with_context_semiring;
    Alcotest.test_case "+ and * operators" `Quick test_ewise_operators;
    Alcotest.test_case ".T / .nvals / .shape" `Quick
      test_transpose_attr_and_nvals;
    Alcotest.test_case "masked assignment" `Quick test_masked_assignment;
    Alcotest.test_case "masked view scalar assign" `Quick
      test_masked_view_scalar_assign;
    Alcotest.test_case "update (+=)" `Quick test_update_method;
    Alcotest.test_case "scalar fill" `Quick test_scalar_fill;
    Alcotest.test_case "reduce/apply builtins" `Quick
      test_reduce_and_apply_builtins;
    Alcotest.test_case "Vector/Matrix builtins" `Quick
      test_vector_matrix_builtins;
    Alcotest.test_case "element access" `Quick test_element_access;
    Alcotest.test_case "unsupported binary errors" `Quick
      test_error_unsupported_binary;
    Alcotest.test_case "label_onehot / label_decode" `Quick
      test_label_onehot_decode;
  ]
