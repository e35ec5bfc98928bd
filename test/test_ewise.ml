open Gbtl

let f64 = Dtype.FP64
let mk_vec = Dense_ref.svector_of_vec f64
let alist = Alcotest.(list (pair int (float 0.0)))

let test_add_union () =
  let u = Svector.of_coo f64 5 [ (0, 1.0); (2, 2.0) ] in
  let v = Svector.of_coo f64 5 [ (2, 10.0); (4, 20.0) ] in
  let w = Svector.create f64 5 in
  Ewise.vector_add (Binop.plus f64) ~out:w u v;
  Alcotest.check alist "union with op on intersection"
    [ (0, 1.0); (2, 12.0); (4, 20.0) ]
    (Svector.to_alist w)

let test_mult_intersection () =
  let u = Svector.of_coo f64 5 [ (0, 1.0); (2, 2.0) ] in
  let v = Svector.of_coo f64 5 [ (2, 10.0); (4, 20.0) ] in
  let w = Svector.create f64 5 in
  Ewise.vector_mult (Binop.times f64) ~out:w u v;
  Alcotest.check alist "intersection only" [ (2, 20.0) ] (Svector.to_alist w)

let test_add_with_minus_is_not_symmetric () =
  (* eWiseAdd with Minus: the operator applies only where both stored —
     singletons pass through unnegated (a classic GraphBLAS gotcha). *)
  let u = Svector.of_coo f64 3 [ (0, 5.0) ] in
  let v = Svector.of_coo f64 3 [ (0, 3.0); (1, 7.0) ] in
  let w = Svector.create f64 3 in
  Ewise.vector_add (Binop.minus f64) ~out:w u v;
  Alcotest.check alist "minus on both, passthrough on singleton"
    [ (0, 2.0); (1, 7.0) ]
    (Svector.to_alist w)

let test_matrix_add () =
  let a = Smatrix.of_coo f64 2 2 [ (0, 0, 1.0); (1, 1, 2.0) ] in
  let b = Smatrix.of_coo f64 2 2 [ (0, 0, 10.0); (0, 1, 20.0) ] in
  let c = Smatrix.create f64 2 2 in
  Ewise.matrix_add (Binop.plus f64) ~out:c a b;
  Alcotest.check
    Alcotest.(list (triple int int (float 0.0)))
    "matrix union"
    [ (0, 0, 11.0); (0, 1, 20.0); (1, 1, 2.0) ]
    (Smatrix.to_coo c)

let test_size_mismatch () =
  let u = Svector.create f64 3 and v = Svector.create f64 4 in
  let w = Svector.create f64 3 in
  Alcotest.check_raises "size mismatch"
    (Svector.Dimension_mismatch "eWiseAdd: expected size 3, actual size 4")
    (fun () ->
      Ewise.vector_add (Binop.plus f64) ~out:w u v)

let gen_pair_masked =
  QCheck.Gen.(
    Helpers.vec_gen 6 >>= fun u ->
    Helpers.vec_gen 6 >>= fun v ->
    Helpers.vec_gen 6 >>= fun c ->
    Helpers.vmask_gen 6 >>= fun mask ->
    Helpers.binop_gen >>= fun op ->
    Helpers.accum_gen >>= fun accum ->
    bool >|= fun replace -> (u, v, c, mask, op, accum, replace))

let qcheck_vector_add =
  Helpers.qtest ~count:400 "eWiseAdd vector matches dense model"
    (Helpers.arb gen_pair_masked)
    (fun (u, v, c, mask, op, accum, replace) ->
      let out = mk_vec c in
      Ewise.vector_add ~mask ?accum ~replace op ~out (mk_vec u) (mk_vec v);
      let t = Dense_ref.ewise_vec_t ~union:true op u v in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (mk_vec expected))

let qcheck_vector_mult =
  Helpers.qtest ~count:400 "eWiseMult vector matches dense model"
    (Helpers.arb gen_pair_masked)
    (fun (u, v, c, mask, op, accum, replace) ->
      let out = mk_vec c in
      Ewise.vector_mult ~mask ?accum ~replace op ~out (mk_vec u) (mk_vec v);
      let t = Dense_ref.ewise_vec_t ~union:false op u v in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (mk_vec expected))

let gen_matrix_masked =
  QCheck.Gen.(
    Helpers.mat_gen 4 5 >>= fun a ->
    Helpers.mat_gen 4 5 >>= fun b ->
    Helpers.mat_gen 4 5 >>= fun c ->
    Helpers.mmask_gen 4 5 >>= fun mask ->
    Helpers.binop_gen >>= fun op ->
    Helpers.accum_gen >>= fun accum ->
    bool >|= fun replace -> (a, b, c, mask, op, accum, replace))

let qcheck_matrix_add =
  Helpers.qtest ~count:300 "eWiseAdd matrix matches dense model"
    (Helpers.arb gen_matrix_masked)
    (fun (a, b, c, mask, op, accum, replace) ->
      let out = Dense_ref.smatrix_of_mat f64 4 5 c in
      Ewise.matrix_add ~mask ?accum ~replace op
        ~out
        (Dense_ref.smatrix_of_mat f64 4 5 a)
        (Dense_ref.smatrix_of_mat f64 4 5 b);
      let t = Dense_ref.ewise_mat_t ~union:true op a b in
      let expected =
        Dense_ref.write_mat ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Smatrix.equal out (Dense_ref.smatrix_of_mat f64 4 5 expected))

let qcheck_matrix_mult =
  Helpers.qtest ~count:300 "eWiseMult matrix matches dense model"
    (Helpers.arb gen_matrix_masked)
    (fun (a, b, c, mask, op, accum, replace) ->
      let out = Dense_ref.smatrix_of_mat f64 4 5 c in
      Ewise.matrix_mult ~mask ?accum ~replace op
        ~out
        (Dense_ref.smatrix_of_mat f64 4 5 a)
        (Dense_ref.smatrix_of_mat f64 4 5 b);
      let t = Dense_ref.ewise_mat_t ~union:false op a b in
      let expected =
        Dense_ref.write_mat ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Smatrix.equal out (Dense_ref.smatrix_of_mat f64 4 5 expected))

let qcheck_structural_laws =
  Helpers.qtest ~count:300 "pattern algebra: nvals(add) and nvals(mult)"
    (Helpers.arb QCheck.Gen.(pair (Helpers.vec_gen 8) (Helpers.vec_gen 8)))
    (fun (u, v) ->
      let su = mk_vec u and sv = mk_vec v in
      let add = Svector.create f64 8 and mult = Svector.create f64 8 in
      Ewise.vector_add (Binop.plus f64) ~out:add su sv;
      Ewise.vector_mult (Binop.times f64) ~out:mult su sv;
      Svector.nvals add + Svector.nvals mult
      = Svector.nvals su + Svector.nvals sv)

(* -- the CSR merge at the dtypes the kernels are written for -- *)

let ewise_typed (type a) (dt : a Dtype.t) a b ~union ~ta ~tb opname =
  let a = Helpers.typed dt a and b = Helpers.typed dt b in
  let op = Binop.of_name opname dt in
  (* the logical operands are 5x7; a transposed one is stored 7x5 *)
  let stored m t =
    Dense_ref.smatrix_of_mat_auto dt (if t then Dense_ref.transpose_mat m else m)
  in
  let out = Smatrix.create dt 5 7 in
  (if union then Ewise.matrix_add else Ewise.matrix_mult)
    ~transpose_a:ta ~transpose_b:tb op ~out (stored a ta) (stored b tb);
  Smatrix.equal out
    (Dense_ref.smatrix_of_mat dt 5 7 (Dense_ref.ewise_mat_t ~union op a b))

let qcheck_matrix_ewise_typed =
  let gen =
    QCheck.Gen.(
      oneofl Helpers.typed_dtypes >>= fun dt ->
      pair (Helpers.pattern_gen 5 7) (Helpers.pattern_gen 5 7)
      >>= fun (a, b) ->
      triple bool (pair bool bool)
        (oneofl [ "Plus"; "Minus"; "Times"; "Min"; "Max"; "First"; "Second" ])
      >|= fun (union, ts, op) -> (dt, a, b, union, ts, op))
  in
  Helpers.qtest ~count:400
    "matrix eWiseAdd/eWiseMult at Bool/Int32/Int64/FP64 matches dense model"
    (Helpers.arb gen)
    (fun (Dtype.P dt, a, b, union, (ta, tb), op) ->
      ewise_typed dt a b ~union ~ta ~tb op)

let suite =
  [ Alcotest.test_case "add is union" `Quick test_add_union;
    Alcotest.test_case "mult is intersection" `Quick test_mult_intersection;
    Alcotest.test_case "add with Minus passthrough" `Quick
      test_add_with_minus_is_not_symmetric;
    Alcotest.test_case "matrix add" `Quick test_matrix_add;
    Alcotest.test_case "size mismatch" `Quick test_size_mismatch;
    Helpers.to_alcotest qcheck_vector_add;
    Helpers.to_alcotest qcheck_vector_mult;
    Helpers.to_alcotest qcheck_matrix_add;
    Helpers.to_alcotest qcheck_matrix_mult;
    Helpers.to_alcotest qcheck_structural_laws;
    Helpers.to_alcotest qcheck_matrix_ewise_typed;
  ]
