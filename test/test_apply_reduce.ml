open Gbtl

let f64 = Dtype.FP64
let mk_vec = Dense_ref.svector_of_vec f64
let alist = Alcotest.(list (pair int (float 0.0)))

let test_apply_vector () =
  let u = Svector.of_coo f64 4 [ (0, 2.0); (2, -3.0) ] in
  let w = Svector.create f64 4 in
  Apply_reduce.apply_vector (Unaryop.additive_inverse f64) ~out:w u;
  Alcotest.check alist "negated" [ (0, -2.0); (2, 3.0) ] (Svector.to_alist w)

let test_apply_bound_binop () =
  (* PageRank's damping step: m = apply(Times(0.85), m) *)
  let m = Smatrix.of_coo f64 2 2 [ (0, 1, 2.0); (1, 0, 4.0) ] in
  let out = Smatrix.create f64 2 2 in
  Apply_reduce.apply_matrix
    (Unaryop.bind2nd f64 (Binop.times f64) 0.5)
    ~out m;
  Alcotest.check
    Alcotest.(list (triple int int (float 0.0)))
    "scaled" [ (0, 1, 1.0); (1, 0, 2.0) ] (Smatrix.to_coo out)

let test_apply_preserves_structure () =
  let u = Svector.of_coo f64 4 [ (1, 0.0) ] in
  let w = Svector.create f64 4 in
  Apply_reduce.apply_vector (Unaryop.identity f64) ~out:w u;
  Alcotest.check Alcotest.int "stored zero stays stored" 1 (Svector.nvals w)

let test_reduce_rows () =
  let a =
    Smatrix.of_coo f64 3 3 [ (0, 0, 1.0); (0, 2, 2.0); (2, 1, 5.0) ]
  in
  let w = Svector.create f64 3 in
  Apply_reduce.reduce_rows (Monoid.plus f64) ~out:w a;
  Alcotest.check alist "row sums; empty row 1 has no entry"
    [ (0, 3.0); (2, 5.0) ]
    (Svector.to_alist w)

let test_reduce_cols_via_transpose () =
  let a = Smatrix.of_coo f64 2 3 [ (0, 0, 1.0); (1, 0, 2.0); (1, 2, 7.0) ] in
  let w = Svector.create f64 3 in
  Apply_reduce.reduce_rows ~transpose:true (Monoid.plus f64) ~out:w a;
  Alcotest.check alist "column sums" [ (0, 3.0); (2, 7.0) ] (Svector.to_alist w)

let test_reduce_scalar () =
  let a = Smatrix.of_coo f64 3 3 [ (0, 0, 1.0); (1, 2, 2.0); (2, 1, 4.0) ] in
  Alcotest.check (Alcotest.float 0.0) "sum all" 7.0
    (Apply_reduce.reduce_matrix_scalar (Monoid.plus f64) a);
  Alcotest.check (Alcotest.float 0.0) "max all" 4.0
    (Apply_reduce.reduce_matrix_scalar (Monoid.max f64) a);
  Alcotest.check (Alcotest.float 0.0) "empty matrix reduces to identity" 0.0
    (Apply_reduce.reduce_matrix_scalar (Monoid.plus f64)
       (Smatrix.create f64 2 2))

let test_reduce_scalar_accum () =
  let u = Svector.of_coo f64 3 [ (0, 1.0); (1, 2.0) ] in
  Alcotest.check (Alcotest.float 0.0) "s = s + reduce(u)" 13.0
    (Apply_reduce.reduce_vector_scalar ~accum:(Binop.plus f64) ~init:10.0
       (Monoid.plus f64) u)

let gen_apply =
  QCheck.Gen.(
    Helpers.vec_gen 6 >>= fun u ->
    Helpers.vec_gen 6 >>= fun c ->
    Helpers.vmask_gen 6 >>= fun mask ->
    Helpers.accum_gen >>= fun accum ->
    bool >|= fun replace -> (u, c, mask, accum, replace))

let qcheck_apply =
  Helpers.qtest ~count:400 "apply matches dense model" (Helpers.arb gen_apply)
    (fun (u, c, mask, accum, replace) ->
      let f = Unaryop.additive_inverse f64 in
      let out = mk_vec c in
      Apply_reduce.apply_vector ~mask ?accum ~replace f ~out (mk_vec u);
      let t = Dense_ref.apply_vec_t f u in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (mk_vec expected))

let qcheck_reduce_rows =
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 5 6 >>= fun a ->
      Helpers.vec_gen 5 >>= fun c ->
      Helpers.vmask_gen 5 >>= fun mask ->
      Helpers.accum_gen >>= fun accum ->
      bool >|= fun replace -> (a, c, mask, accum, replace))
  in
  Helpers.qtest ~count:400 "reduce_rows matches dense model"
    (Helpers.arb gen) (fun (a, c, mask, accum, replace) ->
      let m = Monoid.plus f64 in
      let out = mk_vec c in
      Apply_reduce.reduce_rows ~mask ?accum ~replace m ~out
        (Dense_ref.smatrix_of_mat f64 5 6 a);
      let t = Dense_ref.reduce_rows_t m a in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (mk_vec expected))

let qcheck_reduce_scalar =
  Helpers.qtest ~count:400 "matrix scalar reduce matches dense model"
    (Helpers.arb (Helpers.mat_gen 5 6)) (fun a ->
      let m = Monoid.plus f64 in
      Apply_reduce.reduce_matrix_scalar m (Dense_ref.smatrix_of_mat f64 5 6 a)
      = Dense_ref.reduce_scalar_t m a)

(* -- the CSR loops of select, apply and reduce_rows at the dtypes the
   kernels are written for; stored operands are 5x7 -- *)

let typed_matrix_gen =
  QCheck.Gen.(
    oneofl Helpers.typed_dtypes >>= fun dt ->
    Helpers.pattern_gen 5 7 >>= fun a ->
    bool >|= fun transpose -> (dt, a, transpose))

let predicates =
  List.concat_map
    (fun k -> Select.[ Tril k; Triu k ])
    [ -2; -1; 0; 1; 2 ]
  @ Select.[ Diag; Offdiag; Nonzero ]
  @ List.concat_map
      (fun v -> Select.[ Value_gt v; Value_ge v; Value_lt v; Value_le v;
                         Value_eq v; Value_ne v ])
      [ -1.0; 0.0; 1.0; 2.5 ]

(* the predicates' meaning, spelled out independently of [Select.accepts] *)
let selected (type a) (dt : a Dtype.t) pred r c (x : a) =
  let f = Dtype.to_float dt x in
  match pred with
  | Select.Tril k -> c - r <= k
  | Select.Triu k -> c - r >= k
  | Select.Diag -> r = c
  | Select.Offdiag -> r <> c
  | Select.Nonzero -> f <> 0.0
  | Select.Value_gt v -> f > v
  | Select.Value_ge v -> f >= v
  | Select.Value_lt v -> f < v
  | Select.Value_le v -> f <= v
  | Select.Value_eq v -> f = v
  | Select.Value_ne v -> f <> v

let select_typed (type a) (dt : a Dtype.t) a pred =
  let a = Helpers.typed dt a in
  let out = Smatrix.create dt 5 7 in
  Select.matrix pred ~out (Dense_ref.smatrix_of_mat dt 5 7 a);
  let expected =
    Array.mapi
      (fun r row ->
        Array.mapi
          (fun c -> function
            | Some x when selected dt pred r c x -> Some x
            | Some _ | None -> None)
          row)
      a
  in
  Smatrix.equal out (Dense_ref.smatrix_of_mat dt 5 7 expected)

let qcheck_select_typed =
  Helpers.qtest ~count:400
    "select (every predicate) at Bool/Int32/Int64/FP64 matches dense model"
    (Helpers.arb
       QCheck.Gen.(pair typed_matrix_gen (oneofl predicates)))
    (fun ((Dtype.P dt, a, _), pred) -> select_typed dt a pred)

let apply_typed (type a) (dt : a Dtype.t) a ~transpose op =
  let a = Helpers.typed dt a in
  let f =
    match op with
    | `Named n -> Unaryop.of_name n dt
    | `Times k -> Unaryop.bind2nd dt (Binop.times dt) (Dtype.of_int dt k)
    | `Minus k -> Unaryop.bind1st dt (Binop.minus dt) (Dtype.of_int dt k)
  in
  let nrows, ncols = if transpose then (7, 5) else (5, 7) in
  let out = Smatrix.create dt nrows ncols in
  Apply_reduce.apply_matrix ~transpose f ~out
    (Dense_ref.smatrix_of_mat dt 5 7 a);
  let model = if transpose then Dense_ref.transpose_mat a else a in
  Smatrix.equal out
    (Dense_ref.smatrix_of_mat dt nrows ncols
       (Array.map (Dense_ref.apply_vec_t f) model))

let qcheck_apply_matrix_typed =
  Helpers.qtest ~count:400
    "matrix apply at Bool/Int32/Int64/FP64 matches dense model"
    (Helpers.arb
       QCheck.Gen.(
         pair typed_matrix_gen
           (oneofl
              [ `Named "Identity"; `Named "AdditiveInverse";
                `Named "LogicalNot"; `Times 3; `Minus 2 ])))
    (fun ((Dtype.P dt, a, transpose), op) -> apply_typed dt a ~transpose op)

let reduce_rows_typed (type a) (dt : a Dtype.t) a ~transpose monoid =
  let a = Helpers.typed dt a in
  let m = Monoid.of_names ~op:(fst monoid) ~identity:(snd monoid) dt in
  let size = if transpose then 7 else 5 in
  let out = Svector.create dt size in
  Apply_reduce.reduce_rows ~transpose m ~out
    (Dense_ref.smatrix_of_mat dt 5 7 a);
  let model = if transpose then Dense_ref.transpose_mat a else a in
  Svector.equal out
    (Dense_ref.svector_of_vec dt (Dense_ref.reduce_rows_t m model))

let qcheck_reduce_rows_typed =
  Helpers.qtest ~count:400
    "reduce_rows at Bool/Int32/Int64/FP64 matches dense model"
    (Helpers.arb
       QCheck.Gen.(
         pair typed_matrix_gen
           (oneofl
              [ ("Plus", "Zero"); ("Times", "One"); ("Min", "MinIdentity");
                ("Max", "MaxIdentity") ])))
    (fun ((Dtype.P dt, a, transpose), monoid) ->
      reduce_rows_typed dt a ~transpose monoid)

let suite =
  [ Alcotest.test_case "apply vector" `Quick test_apply_vector;
    Alcotest.test_case "apply bound binop" `Quick test_apply_bound_binop;
    Alcotest.test_case "apply keeps structure" `Quick
      test_apply_preserves_structure;
    Alcotest.test_case "reduce rows" `Quick test_reduce_rows;
    Alcotest.test_case "reduce cols (transpose)" `Quick
      test_reduce_cols_via_transpose;
    Alcotest.test_case "reduce to scalar" `Quick test_reduce_scalar;
    Alcotest.test_case "reduce scalar with accum" `Quick
      test_reduce_scalar_accum;
    Helpers.to_alcotest qcheck_apply;
    Helpers.to_alcotest qcheck_reduce_rows;
    Helpers.to_alcotest qcheck_reduce_scalar;
    Helpers.to_alcotest qcheck_select_typed;
    Helpers.to_alcotest qcheck_apply_matrix_typed;
    Helpers.to_alcotest qcheck_reduce_rows_typed;
  ]
