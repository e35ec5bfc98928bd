(* mxv / vxm / mxm against the dense reference model, across random
   semirings, masks, accumulators, replace flags and transposes. *)

open Gbtl

let f64 = Dtype.FP64

let mk_vec = Dense_ref.svector_of_vec f64
let mk_mat = Dense_ref.smatrix_of_mat f64

(* Fixed small example: the BFS frontier step of the paper's Fig. 1. *)
let test_bfs_ply () =
  (* 7-vertex graph of Fig. 1; edge list of the directed adjacency. *)
  let edges =
    [ (0, 1); (0, 3); (1, 4); (1, 6); (2, 5); (3, 0); (3, 2); (4, 5);
      (5, 2); (6, 2); (6, 3); (6, 4) ]
  in
  let a =
    Smatrix.of_coo Dtype.Bool 7 7 (List.map (fun (r, c) -> (r, c, true)) edges)
  in
  let frontier = Svector.of_coo Dtype.Bool 7 [ (3, true) ] in
  let next = Svector.create Dtype.Bool 7 in
  (* next = Aᵀ ⊕.⊗ frontier over the logical semiring: vertices reachable
     from the frontier. *)
  Matmul.mxv ~transpose_a:true (Semiring.logical Dtype.Bool) ~out:next a
    frontier;
  Alcotest.check
    Alcotest.(list (pair int bool))
    "one ply from vertex 3"
    [ (0, true); (2, true) ]
    (Svector.to_alist next)

let test_mxv_simple () =
  let a = Smatrix.of_dense f64 [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let u = Svector.of_dense f64 [| 10.0; 100.0 |] in
  let w = Svector.create f64 2 in
  Matmul.mxv (Semiring.arithmetic f64) ~out:w a u;
  Alcotest.check
    Alcotest.(list (pair int (float 0.0)))
    "A*u" [ (0, 210.0); (1, 430.0) ] (Svector.to_alist w)

let test_mxv_empty_rows_produce_no_entries () =
  let a = Smatrix.of_coo f64 3 3 [ (0, 1, 2.0) ] in
  let u = Svector.of_coo f64 3 [ (1, 5.0) ] in
  let w = Svector.create f64 3 in
  Matmul.mxv (Semiring.arithmetic f64) ~out:w a u;
  Alcotest.check Alcotest.int "only one output entry" 1 (Svector.nvals w)

let test_mxm_simple () =
  let a = Smatrix.of_dense f64 [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Smatrix.of_dense f64 [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Smatrix.create f64 2 2 in
  Matmul.mxm (Semiring.arithmetic f64) ~out:c a b;
  Alcotest.check
    Alcotest.(array (array (float 0.0)))
    "A*B"
    [| [| 19.0; 22.0 |]; [| 43.0; 50.0 |] |]
    (Smatrix.to_dense ~fill:nan c)

let test_min_plus_shortest_path_step () =
  (* one relaxation of SSSP: path = Aᵀ min.+ path *)
  let a = Smatrix.of_coo f64 3 3 [ (0, 1, 5.0); (1, 2, 2.0); (0, 2, 9.0) ] in
  let path = Svector.of_coo f64 3 [ (0, 0.0) ] in
  let out = Svector.create f64 3 in
  Matmul.mxv ~transpose_a:true (Semiring.min_plus f64) ~out a path;
  Alcotest.check
    Alcotest.(list (pair int (float 0.0)))
    "distances after one hop"
    [ (1, 5.0); (2, 9.0) ]
    (Svector.to_alist out)

let test_dimension_errors () =
  let a = Smatrix.create f64 2 3 in
  let u = Svector.create f64 2 in
  let w = Svector.create f64 2 in
  Alcotest.check_raises "mxv inner mismatch"
    (Smatrix.Dimension_mismatch "mxv: expected vector size 3, actual size 2")
    (fun () -> Matmul.mxv (Semiring.arithmetic f64) ~out:w a u)

(* -- randomized equivalence -- *)

let param_gen =
  QCheck.Gen.(
    Helpers.semiring_gen >>= fun sr ->
    Helpers.accum_gen >>= fun accum ->
    bool >|= fun replace -> (sr, accum, replace))

let qcheck_mxv =
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 5 6 >>= fun a ->
      Helpers.vec_gen 6 >>= fun u ->
      Helpers.vec_gen 5 >>= fun c ->
      Helpers.vmask_gen 5 >>= fun mask ->
      param_gen >|= fun p -> (a, u, c, mask, p))
  in
  Helpers.qtest ~count:400 "mxv matches dense model" (Helpers.arb gen)
    (fun (a, u, c, mask, (sr, accum, replace)) ->
      let out = mk_vec c in
      Matmul.mxv ~mask ?accum ~replace sr ~out (mk_mat 5 6 a) (mk_vec u);
      let t = Dense_ref.mxv_t sr a u in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (mk_vec expected))

let qcheck_mxv_transposed =
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 6 5 >>= fun a ->
      Helpers.vec_gen 6 >>= fun u ->
      Helpers.vec_gen 5 >>= fun c ->
      Helpers.vmask_gen 5 >>= fun mask ->
      param_gen >|= fun p -> (a, u, c, mask, p))
  in
  Helpers.qtest ~count:400 "mxv with transpose_a matches dense model"
    (Helpers.arb gen) (fun (a, u, c, mask, (sr, accum, replace)) ->
      let out = mk_vec c in
      Matmul.mxv ~mask ?accum ~replace ~transpose_a:true sr ~out (mk_mat 6 5 a)
        (mk_vec u);
      let t = Dense_ref.mxv_t sr (Dense_ref.transpose_mat a) u in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (mk_vec expected))

let qcheck_vxm =
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 5 6 >>= fun a ->
      Helpers.vec_gen 5 >>= fun u ->
      Helpers.vec_gen 6 >>= fun c ->
      Helpers.vmask_gen 6 >>= fun mask ->
      param_gen >|= fun p -> (a, u, c, mask, p))
  in
  Helpers.qtest ~count:400 "vxm matches dense model" (Helpers.arb gen)
    (fun (a, u, c, mask, (sr, accum, replace)) ->
      let out = mk_vec c in
      Matmul.vxm ~mask ?accum ~replace sr ~out (mk_vec u) (mk_mat 5 6 a);
      let t = Dense_ref.vxm_t sr u a in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (mk_vec expected))

let qcheck_vxm_transposed =
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 6 5 >>= fun a ->
      Helpers.vec_gen 5 >>= fun u ->
      Helpers.vec_gen 6 >>= fun c ->
      Helpers.vmask_gen 6 >>= fun mask ->
      param_gen >|= fun p -> (a, u, c, mask, p))
  in
  Helpers.qtest ~count:400 "vxm with transpose_a matches dense model"
    (Helpers.arb gen) (fun (a, u, c, mask, (sr, accum, replace)) ->
      let out = mk_vec c in
      Matmul.vxm ~mask ?accum ~replace ~transpose_a:true sr ~out (mk_vec u)
        (mk_mat 6 5 a);
      let t = Dense_ref.vxm_t sr u (Dense_ref.transpose_mat a) in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Svector.equal out (mk_vec expected))

let qcheck_mxm =
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 4 5 >>= fun a ->
      Helpers.mat_gen 5 4 >>= fun b ->
      Helpers.mat_gen 4 4 >>= fun c ->
      Helpers.mmask_gen 4 4 >>= fun mask ->
      pair bool bool >>= fun (ta, tb) ->
      param_gen >|= fun p -> (a, b, c, mask, ta, tb, p))
  in
  Helpers.qtest ~count:400
    "mxm matches dense model (all transpose combinations)" (Helpers.arb gen)
    (fun (a, b, c, mask, ta, tb, (sr, accum, replace)) ->
      (* logical product is a(4x5) * b(5x4); arguments are pre-transposed
         so the transpose flags undo it *)
      let a_sp =
        Dense_ref.smatrix_of_mat_auto f64
          (if ta then Dense_ref.transpose_mat a else a)
      and b_sp =
        Dense_ref.smatrix_of_mat_auto f64
          (if tb then Dense_ref.transpose_mat b else b)
      in
      let out = mk_mat 4 4 c in
      Matmul.mxm ~mask ?accum ~replace ~transpose_a:ta ~transpose_b:tb sr
        ~out a_sp b_sp;
      let t = Dense_ref.mxm_t sr a b in
      let expected =
        Dense_ref.write_mat ~mask ~accum:(Dense_ref.accum_f accum) ~replace c t
      in
      Smatrix.equal out (mk_mat 4 4 expected))

let qcheck_mxm_masked_dot_path =
  (* pin the masked + transpose_b special kernel against the generic one *)
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 5 6 >>= fun a ->
      Helpers.mat_gen 5 6 >>= fun b ->
      Helpers.mat_gen 5 5 >>= fun c ->
      Helpers.mmask_gen 5 5 >|= fun mask -> (a, b, c, mask))
  in
  Helpers.qtest ~count:400 "masked dot-product mxm path" (Helpers.arb gen)
    (fun (a, b, c, mask) ->
      let sr = Semiring.arithmetic f64 in
      let out = mk_mat 5 5 c in
      Matmul.mxm ~mask ~transpose_b:true sr ~out (mk_mat 5 6 a) (mk_mat 5 6 b);
      let t = Dense_ref.mxm_t sr a (Dense_ref.transpose_mat b) in
      let expected = Dense_ref.write_mat ~mask ~accum:None ~replace:false c t in
      Smatrix.equal out (mk_mat 5 5 expected))

(* -- the masked dot kernel against the merge it replaced -- *)

(* Magnitudes from 1e-8 to 1e16 of both signs: reordering a sum of these
   changes its bits. *)
let order_sensitive_float =
  QCheck.Gen.(
    map3
      (fun m e neg ->
        let x = m *. (10.0 ** float_of_int e) in
        if neg then -.x else x)
      (float_range 1.0 10.0) (int_range (-8) 16) bool)

(* Mostly sparse rows, some empty ones and a few dense hub rows. *)
let skewed_mat_gen nrows ncols =
  let open QCheck.Gen in
  let row =
    frequency [ (2, return 0.0); (1, return 0.9); (7, return 0.15) ]
    >>= fun density ->
    list_repeat ncols
      ( float_bound_inclusive 1.0 >>= fun u ->
        if u < density then map Option.some order_sensitive_float
        else return None )
    >|= Array.of_list
  in
  list_repeat nrows row >|= Array.of_list

(* A mask with stored-true, stored-false and absent cells. *)
let mask_with_false_gen nrows ncols =
  let open QCheck.Gen in
  list_repeat (nrows * ncols)
    (frequency
       [ (5, return None); (4, return (Some true)); (1, return (Some false)) ])
  >|= fun cells ->
  Smatrix.of_coo Dtype.Bool nrows ncols
    (List.concat
       (List.mapi
          (fun k -> function
            | Some b -> [ (k / ncols, k mod ncols, b) ]
            | None -> [])
          cells))

let bits_equal a b =
  let key (r, c, x) = (r, c, Int64.bits_of_float x) in
  Smatrix.shape a = Smatrix.shape b
  && List.map key (Smatrix.to_coo a) = List.map key (Smatrix.to_coo b)

let qcheck_mxm_dot_matches_merge =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 40) (int_range 1 40) (int_range 1 40)
      >>= fun (m, k, n) ->
      skewed_mat_gen m k >>= fun a ->
      skewed_mat_gen n k >>= fun b ->
      mask_with_false_gen m n >>= fun mask ->
      oneofl Semiring.names >>= fun sr ->
      bool >|= fun ta -> (a, b, mask, sr, ta))
  in
  Helpers.qtest ~count:300 "masked dot kernel matches the merge bit for bit"
    (Helpers.arb gen) (fun (a, b, mask, sr, ta) ->
      let sr = Semiring.of_name sr f64 in
      let a = Dense_ref.smatrix_of_mat_auto f64 a
      and b = Dense_ref.smatrix_of_mat_auto f64 b in
      let out = Smatrix.create f64 (Smatrix.nrows a) (Smatrix.nrows b) in
      Matmul.mxm ~mask:(Mask.mmask mask) ~transpose_a:ta ~transpose_b:true sr
        ~out
        (if ta then Smatrix.transpose a else a)
        b;
      bits_equal out (Dense_ref.mxm_dot_merge sr ~mask a b))

(* -- the Gustavson product across its row-emission paths --
   400 output columns: a row that touches at most 16 is insertion-sorted,
   one of 17..49 merge-sorted, one of 50 or more (an eighth) emitted by
   a scan of the accumulator.  B's rows hold 0 to 80 random columns and
   A's rows are empty, full or sparse, so the unions span all three. *)
let gustavson_cols = 400

let gustavson_b_gen inner =
  let open QCheck.Gen in
  array_repeat inner
    ( oneofl [ 0; 3; 10; 30; 80 ] >>= fun k ->
      list_repeat k
        (pair (int_bound (gustavson_cols - 1)) (int_range (-4) 4))
      >|= fun cells ->
      let row = Array.make gustavson_cols None in
      List.iter (fun (c, x) -> row.(c) <- Some x) cells;
      row )

let gustavson_typed (type a) (dt : a Dtype.t) a b srname =
  let a = Helpers.typed dt a and b = Helpers.typed dt b in
  let nrows = Array.length a in
  let sr = Semiring.of_name srname dt in
  let expected =
    Dense_ref.smatrix_of_mat dt nrows gustavson_cols (Dense_ref.mxm_t sr a b)
  in
  let a_sp = Dense_ref.smatrix_of_mat_auto dt a
  and b_sp = Dense_ref.smatrix_of_mat_auto dt b in
  let out = Smatrix.create dt nrows gustavson_cols in
  Matmul.mxm sr ~out a_sp b_sp;
  let kernel =
    Jit.Kernels.mxm dt
      (Jit.Op_spec.semiring_of_name srname)
      ~transpose_a:false ~transpose_b:false ~mask:Mask.No_mmask a_sp b_sp
  in
  Smatrix.equal out expected && Smatrix.equal kernel expected

let qcheck_mxm_gustavson_emission =
  let gen =
    QCheck.Gen.(
      oneofl Helpers.typed_dtypes >>= fun dt ->
      Helpers.pattern_gen 12 10 >>= fun a ->
      gustavson_b_gen 10 >>= fun b ->
      oneofl [ "Arithmetic"; "MinPlus"; "MaxTimes"; "MinSelect2nd" ]
      >|= fun sr -> (dt, a, b, sr))
  in
  Helpers.qtest ~count:150
    "Gustavson mxm (sorted and scanned rows) matches dense model"
    (Helpers.arb gen) (fun (Dtype.P dt, a, b, sr) -> gustavson_typed dt a b sr)

(* -- the Int64 plus-times masked dot against the general kernel --
   [times_ref] is a user operator, so its semiring bypasses the
   specialization; values near max_int make both sides wrap. *)
let int_values =
  QCheck.Gen.(
    frequency
      [ (3, int_range (-4) 4);
        (1, map (fun d -> max_int - d) (int_bound 8));
        (1, map (fun d -> min_int + d) (int_bound 8));
        (1, int_range (-(1 lsl 40)) (1 lsl 40)) ])

let qcheck_mxm_dot_int64 =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 30) (int_range 1 30) (int_range 1 30)
      >>= fun (m, k, n) ->
      Helpers.pattern_gen ~values:int_values m k >>= fun a ->
      Helpers.pattern_gen ~values:int_values n k >>= fun b ->
      mask_with_false_gen m n >>= fun mask ->
      bool >|= fun via_spec -> (a, b, mask, via_spec))
  in
  Helpers.qtest ~count:300 "Int64 plus-times masked dot matches the general kernel"
    (Helpers.arb gen) (fun (a, b, mask, via_spec) ->
      let i64 = Dtype.Int64 in
      let a = Dense_ref.smatrix_of_mat_auto i64 (Helpers.typed i64 a)
      and b = Dense_ref.smatrix_of_mat_auto i64 (Helpers.typed i64 b) in
      let product sr =
        let out = Smatrix.create i64 (Smatrix.nrows a) (Smatrix.nrows b) in
        Matmul.mxm ~mask:(Mask.mmask mask) ~transpose_b:true sr ~out a b;
        out
      in
      let fast =
        if via_spec then Jit.Op_spec.instantiate_semiring i64 Jit.Op_spec.arithmetic
        else Semiring.arithmetic i64
      and general =
        Semiring.make (Monoid.plus i64) (Binop.make "times_ref" ( * ))
      in
      Smatrix.equal (product fast) (product general))

(* -- masks over non-Bool matrices --
   [Mask.mmask] of an Int64 or FP64 matrix is a Bool view over that
   matrix's own rowptr and colidx.  It must select what a mask over the
   matrix's Bool cast selects, stored zeros excluded, through the masked
   dot, the masked Gustavson product and the write step.  The operands
   share the mask's dtype, so Int64 runs the plus-times dot. *)
let nonbool_mask_agrees (type a) (dt : a Dtype.t)
    (a, b, mask, out, t, slack, replace) =
  let typed d = Dense_ref.smatrix_of_mat_auto dt (Helpers.typed dt d) in
  let a = typed a and b = typed b and out = typed out and t = typed t in
  let m = if slack then Helpers.with_slack (typed mask) else typed mask in
  let nrows = Smatrix.nrows a and ncols = Smatrix.nrows b in
  let sr = Semiring.arithmetic dt in
  let dot mask =
    let c = Smatrix.create dt nrows ncols in
    Matmul.mxm ~mask ~transpose_b:true sr ~out:c a b;
    c
  and gustavson mask =
    let c = Smatrix.create dt nrows ncols in
    Matmul.mxm ~mask sr ~out:c a (Smatrix.transpose b);
    c
  and write mask =
    let c = Smatrix.dup out in
    Output.write_matrix ~mask ~accum:None ~replace ~out:c
      ~t:(Array.init nrows (Smatrix.row_entries t));
    c
  in
  let view = Mask.mmask m
  and cast = Mask.mmask (Smatrix.cast ~into:Dtype.Bool m) in
  let zeros_excluded c =
    Smatrix.fold
      (fun ok r j x -> ok && (Dtype.to_bool dt x || Smatrix.get c r j = None))
      true m
  in
  let d = dot view and g = gustavson view in
  Smatrix.equal d (dot cast)
  && Smatrix.equal g (gustavson cast)
  && Smatrix.equal (write view) (write cast)
  && zeros_excluded d && zeros_excluded g

let qcheck_nonbool_mask =
  let gen =
    QCheck.Gen.(
      triple (int_range 1 12) (int_range 1 12) (int_range 1 12)
      >>= fun (m, k, n) ->
      oneofl [ Dtype.P Dtype.Int64; Dtype.P Dtype.FP64 ] >>= fun dt ->
      Helpers.pattern_gen m k >>= fun a ->
      Helpers.pattern_gen n k >>= fun b ->
      Helpers.pattern_gen ~values:(int_range (-1) 1) m n >>= fun mask ->
      Helpers.pattern_gen m n >>= fun out ->
      Helpers.pattern_gen m n >>= fun t ->
      pair bool bool >|= fun (slack, replace) ->
      (dt, (a, b, mask, out, t, slack, replace)))
  in
  Helpers.qtest ~count:300
    "non-Bool mask (stored zeros) selects what its Bool cast selects"
    (Helpers.arb gen) (fun (Dtype.P dt, case) -> nonbool_mask_agrees dt case)

(* The Int64 dot reads B unchecked after one pass over its structure:
   a stored column past A's width, or a row extent past B's arrays,
   must raise instead of reading out of bounds. *)
let test_mxm_dot_int64_rejects_malformed () =
  let i64 = Dtype.Int64 in
  let a = Smatrix.of_coo i64 2 3 [ (0, 0, 1); (1, 2, 1) ] in
  let mask = Smatrix.of_coo Dtype.Bool 2 2 [ (0, 0, true); (1, 1, true) ] in
  List.iter
    (fun (what, rowptr, colidx) ->
      let b =
        Smatrix.of_csr_unsafe i64 ~nrows:2 ~ncols:3 ~rowptr ~colidx
          ~values:[| 1; 1 |]
      in
      let out = Smatrix.create i64 2 2 in
      match
        Matmul.mxm ~mask:(Mask.mmask mask) ~transpose_b:true
          (Semiring.arithmetic i64) ~out a b
      with
      | () -> Alcotest.failf "%s: no error" what
      | exception Invalid_argument _ -> ())
    [ ("column past the width", [| 0; 1; 2 |], [| 0; 3 |]);
      ("row extent past the arrays", [| 0; 5; 2 |], [| 0; 1 |]) ]

(* C<C> = C ⊕.⊗ Cᵀ with an Int64 C: the mask is a view over C's own
   arrays while C is both operands and the output.  The dsl, nonblocking
   and vm tiers must each give what the statement gives on copies. *)
let self_masked_program =
  let open Minivm.Ast in
  [ Def
      ( "self_masked",
        [ "C" ],
        [ With
            ( [ Call (Var "Semiring", [ Const (Minivm.Value.Str "Arithmetic") ]) ],
              [ SetIndex
                  (Var "C", Var "C", Binary ("@", Var "C", Attr (Var "C", "T")))
              ] ) ] ) ]

let qcheck_self_masked_product =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let product ~mask ~out a b =
    Context.with_ops
      [ Context.semiring "Arithmetic" ]
      (fun () -> Ops.set ~mask:(Ops.Mask mask) out (!!a @. tr !!b))
  in
  let gen =
    QCheck.Gen.(
      int_range 1 16 >>= fun n ->
      Helpers.pattern_gen ~values:(int_range (-2) 2) n n >>= fun c ->
      bool >|= fun slack -> (c, slack))
  in
  Helpers.qtest ~count:100 "C<C> = C (+.*) C' over an Int64 C at every tier"
    (Helpers.arb gen) (fun (c, slack) ->
      let i64 = Dtype.Int64 in
      let fresh () =
        let m = Dense_ref.smatrix_of_mat_auto i64 (Helpers.typed i64 c) in
        Container.of_smatrix (if slack then Helpers.with_slack m else m)
      in
      let expected = fresh () in
      product ~mask:(fresh ()) ~out:expected (fresh ()) (fresh ());
      let self_masked run =
        let c = fresh () in
        run c;
        Container.equal c expected
      in
      self_masked (fun c -> product ~mask:c ~out:c c c)
      && self_masked (fun c ->
             Exec.with_mode Exec.Nonblocking (fun () ->
                 product ~mask:c ~out:c c c))
      && self_masked (fun c ->
             ignore
               (Algorithms.Vm_runtime.call_program self_masked_program
                  "self_masked" [ Vm_bridge.wrap_container c ])))

(* A masked product installs the kernel's result only without an
   accumulator and with [out] empty or replaced; otherwise it merges
   into [out].  T = A Bᵀ = [[5; 14]; [24; 53]]; the mask allows (0,0)
   and (1,1), stores false at (0,1) and leaves (1,0) absent. *)
let guard_a =
  Smatrix.of_coo f64 2 3 [ (0, 0, 1.0); (0, 1, 2.0); (1, 1, 3.0); (1, 2, 4.0) ]

let guard_b =
  Smatrix.of_coo f64 2 3 [ (0, 0, 5.0); (0, 2, 6.0); (1, 1, 7.0); (1, 2, 8.0) ]

let guard_mask () =
  Smatrix.of_coo Dtype.Bool 2 2 [ (0, 0, true); (0, 1, false); (1, 1, true) ]

let guard_out () =
  Smatrix.of_coo f64 2 2 [ (0, 1, 100.0); (1, 0, 200.0); (1, 1, 300.0) ]

let guard_mxm ?accum ~replace ~transpose_b out =
  Matmul.mxm ~mask:(Mask.mmask (guard_mask ())) ?accum ~replace ~transpose_b
    (Semiring.arithmetic f64) ~out guard_a
    (if transpose_b then guard_b else Smatrix.transpose guard_b)

let coo = Alcotest.(list (triple int int (float 0.0)))

let test_masked_mxm_merges_into_kept_entries () =
  List.iter
    (fun transpose_b ->
      let out = guard_out () in
      guard_mxm ~replace:false ~transpose_b out;
      Alcotest.check coo "masked-out entries survive"
        [ (0, 0, 5.0); (0, 1, 100.0); (1, 0, 200.0); (1, 1, 53.0) ]
        (Smatrix.to_coo out))
    [ true; false ]

let test_masked_mxm_accum_merges_under_replace () =
  List.iter
    (fun transpose_b ->
      let out = guard_out () in
      guard_mxm ~accum:(Binop.plus f64) ~replace:true ~transpose_b out;
      Alcotest.check coo "accumulated, masked-out cleared"
        [ (0, 0, 5.0); (1, 1, 353.0) ]
        (Smatrix.to_coo out))
    [ true; false ]

let suite =
  [ Alcotest.test_case "BFS ply (paper Fig. 1)" `Quick test_bfs_ply;
    Alcotest.test_case "mxv dense example" `Quick test_mxv_simple;
    Alcotest.test_case "mxv sparsity" `Quick
      test_mxv_empty_rows_produce_no_entries;
    Alcotest.test_case "mxm dense example" `Quick test_mxm_simple;
    Alcotest.test_case "min-plus relaxation" `Quick
      test_min_plus_shortest_path_step;
    Alcotest.test_case "dimension errors" `Quick test_dimension_errors;
    Helpers.to_alcotest qcheck_mxv;
    Helpers.to_alcotest qcheck_mxv_transposed;
    Helpers.to_alcotest qcheck_vxm;
    Helpers.to_alcotest qcheck_vxm_transposed;
    Helpers.to_alcotest qcheck_mxm;
    Helpers.to_alcotest qcheck_mxm_masked_dot_path;
    Helpers.to_alcotest qcheck_mxm_dot_matches_merge;
    Helpers.to_alcotest qcheck_mxm_gustavson_emission;
    Helpers.to_alcotest qcheck_mxm_dot_int64;
    Alcotest.test_case "Int64 masked dot rejects a malformed operand" `Quick
      test_mxm_dot_int64_rejects_malformed;
    Helpers.to_alcotest qcheck_nonbool_mask;
    Helpers.to_alcotest qcheck_self_masked_product;
    Alcotest.test_case "masked mxm keeps out's masked-out entries" `Quick
      test_masked_mxm_merges_into_kept_entries;
    Alcotest.test_case "masked mxm accumulates under replace" `Quick
      test_masked_mxm_accum_merges_under_replace;
  ]
