open Gbtl

let check = Alcotest.check
let f64 = Dtype.FP64
let vt = Helpers.svector_testable f64
let mt = Helpers.smatrix_testable f64

(* -- Svector -- *)

let test_vector_create () =
  let v = Svector.create f64 10 in
  check Alcotest.int "size" 10 (Svector.size v);
  check Alcotest.int "nvals" 0 (Svector.nvals v);
  check Alcotest.(option (float 0.0)) "get empty" None (Svector.get v 3)

let test_vector_set_get () =
  let v = Svector.create f64 10 in
  Svector.set v 5 1.5;
  Svector.set v 2 2.5;
  Svector.set v 8 3.5;
  check Alcotest.int "nvals after 3 sets" 3 (Svector.nvals v);
  check Alcotest.(option (float 0.0)) "get 5" (Some 1.5) (Svector.get v 5);
  Svector.set v 5 9.0;
  check Alcotest.int "overwrite keeps nvals" 3 (Svector.nvals v);
  check Alcotest.(option (float 0.0)) "overwritten" (Some 9.0)
    (Svector.get v 5);
  check
    Alcotest.(list (pair int (float 0.0)))
    "alist is index-sorted"
    [ (2, 2.5); (5, 9.0); (8, 3.5) ]
    (Svector.to_alist v)

let test_vector_stored_zero () =
  let v = Svector.create f64 4 in
  Svector.set v 1 0.0;
  check Alcotest.int "explicit zero is stored" 1 (Svector.nvals v);
  check Alcotest.bool "mem sees stored zero" true (Svector.mem v 1);
  check Alcotest.(list bool) "mask coercion treats stored 0 as false"
    [ false; false; false; false ]
    (Array.to_list (Svector.to_bool_dense v))

let test_vector_remove () =
  let v = Svector.of_coo f64 6 [ (0, 1.0); (3, 2.0); (5, 3.0) ] in
  Svector.remove v 3;
  check Alcotest.int "nvals" 2 (Svector.nvals v);
  Svector.remove v 3;
  check Alcotest.int "idempotent remove" 2 (Svector.nvals v);
  check
    Alcotest.(list (pair int (float 0.0)))
    "remaining" [ (0, 1.0); (5, 3.0) ] (Svector.to_alist v)

let test_vector_bounds () =
  let v = Svector.create f64 4 in
  Alcotest.check_raises "set out of bounds"
    (Svector.Index_out_of_bounds "Svector.set: index 4 outside [0, 4)")
    (fun () -> Svector.set v 4 1.0);
  Alcotest.check_raises "negative index"
    (Svector.Index_out_of_bounds "Svector.get: index -1 outside [0, 4)")
    (fun () -> ignore (Svector.get v (-1)))

let test_vector_of_coo_dup () =
  let v = Svector.of_coo f64 5 [ (1, 1.0); (1, 2.0); (1, 3.0) ] in
  check Alcotest.(option (float 0.0)) "default dup: last wins" (Some 3.0)
    (Svector.get v 1);
  let v2 =
    Svector.of_coo ~dup:(Binop.plus f64) f64 5 [ (1, 1.0); (1, 2.0); (1, 3.0) ]
  in
  check Alcotest.(option (float 0.0)) "Plus dup sums" (Some 6.0)
    (Svector.get v2 1)

let test_vector_dense_roundtrip () =
  let arr = [| 1.0; 0.0; 3.0; 0.0 |] in
  let v = Svector.of_dense f64 arr in
  check Alcotest.int "of_dense stores all (incl. zeros)" 4 (Svector.nvals v);
  check Alcotest.(array (float 0.0)) "to_dense roundtrip" arr
    (Svector.to_dense ~fill:nan v);
  let vz = Svector.of_dense_drop_zeros f64 arr in
  check Alcotest.int "drop_zeros stores 2" 2 (Svector.nvals vz)

let test_vector_dup_independent () =
  let v = Svector.of_coo f64 4 [ (1, 1.0) ] in
  let w = Svector.dup v in
  Svector.set w 2 9.0;
  check Alcotest.int "original untouched" 1 (Svector.nvals v);
  check vt "dup equals original before mutation" v
    (Svector.of_coo f64 4 [ (1, 1.0) ])

let test_vector_cast () =
  let v = Svector.of_coo f64 4 [ (0, 1.9); (2, -3.5) ] in
  let w = Svector.cast ~into:Dtype.Int32 v in
  check
    Alcotest.(list (pair int int))
    "cast truncates" [ (0, 1); (2, -3) ] (Svector.to_alist w)

(* -- Smatrix -- *)

let test_matrix_create () =
  let m = Smatrix.create f64 3 4 in
  check Alcotest.(pair int int) "shape" (3, 4) (Smatrix.shape m);
  check Alcotest.int "nvals" 0 (Smatrix.nvals m)

let test_matrix_set_get () =
  let m = Smatrix.create f64 3 3 in
  Smatrix.set m 1 2 5.0;
  Smatrix.set m 0 0 1.0;
  Smatrix.set m 2 1 7.0;
  Smatrix.set m 1 0 3.0;
  check Alcotest.int "nvals" 4 (Smatrix.nvals m);
  check Alcotest.(option (float 0.0)) "get" (Some 5.0) (Smatrix.get m 1 2);
  check Alcotest.(option (float 0.0)) "missing" None (Smatrix.get m 2 2);
  check
    Alcotest.(list (triple int int (float 0.0)))
    "coo is row-major sorted"
    [ (0, 0, 1.0); (1, 0, 3.0); (1, 2, 5.0); (2, 1, 7.0) ]
    (Smatrix.to_coo m)

let test_matrix_of_coo () =
  let m =
    Smatrix.of_coo f64 3 3 [ (2, 2, 1.0); (0, 1, 2.0); (1, 0, 3.0); (0, 1, 9.0) ]
  in
  check Alcotest.int "dedup" 3 (Smatrix.nvals m);
  check Alcotest.(option (float 0.0)) "last dup wins" (Some 9.0)
    (Smatrix.get m 0 1);
  let m2 =
    Smatrix.of_coo ~dup:(Binop.plus f64) f64 3 3 [ (0, 1, 2.0); (0, 1, 9.0) ]
  in
  check Alcotest.(option (float 0.0)) "plus dup" (Some 11.0)
    (Smatrix.get m2 0 1)

let test_matrix_rows () =
  let m = Smatrix.of_coo f64 3 4 [ (1, 0, 1.0); (1, 3, 2.0); (2, 2, 3.0) ] in
  check Alcotest.int "row 0 empty" 0 (Smatrix.row_nvals m 0);
  check Alcotest.int "row 1 has 2" 2 (Smatrix.row_nvals m 1);
  check
    Alcotest.(list (pair int (float 0.0)))
    "row 1 entries"
    [ (0, 1.0); (3, 2.0) ]
    (Svector.to_alist (Smatrix.extract_row m 1));
  check
    Alcotest.(list (pair int (float 0.0)))
    "col 3 entries" [ (1, 2.0) ]
    (Svector.to_alist (Smatrix.extract_col m 3))

let test_matrix_transpose () =
  let m = Smatrix.of_coo f64 2 3 [ (0, 1, 1.0); (0, 2, 2.0); (1, 0, 3.0) ] in
  let t = Smatrix.transpose m in
  check Alcotest.(pair int int) "transposed shape" (3, 2) (Smatrix.shape t);
  check
    Alcotest.(list (triple int int (float 0.0)))
    "transposed entries"
    [ (0, 1, 3.0); (1, 0, 1.0); (2, 0, 2.0) ]
    (Smatrix.to_coo t);
  check mt "transpose involution" m (Smatrix.transpose t)

let test_matrix_dense_roundtrip () =
  let d = [| [| 1.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  let m = Smatrix.of_dense f64 d in
  check Alcotest.int "of_dense stores all" 4 (Smatrix.nvals m);
  check
    Alcotest.(array (array (float 0.0)))
    "to_dense roundtrip" d
    (Smatrix.to_dense ~fill:nan m);
  let mz = Smatrix.of_dense_drop_zeros f64 d in
  check Alcotest.int "drop zeros" 2 (Smatrix.nvals mz)

let test_matrix_bounds () =
  let m = Smatrix.create f64 2 2 in
  Alcotest.check_raises "row out of bounds"
    (Smatrix.Index_out_of_bounds "Smatrix.set: (2, 0) outside 2x2") (fun () ->
      Smatrix.set m 2 0 1.0);
  Alcotest.check_raises "ragged dense"
    (Gbtl.Error.Dim_mismatch
       "Smatrix.of_dense: expected row length 1, actual row length 2")
    (fun () ->
      ignore (Smatrix.of_dense f64 [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_matrix_remove () =
  let m = Smatrix.of_coo f64 2 2 [ (0, 0, 1.0); (1, 1, 2.0) ] in
  Smatrix.remove m 0 0;
  check Alcotest.int "nvals" 1 (Smatrix.nvals m);
  Smatrix.remove m 0 0;
  check Alcotest.int "idempotent" 1 (Smatrix.nvals m)

(* A pattern-sharing result holds its operand's rowptr/colidx arrays; a
   structure write to either matrix copies before writing, so the other
   keeps its entries.  Both producers: a matrix built over another's
   arrays, and apply's result over its operand. *)
let test_shared_pattern_writes () =
  let coo = Alcotest.(list (triple int int (float 0.0))) in
  let writes =
    [ ("set (insert)", fun m -> Smatrix.set m 0 0 5.0);
      ("set (insert, last row)", fun m -> Smatrix.set m 2 3 6.0);
      ("remove", fun m -> Smatrix.remove m 1 0);
      ("remove (last entry)", fun m -> Smatrix.remove m 2 2);
      ("clear", Smatrix.clear) ]
  in
  let pairs () =
    let a =
      Smatrix.of_coo f64 3 4
        [ (0, 1, 1.0); (1, 0, 2.0); (1, 3, 3.0); (2, 2, 4.0) ]
    in
    let over =
      Smatrix.of_csr_unsafe f64 ~nrows:3 ~ncols:4
        ~rowptr:(Smatrix.unsafe_rowptr a) ~colidx:(Smatrix.unsafe_colidx a)
        ~values:[| 10.0; 20.0; 30.0; 40.0 |]
    in
    let a' = Smatrix.dup a in
    let applied =
      Jit.Kernels.apply_m f64 (Jit.Op_spec.Named "AdditiveInverse")
        ~transpose:false a'
    in
    check Alcotest.bool "apply shares its operand's rowptr" true
      (Smatrix.unsafe_rowptr applied == Smatrix.unsafe_rowptr a');
    [ ("built over", a, over); ("apply", a', applied) ]
  in
  List.iter
    (fun (wname, write) ->
      List.iter
        (fun (producer, x, y) ->
          (* write each side in turn; the other must not move *)
          List.iter
            (fun (side, written, other) ->
              let expected = Smatrix.to_coo other in
              let copy = Smatrix.dup written in
              write written;
              write copy;
              check coo
                (Printf.sprintf "%s, %s: %s leaves the other" producer side
                   wname)
                expected (Smatrix.to_coo other);
              check coo
                (Printf.sprintf "%s, %s: %s as on an unshared copy" producer
                   side wname)
                (Smatrix.to_coo copy) (Smatrix.to_coo written))
            [ ("operand", x, y); ("result", y, x) ])
        (pairs ()))
    writes

(* CSR structural invariant, checked after random construction. *)
let csr_well_formed m =
  let rowptr = Smatrix.unsafe_rowptr m in
  let colidx = Smatrix.unsafe_colidx m in
  let ok = ref (rowptr.(0) = 0) in
  for r = 0 to Smatrix.nrows m - 1 do
    if rowptr.(r) > rowptr.(r + 1) then ok := false;
    for p = rowptr.(r) to rowptr.(r + 1) - 2 do
      if colidx.(p) >= colidx.(p + 1) then ok := false
    done;
    for p = rowptr.(r) to rowptr.(r + 1) - 1 do
      if colidx.(p) < 0 || colidx.(p) >= Smatrix.ncols m then ok := false
    done
  done;
  !ok

let triples_gen =
  QCheck.Gen.(
    list_size (int_bound 60)
      (triple (int_bound 7) (int_bound 7) Helpers.small_float_gen))

let qcheck_csr_invariant =
  Helpers.qtest "of_coo yields well-formed CSR" (Helpers.arb triples_gen)
    (fun triples ->
      csr_well_formed (Smatrix.of_coo f64 8 8 triples))

let qcheck_transpose_involution =
  Helpers.qtest "transpose involution (random)" (Helpers.arb triples_gen)
    (fun triples ->
      let m = Smatrix.of_coo f64 8 8 triples in
      Smatrix.equal m (Smatrix.transpose (Smatrix.transpose m)))

let qcheck_transpose_entries =
  Helpers.qtest "transpose flips coordinates" (Helpers.arb triples_gen)
    (fun triples ->
      let m = Smatrix.of_coo f64 8 8 triples in
      let t = Smatrix.transpose m in
      Smatrix.fold (fun acc r c x -> acc && Smatrix.get t c r = Some x) true m)

let qcheck_set_then_get =
  Helpers.qtest "random set/get agree with a hashtable model"
    (Helpers.arb triples_gen) (fun triples ->
      let m = Smatrix.create f64 8 8 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (r, c, x) ->
          Smatrix.set m r c x;
          Hashtbl.replace model (r, c) x)
        triples;
      csr_well_formed m
      && Hashtbl.fold
           (fun (r, c) x acc -> acc && Smatrix.get m r c = Some x)
           model true
      && Smatrix.nvals m = Hashtbl.length model)

let suite =
  [ Alcotest.test_case "vector create" `Quick test_vector_create;
    Alcotest.test_case "vector set/get" `Quick test_vector_set_get;
    Alcotest.test_case "vector stored zero" `Quick test_vector_stored_zero;
    Alcotest.test_case "vector remove" `Quick test_vector_remove;
    Alcotest.test_case "vector bounds" `Quick test_vector_bounds;
    Alcotest.test_case "vector of_coo duplicates" `Quick test_vector_of_coo_dup;
    Alcotest.test_case "vector dense roundtrip" `Quick
      test_vector_dense_roundtrip;
    Alcotest.test_case "vector dup independence" `Quick
      test_vector_dup_independent;
    Alcotest.test_case "vector cast" `Quick test_vector_cast;
    Alcotest.test_case "matrix create" `Quick test_matrix_create;
    Alcotest.test_case "matrix set/get" `Quick test_matrix_set_get;
    Alcotest.test_case "matrix of_coo" `Quick test_matrix_of_coo;
    Alcotest.test_case "matrix rows/cols" `Quick test_matrix_rows;
    Alcotest.test_case "matrix transpose" `Quick test_matrix_transpose;
    Alcotest.test_case "matrix dense roundtrip" `Quick
      test_matrix_dense_roundtrip;
    Alcotest.test_case "matrix bounds" `Quick test_matrix_bounds;
    Alcotest.test_case "matrix remove" `Quick test_matrix_remove;
    Alcotest.test_case "writes to a shared pattern copy it first" `Quick
      test_shared_pattern_writes;
    Helpers.to_alcotest qcheck_csr_invariant;
    Helpers.to_alcotest qcheck_transpose_involution;
    Helpers.to_alcotest qcheck_transpose_entries;
    Helpers.to_alcotest qcheck_set_then_get;
  ]
