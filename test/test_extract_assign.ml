open Gbtl

let f64 = Dtype.FP64
let alist = Alcotest.(list (pair int (float 0.0)))
let coolist = Alcotest.(list (triple int int (float 0.0)))

(* -- extract -- *)

let sample_matrix () =
  Smatrix.of_coo f64 4 4
    [ (0, 0, 1.0); (0, 2, 2.0); (1, 1, 3.0); (2, 0, 4.0); (2, 3, 5.0);
      (3, 2, 6.0) ]

let test_extract_submatrix () =
  let a = sample_matrix () in
  let out = Smatrix.create f64 2 2 in
  Extract.matrix ~out a
    (Index_set.List [| 0; 2 |])
    (Index_set.List [| 0; 3 |]);
  Alcotest.check coolist "A([0;2],[0;3])"
    [ (0, 0, 1.0); (1, 0, 4.0); (1, 1, 5.0) ]
    (Smatrix.to_coo out)

let test_extract_range () =
  let a = sample_matrix () in
  let out = Smatrix.create f64 2 4 in
  Extract.matrix ~out a (Index_set.Range { start = 1; stop = 3 }) Index_set.All;
  Alcotest.check coolist "A(1:3, :)"
    [ (0, 1, 3.0); (1, 0, 4.0); (1, 3, 5.0) ]
    (Smatrix.to_coo out)

let test_extract_duplicates_allowed () =
  let a = sample_matrix () in
  let out = Smatrix.create f64 2 4 in
  Extract.matrix ~out a (Index_set.List [| 0; 0 |]) Index_set.All;
  Alcotest.check coolist "row 0 twice"
    [ (0, 0, 1.0); (0, 2, 2.0); (1, 0, 1.0); (1, 2, 2.0) ]
    (Smatrix.to_coo out)

let test_extract_column () =
  let a = sample_matrix () in
  let out = Svector.create f64 4 in
  Extract.column ~out a Index_set.All 0;
  Alcotest.check alist "column 0" [ (0, 1.0); (2, 4.0) ] (Svector.to_alist out);
  let out2 = Svector.create f64 4 in
  Extract.column ~out:out2 ~transpose:true a Index_set.All 2;
  Alcotest.check alist "row 2 via transpose"
    [ (0, 4.0); (3, 5.0) ]
    (Svector.to_alist out2)

let test_extract_vector () =
  let u = Svector.of_coo f64 6 [ (1, 1.0); (3, 3.0); (5, 5.0) ] in
  let out = Svector.create f64 3 in
  Extract.vector ~out u (Index_set.List [| 5; 0; 3 |]);
  Alcotest.check alist "u([5;0;3])" [ (0, 5.0); (2, 3.0) ]
    (Svector.to_alist out)

let test_extract_bad_index () =
  let u = Svector.of_coo f64 4 [ (0, 1.0) ] in
  let out = Svector.create f64 1 in
  Alcotest.check_raises "out of range"
    (Index_set.Invalid_index "index 9 outside [0, 4)") (fun () ->
      Extract.vector ~out u (Index_set.List [| 9 |]))

(* -- assign -- *)

let test_assign_vector () =
  let w = Svector.of_coo f64 6 [ (0, 9.0); (2, 9.0); (5, 9.0) ] in
  let u = Svector.of_coo f64 2 [ (0, 1.0); (1, 2.0) ] in
  Assign.vector ~out:w u (Index_set.List [| 2; 4 |]);
  Alcotest.check alist "w([2;4]) = u"
    [ (0, 9.0); (2, 1.0); (4, 2.0); (5, 9.0) ]
    (Svector.to_alist w)

let test_assign_deletes_uncovered_region_entries () =
  (* no accumulator: old entries in the region not covered by the source
     are removed *)
  let w = Svector.of_coo f64 4 [ (1, 9.0); (2, 9.0) ] in
  let u = Svector.create f64 2 (* empty source *) in
  Assign.vector ~out:w u (Index_set.List [| 1; 2 |]);
  Alcotest.check alist "region cleared" [] (Svector.to_alist w)

let test_assign_accum_keeps_region_entries () =
  let w = Svector.of_coo f64 4 [ (1, 9.0); (2, 9.0) ] in
  let u = Svector.of_coo f64 2 [ (0, 1.0) ] in
  Assign.vector ~accum:(Binop.plus f64) ~out:w u (Index_set.List [| 1; 2 |]);
  Alcotest.check alist "accum merges region"
    [ (1, 10.0); (2, 9.0) ]
    (Svector.to_alist w)

let test_assign_scalar_all_masked () =
  (* the BFS idiom: levels<frontier> = depth *)
  let levels = Svector.of_coo f64 5 [ (0, 1.0) ] in
  let frontier = Svector.of_coo Dtype.Bool 5 [ (2, true); (4, true) ] in
  Assign.vector_scalar ~mask:(Mask.vmask frontier) ~out:levels 3.0
    Index_set.All;
  Alcotest.check alist "depth written at frontier, merge elsewhere"
    [ (0, 1.0); (2, 3.0); (4, 3.0) ]
    (Svector.to_alist levels)

let test_assign_scalar_range () =
  (* PyGB: new_rank[:] = c *)
  let v = Svector.create f64 4 in
  Assign.vector_scalar ~out:v 0.25 Index_set.All;
  Alcotest.check alist "constant fill"
    [ (0, 0.25); (1, 0.25); (2, 0.25); (3, 0.25) ]
    (Svector.to_alist v)

let test_assign_matrix () =
  let c = Smatrix.of_coo f64 4 4 [ (0, 0, 9.0); (1, 1, 9.0); (3, 3, 9.0) ] in
  let a = Smatrix.of_coo f64 2 2 [ (0, 0, 1.0); (1, 1, 2.0) ] in
  Assign.matrix ~out:c a
    (Index_set.List [| 1; 2 |])
    (Index_set.List [| 1; 2 |]);
  Alcotest.check coolist "C([1;2],[1;2]) = A"
    [ (0, 0, 9.0); (1, 1, 1.0); (2, 2, 2.0); (3, 3, 9.0) ]
    (Smatrix.to_coo c)

let test_assign_matrix_scalar () =
  let c = Smatrix.create f64 3 3 in
  Assign.matrix_scalar ~out:c 7.0
    (Index_set.Range { start = 0; stop = 2 })
    (Index_set.Range { start = 1; stop = 3 });
  Alcotest.check Alcotest.int "2x2 region filled" 4 (Smatrix.nvals c);
  Alcotest.check Alcotest.(option (float 0.0)) "corner" (Some 7.0)
    (Smatrix.get c 0 1)

let test_assign_duplicate_targets_rejected () =
  let w = Svector.create f64 4 in
  let u = Svector.create f64 2 in
  Alcotest.check_raises "duplicates rejected"
    (Index_set.Invalid_index "duplicate index 1 in assign") (fun () ->
      Assign.vector ~out:w u (Index_set.List [| 1; 1 |]))

let test_assign_replace_clears_outside_mask () =
  (* GrB_assign with REPLACE: masked-out entries die everywhere in C *)
  let w = Svector.of_coo f64 4 [ (0, 1.0); (3, 4.0) ] in
  let mask = Svector.of_coo Dtype.Bool 4 [ (0, true); (1, true) ] in
  let u = Svector.of_coo f64 2 [ (0, 8.0); (1, 9.0) ] in
  Assign.vector ~mask:(Mask.vmask mask) ~replace:true ~out:w u
    (Index_set.List [| 0; 1 |]);
  Alcotest.check alist "index 3 cleared by replace"
    [ (0, 8.0); (1, 9.0) ]
    (Svector.to_alist w)

(* -- w<m,z>(:) = s: the direct path vs the overlay and the dense model -- *)

type scalar_all_case = {
  c : float Dense_ref.vec;
  bits : bool array;
  mask_kind : [ `None | `Dense | `Sparse | `Self ];
  complemented : bool;
  replace : bool;
  plus : bool;
  dense_out : bool;
  formats : bool;
  s : float;
}

let scalar_all_gen =
  let open QCheck.Gen in
  (* sizes straddle the 32 (densify) and 64 (sparse mask) thresholds *)
  int_range 0 100 >>= fun n ->
  float_range 0.0 1.0 >>= fun fill ->
  Helpers.vec_gen ~density:fill n >>= fun c ->
  float_range 0.0 1.0 >>= fun mfill ->
  list_repeat n (float_bound_exclusive 1.0 >|= fun x -> x < mfill)
  >>= fun bits ->
  oneofl [ `None; `Dense; `Sparse; `Self ] >>= fun mask_kind ->
  bool >>= fun complemented ->
  bool >>= fun replace ->
  bool >>= fun plus ->
  bool >>= fun dense_out ->
  bool >>= fun formats ->
  Helpers.small_float_gen >|= fun s ->
  { c; bits = Array.of_list bits; mask_kind; complemented; replace; plus;
    dense_out; formats; s }

let print_scalar_all k =
  Printf.sprintf
    "n=%d mask=%s complemented=%b replace=%b plus=%b dense_out=%b \
     formats=%b s=%g\nc=%s\nbits=%s"
    (Array.length k.c)
    (match k.mask_kind with
    | `None -> "none" | `Dense -> "dense" | `Sparse -> "sparse"
    | `Self -> "self")
    k.complemented k.replace k.plus k.dense_out k.formats k.s
    (Helpers.print_vec k.c)
    (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") k.bits)))

let prop_scalar_all k =
  Format_stats.with_enabled k.formats (fun () ->
      let n = Array.length k.c in
      let make () =
        let v = Dense_ref.svector_of_vec f64 k.c in
        if k.dense_out then Svector.densify v;
        v
      in
      let out = make () and via_list = make () in
      let mask =
        match k.mask_kind with
        | `None -> Mask.No_vmask
        | `Dense ->
          Mask.Vmask { dense = Array.copy k.bits; complemented = k.complemented }
        | `Sparse ->
          let idx =
            List.filter (fun i -> k.bits.(i)) (List.init n Fun.id)
          in
          Mask.Vmask_sparse
            { size = n; idx = Array.of_list idx; complemented = k.complemented }
        | `Self -> Mask.vmask ~complemented:k.complemented out
      in
      let accum = if k.plus then Some (Binop.plus f64) else None in
      let expected =
        Dense_ref.write_vec ~mask ~accum:(Dense_ref.accum_f accum)
          ~replace:k.replace k.c (Array.make n (Some k.s))
      in
      Assign.vector_scalar ~mask ?accum ~replace:k.replace ~out k.s
        Index_set.All;
      Assign.vector_scalar ~mask ?accum ~replace:k.replace ~out:via_list k.s
        (Index_set.List (Array.init n Fun.id));
      Dense_ref.vec_of_svector out = expected
      && Svector.equal out via_list
      && Svector.is_dense out = Svector.is_dense via_list)

let qcheck_scalar_all =
  Helpers.to_alcotest
    (Helpers.qtest ~count:500
       "assign scalar over All ≡ List overlay ≡ dense model (layout too)"
       (Helpers.arb ~print:print_scalar_all scalar_all_gen)
       prop_scalar_all)

let suite =
  [ Alcotest.test_case "extract submatrix" `Quick test_extract_submatrix;
    Alcotest.test_case "extract range" `Quick test_extract_range;
    Alcotest.test_case "extract duplicate rows" `Quick
      test_extract_duplicates_allowed;
    Alcotest.test_case "extract column/row" `Quick test_extract_column;
    Alcotest.test_case "extract vector" `Quick test_extract_vector;
    Alcotest.test_case "extract bad index" `Quick test_extract_bad_index;
    Alcotest.test_case "assign vector" `Quick test_assign_vector;
    Alcotest.test_case "assign deletes uncovered" `Quick
      test_assign_deletes_uncovered_region_entries;
    Alcotest.test_case "assign accum keeps" `Quick
      test_assign_accum_keeps_region_entries;
    Alcotest.test_case "assign scalar masked (BFS idiom)" `Quick
      test_assign_scalar_all_masked;
    Alcotest.test_case "assign scalar fill" `Quick test_assign_scalar_range;
    Alcotest.test_case "assign matrix" `Quick test_assign_matrix;
    Alcotest.test_case "assign matrix scalar" `Quick test_assign_matrix_scalar;
    Alcotest.test_case "assign duplicates rejected" `Quick
      test_assign_duplicate_targets_rejected;
    Alcotest.test_case "assign replace semantics" `Quick
      test_assign_replace_clears_outside_mask;
    qcheck_scalar_all;
  ]
