open Gbtl

let f64 = Dtype.FP64

let test_normalize_rows () =
  let m = Smatrix.of_coo f64 3 3 [ (0, 0, 1.0); (0, 1, 3.0); (2, 2, 5.0) ] in
  Utilities.normalize_rows m;
  Alcotest.check Alcotest.(option (float 1e-12)) "row 0 first" (Some 0.25)
    (Smatrix.get m 0 0);
  Alcotest.check Alcotest.(option (float 1e-12)) "row 0 second" (Some 0.75)
    (Smatrix.get m 0 1);
  Alcotest.check Alcotest.(option (float 1e-12)) "singleton row" (Some 1.0)
    (Smatrix.get m 2 2)

let test_triangles_split () =
  let m =
    Smatrix.of_coo f64 3 3
      [ (0, 1, 1.0); (1, 0, 1.0); (1, 1, 9.0); (2, 0, 1.0); (0, 2, 1.0) ]
  in
  let l = Utilities.lower_triangle m in
  let u = Utilities.upper_triangle m in
  Alcotest.check Alcotest.int "strict lower has 2" 2 (Smatrix.nvals l);
  Alcotest.check Alcotest.int "strict upper has 2" 2 (Smatrix.nvals u);
  let l_incl = Utilities.lower_triangle ~strict:false m in
  Alcotest.check Alcotest.int "inclusive lower keeps diagonal" 3
    (Smatrix.nvals l_incl)

let test_identity_diag () =
  let i3 = Utilities.identity f64 3 in
  Alcotest.check Alcotest.int "identity nvals" 3 (Smatrix.nvals i3);
  let v = Svector.of_coo f64 3 [ (1, 5.0) ] in
  let d = Utilities.diag v in
  Alcotest.check Alcotest.(option (float 0.0)) "diag entry" (Some 5.0)
    (Smatrix.get d 1 1);
  Alcotest.check Alcotest.int "diag nvals" 1 (Smatrix.nvals d)

let test_identity_is_mxm_neutral () =
  let a = Smatrix.of_coo f64 3 3 [ (0, 1, 2.0); (2, 0, 3.0) ] in
  let i3 = Utilities.identity f64 3 in
  let c = Smatrix.create f64 3 3 in
  Matmul.mxm (Semiring.arithmetic f64) ~out:c a i3;
  Alcotest.check (Helpers.smatrix_testable f64) "A * I = A" a c

let test_row_degrees () =
  let m = Smatrix.of_coo f64 3 4 [ (0, 0, 1.0); (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check Alcotest.(array int) "degrees" [| 2; 0; 1 |]
    (Utilities.row_degrees m)

let qcheck_normalized_rows_sum_to_one =
  Helpers.qtest ~count:200 "normalize_rows: nonempty rows sum to ~1"
    (Helpers.arb (Helpers.mat_gen ~density:0.5 5 5))
    (fun d ->
      (* use positive values to avoid zero-sum rows *)
      let d = Array.map (Array.map (Option.map (fun x -> abs_float x +. 1.0))) d in
      let m = Dense_ref.smatrix_of_mat f64 5 5 d in
      Utilities.normalize_rows m;
      Array.for_all
        (fun r ->
          let s = ref 0.0 and n = ref 0 in
          Smatrix.iter_row
            (fun _ x ->
              s := !s +. x;
              incr n)
            m r;
          !n = 0 || abs_float (!s -. 1.0) < 1e-9)
        (Array.init 5 Fun.id))


(* ---- one-pass filters against a to_coo filter ---- *)

let filter_reference m pred =
  Smatrix.of_coo (Smatrix.dtype m) (Smatrix.nrows m) (Smatrix.ncols m)
    (List.filter (fun (r, c, _) -> pred r c) (Smatrix.to_coo m))

(* Same shape, same rowptr, same entries, and arrays of exactly nvals
   cells as [of_coo] builds them. *)
let identical a b =
  Smatrix.equal a b
  && Smatrix.unsafe_rowptr a = Smatrix.unsafe_rowptr b
  && Array.length (Smatrix.unsafe_colidx a) = Smatrix.nvals a
  && Array.length (Smatrix.unsafe_values a) = Smatrix.nvals a

let position_predicates =
  [ ("c < r", fun r c -> c < r); ("c <= r", fun r c -> c <= r);
    ("c > r", fun r c -> c > r); ("c >= r", fun r c -> c >= r);
    ("(r + c) mod 3 = 0", fun r c -> (r + c) mod 3 = 0);
    ("none", fun _ _ -> false); ("all", fun _ _ -> true) ]

let qcheck_filters =
  Helpers.qtest ~count:200
    "filter_matrix/lower/upper_triangle ≡ to_coo filter (empty rows, slack)"
    (Helpers.arb
       QCheck.Gen.(pair (int_range 0 7) (int_range 0 7) >>= fun (nr, nc) ->
                   pair (return (nr, nc)) (Helpers.mat_gen ~density:0.35 nr nc))
       ~print:(fun (_, d) -> Helpers.print_mat d))
    (fun ((nr, nc), d) ->
      let m0 = Dense_ref.smatrix_of_mat f64 nr nc d in
      List.for_all
        (fun m ->
          List.for_all
            (fun (_, pred) ->
              identical (Utilities.filter_matrix m pred) (filter_reference m pred))
            position_predicates
          && List.for_all
               (fun strict ->
                 identical
                   (Utilities.lower_triangle ~strict m)
                   (filter_reference m (fun r c -> if strict then c < r else c <= r))
                 && identical
                      (Utilities.upper_triangle ~strict m)
                      (filter_reference m (fun r c ->
                           if strict then c > r else c >= r)))
               [ true; false ])
        [ m0; Helpers.with_slack m0 ])

let suite =
  [ Alcotest.test_case "normalize_rows" `Quick test_normalize_rows;
    Alcotest.test_case "triangular splits" `Quick test_triangles_split;
    Alcotest.test_case "identity/diag" `Quick test_identity_diag;
    Alcotest.test_case "identity neutral for mxm" `Quick
      test_identity_is_mxm_neutral;
    Alcotest.test_case "row degrees" `Quick test_row_degrees;
    Helpers.to_alcotest qcheck_normalized_rows_sum_to_one;
    Helpers.to_alcotest qcheck_filters;
  ]
