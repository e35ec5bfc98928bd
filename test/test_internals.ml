(* Unit tests for the small internal building blocks: Entries, Spa,
   Index_set, and assorted container edge cases. *)

open Gbtl

let f64 = Dtype.FP64

(* -- Entries -- *)

let test_entries_push_order () =
  let e = Entries.create () in
  Entries.push e 1 "a";
  Entries.push e 5 "b";
  Entries.push e 9 "c";
  Alcotest.check Alcotest.int "length" 3 (Entries.length e);
  Alcotest.check
    Alcotest.(list (pair int string))
    "to_alist"
    [ (1, "a"); (5, "b"); (9, "c") ]
    (Entries.to_alist e)

let test_entries_of_alist_sorts () =
  let e = Entries.of_alist [ (5, "b"); (1, "a"); (9, "c") ] in
  Alcotest.check
    Alcotest.(list (pair int string))
    "sorted"
    [ (1, "a"); (5, "b"); (9, "c") ]
    (Entries.to_alist e)

let test_entries_growth () =
  let e = Entries.create () in
  for i = 0 to 999 do
    Entries.push e i (i * 2)
  done;
  Alcotest.check Alcotest.int "grew to 1000" 1000 (Entries.length e);
  Alcotest.check Alcotest.int "values intact" 1998 (Entries.get_val e 999)

let test_entries_of_arrays_unsafe () =
  let e = Entries.of_arrays_unsafe [| 2; 7 |] [| 1.0; 2.0 |] ~len:2 in
  Alcotest.check Alcotest.int "len" 2 (Entries.length e);
  Alcotest.check Alcotest.int "idx" 7 (Entries.get_idx e 1)

(* -- Spa -- *)

let test_spa_accumulate_and_extract () =
  let spa = Spa.create 10 ~dummy:0.0 in
  Spa.accumulate spa 7 1.0 ~add:( +. );
  Spa.accumulate spa 3 2.0 ~add:( +. );
  Spa.accumulate spa 7 3.0 ~add:( +. );
  Alcotest.check Alcotest.int "two occupied" 2 (Spa.count spa);
  Alcotest.check
    Alcotest.(list (pair int (float 0.0)))
    "extract sorted"
    [ (3, 2.0); (7, 4.0) ]
    (Entries.to_alist (Spa.extract spa))

let test_spa_clear_is_cheap_and_complete () =
  let spa = Spa.create 8 ~dummy:0 in
  Spa.set spa 1 10;
  Spa.set spa 5 20;
  Spa.clear spa;
  Alcotest.check Alcotest.int "empty after clear" 0 (Spa.count spa);
  Alcotest.check Alcotest.bool "not occupied" false (Spa.occupied spa 1);
  (* reuse after clear *)
  Spa.set spa 2 30;
  Alcotest.check
    Alcotest.(list (pair int int))
    "reusable" [ (2, 30) ]
    (Entries.to_alist (Spa.extract spa))

(* 400 slots: 10 touched are insertion-sorted, 40 merge-sorted, 100
   (at least an eighth) emitted by a scan; each must come out ascending *)
let test_spa_iter_sorted_paths () =
  let rng = Graphs.Rng.create ~seed:31 in
  List.iter
    (fun k ->
      let spa = Spa.create 400 ~dummy:0 in
      let picked = Hashtbl.create k in
      while Hashtbl.length picked < k do
        let i = Graphs.Rng.int rng 400 in
        if not (Hashtbl.mem picked i) then begin
          Hashtbl.add picked i ();
          Spa.set spa i (10 * i)
        end
      done;
      let got = ref [] in
      Spa.iter_sorted (fun i v -> got := (i, v) :: !got) spa;
      let expected =
        List.sort compare
          (Hashtbl.fold (fun i () acc -> (i, 10 * i) :: acc) picked [])
      in
      Alcotest.check
        Alcotest.(list (pair int int))
        (Printf.sprintf "%d touched, ascending" k)
        expected (List.rev !got))
    [ 10; 40; 100 ]

(* -- Index_set -- *)

let test_index_set_resolution () =
  Alcotest.check Alcotest.(array int) "All" [| 0; 1; 2 |]
    (Index_set.resolve Index_set.All 3);
  Alcotest.check Alcotest.(array int) "List" [| 2; 0 |]
    (Index_set.resolve (Index_set.List [| 2; 0 |]) 3);
  Alcotest.check Alcotest.(array int) "Range" [| 1; 2 |]
    (Index_set.resolve (Index_set.Range { start = 1; stop = 3 }) 5);
  Alcotest.check Alcotest.int "length All" 4 (Index_set.length Index_set.All 4);
  Alcotest.check Alcotest.int "length Range" 0
    (Index_set.length (Index_set.Range { start = 3; stop = 3 }) 5)

let test_index_set_errors () =
  (match Index_set.resolve (Index_set.Range { start = 2; stop = 1 }) 5 with
  | exception Index_set.Invalid_index _ -> ()
  | _ -> Alcotest.fail "bad range accepted");
  (match Index_set.resolve (Index_set.List [| 5 |]) 5 with
  | exception Index_set.Invalid_index _ -> ()
  | _ -> Alcotest.fail "oob index accepted");
  match Index_set.check_no_duplicates [| 1; 2; 1 |] with
  | exception Index_set.Invalid_index _ -> ()
  | _ -> Alcotest.fail "duplicates accepted"

(* -- container edge cases -- *)

let test_empty_matrix_ops () =
  let a = Smatrix.create f64 0 0 in
  let b = Smatrix.transpose a in
  Alcotest.check Alcotest.(pair int int) "0x0 transpose" (0, 0)
    (Smatrix.shape b);
  let v = Svector.create f64 0 in
  Alcotest.check Alcotest.int "empty vector" 0 (Svector.nvals v);
  let out = Smatrix.create f64 0 0 in
  Matmul.mxm (Semiring.arithmetic f64) ~out a a;
  Alcotest.check Alcotest.int "0x0 product" 0 (Smatrix.nvals out)

let test_single_row_col () =
  let row = Smatrix.of_coo f64 1 5 [ (0, 2, 3.0) ] in
  let col = Smatrix.transpose row in
  Alcotest.check Alcotest.(pair int int) "column shape" (5, 1)
    (Smatrix.shape col);
  let out = Smatrix.create f64 1 1 in
  Matmul.mxm (Semiring.arithmetic f64) ~out row col;
  Alcotest.check Alcotest.(option (float 0.0)) "1x1 = 9" (Some 9.0)
    (Smatrix.get out 0 0)

let test_adopt_shape_check () =
  let a = Smatrix.create f64 2 2 and b = Smatrix.create f64 3 3 in
  match Smatrix.adopt a b with
  | exception Smatrix.Dimension_mismatch _ -> ()
  | () -> Alcotest.fail "shape mismatch accepted"

let test_vector_large_random_sorted_invariant () =
  let rng = Graphs.Rng.create ~seed:15 in
  let v = Svector.create f64 1000 in
  for _ = 1 to 500 do
    Svector.set v (Graphs.Rng.int rng 1000) (Graphs.Rng.float rng)
  done;
  let sorted = ref true and prev = ref (-1) in
  Svector.iter
    (fun i _ ->
      if i <= !prev then sorted := false;
      prev := i)
    v;
  Alcotest.check Alcotest.bool "indices strictly ascending" true !sorted

let suite =
  [ Alcotest.test_case "entries push order" `Quick test_entries_push_order;
    Alcotest.test_case "entries of_alist" `Quick test_entries_of_alist_sorts;
    Alcotest.test_case "entries growth" `Quick test_entries_growth;
    Alcotest.test_case "entries of_arrays" `Quick
      test_entries_of_arrays_unsafe;
    Alcotest.test_case "spa accumulate/extract" `Quick
      test_spa_accumulate_and_extract;
    Alcotest.test_case "spa clear" `Quick test_spa_clear_is_cheap_and_complete;
    Alcotest.test_case "spa iter_sorted paths" `Quick test_spa_iter_sorted_paths;
    Alcotest.test_case "index_set resolve" `Quick test_index_set_resolution;
    Alcotest.test_case "index_set errors" `Quick test_index_set_errors;
    Alcotest.test_case "empty matrices" `Quick test_empty_matrix_ops;
    Alcotest.test_case "single row/col" `Quick test_single_row_col;
    Alcotest.test_case "adopt checks" `Quick test_adopt_shape_check;
    Alcotest.test_case "sorted invariant under churn" `Quick
      test_vector_large_random_sorted_invariant;
  ]
