(* The Python-like renderer of MiniVM programs: pin the shape of the
   paper-figure listings. *)

let contains = Helpers.contains_substring

let test_bfs_listing () =
  let src = Minivm.Pprint.program Algorithms.Bfs.vm_program in
  List.iter
    (fun line ->
      Alcotest.check Alcotest.bool ("contains: " ^ line) true
        (contains src line))
    [ "def bfs(graph, frontier, levels):";
      "while frontier.nvals > 0:";
      "levels[frontier][:] = depth";
      "with Semiring(Logical), Replace:";
      "frontier[~levels] = graph.T @ frontier";
      "return levels" ]

let test_sssp_listing () =
  let src = Minivm.Pprint.program Algorithms.Sssp.vm_program in
  List.iter
    (fun line ->
      Alcotest.check Alcotest.bool ("contains: " ^ line) true
        (contains src line))
    [ "with Semiring(MinPlus), Accumulator(Min):";
      "before = path.dup()";
      "path[None] += graph.T @ path";
      "if path.isequal(before):" ]

let test_triangle_listing () =
  let src = Minivm.Pprint.program Algorithms.Triangle.vm_program in
  Alcotest.check Alcotest.bool "B[L] = L @ L.T" true
    (contains src "B[L] = L @ L.T");
  Alcotest.check Alcotest.bool "reduce" true (contains src "return reduce(B)")

let test_pagerank_listing () =
  let src = Minivm.Pprint.program Algorithms.Pagerank.vm_program in
  List.iter
    (fun line ->
      Alcotest.check Alcotest.bool ("contains: " ^ line) true
        (contains src line))
    [ "normalize_rows(m)";
      "with UnaryOp(Times, damping):";
      "new_rank[None] += page_rank @ m";
      "page_rank[~page_rank] = page_rank + new_rank" ]

let test_expression_forms () =
  let open Minivm.Ast in
  Alcotest.check Alcotest.string "lambda"
    "lambda x, y: ..."
    (Minivm.Pprint.expr (Lambda ([ "x"; "y" ], [])));
  Alcotest.check Alcotest.string "nested call"
    "f(g(1), xs[0])"
    (Minivm.Pprint.expr
       (Call
          ( Var "f",
            [ Call (Var "g", [ Const (Minivm.Value.Int 1) ]);
              Index (Var "xs", Const (Minivm.Value.Int 0)) ] )))

let suite =
  [ Alcotest.test_case "BFS listing (Fig. 2b)" `Quick test_bfs_listing;
    Alcotest.test_case "SSSP listing (Fig. 4a)" `Quick test_sssp_listing;
    Alcotest.test_case "triangle listing (Fig. 5a)" `Quick
      test_triangle_listing;
    Alcotest.test_case "PageRank listing (Fig. 7)" `Quick
      test_pagerank_listing;
    Alcotest.test_case "expression forms" `Quick test_expression_forms;
  ]
