let scale_rows m scale_of_row =
  let rowptr = Smatrix.unsafe_rowptr m and vals = Smatrix.unsafe_values m in
  for r = 0 to Smatrix.nrows m - 1 do
    let s = scale_of_row r in
    if s <> 0.0 then
      for p = rowptr.(r) to rowptr.(r + 1) - 1 do
        vals.(p) <- vals.(p) /. s
      done
  done

let normalize_rows m =
  let rowptr = Smatrix.unsafe_rowptr m and vals = Smatrix.unsafe_values m in
  let sums = Array.make (Smatrix.nrows m) 0.0 in
  for r = 0 to Smatrix.nrows m - 1 do
    for p = rowptr.(r) to rowptr.(r + 1) - 1 do
      sums.(r) <- sums.(r) +. vals.(p)
    done
  done;
  scale_rows m (fun r -> sums.(r))

let normalize_cols m =
  let sums = Array.make (Smatrix.ncols m) 0.0 in
  Smatrix.iter (fun _ c x -> sums.(c) <- sums.(c) +. x) m;
  let colidx = Smatrix.unsafe_colidx m and vals = Smatrix.unsafe_values m in
  let rowptr = Smatrix.unsafe_rowptr m in
  for p = 0 to rowptr.(Smatrix.nrows m) - 1 do
    let s = sums.(colidx.(p)) in
    if s <> 0.0 then vals.(p) <- vals.(p) /. s
  done

let filter_matrix m pred = Smatrix.filter m ~f:(fun r c _ -> pred r c)

let lower_triangle ?(strict = true) m =
  filter_matrix m (fun r c -> if strict then c < r else c <= r)

let upper_triangle ?(strict = true) m =
  filter_matrix m (fun r c -> if strict then c > r else c >= r)

let identity dt n =
  Smatrix.of_coo dt n n (List.init n (fun i -> (i, i, Dtype.one dt)))

let diag v =
  let n = Svector.size v in
  let triples = Svector.fold (fun acc i x -> (i, i, x) :: acc) [] v in
  Smatrix.of_coo (Svector.dtype v) n n (List.rev triples)

let row_degrees m = Array.init (Smatrix.nrows m) (Smatrix.row_nvals m)
