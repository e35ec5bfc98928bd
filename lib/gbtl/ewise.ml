let union_entries f a b = Output.merge_with f a b

let intersect_entries f a b =
  let out = Entries.create () in
  let na = Entries.length a and nb = Entries.length b in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let ia = Entries.get_idx a !i and ib = Entries.get_idx b !j in
    if ia < ib then incr i
    else if ib < ia then incr j
    else begin
      Entries.push out ia (f (Entries.get_val a !i) (Entries.get_val b !j));
      incr i;
      incr j
    end
  done;
  out

let check_vector_sizes ctx u v =
  if Svector.size u <> Svector.size v then
    Error.raise_dims ~op:ctx
      ~expected:(Error.size_str (Svector.size u))
      ~actual:(Error.size_str (Svector.size v))

let vector_op combine ctx ?(mask = Mask.No_vmask) ?accum ?(replace = false)
    (op : 'a Binop.t) ~out u v =
  check_vector_sizes ctx u v;
  check_vector_sizes ctx out u;
  let t = combine op.Binop.f (Svector.entries u) (Svector.entries v) in
  Output.write_vector ~mask ~accum ~replace ~out ~t

let vector_add ?mask ?accum ?replace op ~out u v =
  vector_op union_entries "eWiseAdd" ?mask ?accum ?replace op ~out u v

let vector_mult ?mask ?accum ?replace op ~out u v =
  vector_op intersect_entries "eWiseMult" ?mask ?accum ?replace op ~out u v

(* Transposed operands are read through the cached CSC side. *)
let oriented m transposed =
  if transposed then Smatrix.unsafe_transpose_view m else m

let check_matrix_shapes ctx a b =
  if Smatrix.shape a <> Smatrix.shape b then
    Error.raise_dims ~op:ctx
      ~expected:(Error.shape_str (Smatrix.nrows a) (Smatrix.ncols a))
      ~actual:(Error.shape_str (Smatrix.nrows b) (Smatrix.ncols b))

(* T = A ⊕ B over the union of the structures ([union]) or A ⊗ B over
   their intersection, a two-pointer merge per row of the CSR arrays
   into arrays sized by the bound (nnz A + nnz B, or the smaller nnz),
   kept with their slack. *)
let merge_rows ~union f a b =
  let arp = Smatrix.unsafe_rowptr a
  and aci = Smatrix.unsafe_colidx a
  and avs = Smatrix.unsafe_values a in
  let brp = Smatrix.unsafe_rowptr b
  and bci = Smatrix.unsafe_colidx b
  and bvs = Smatrix.unsafe_values b in
  let na = Smatrix.nvals a and nb = Smatrix.nvals b in
  let nrows = Smatrix.nrows a in
  let cap = if union then na + nb else min na nb in
  let rowptr = Array.make (nrows + 1) 0 and colidx = Array.make cap 0 in
  let values =
    if cap = 0 then [||] else Array.make cap (if na > 0 then avs.(0) else bvs.(0))
  in
  let n = ref 0 in
  let tail ci vs lo hi =
    Array.blit ci lo colidx !n (hi - lo);
    Array.blit vs lo values !n (hi - lo);
    n := !n + (hi - lo)
  in
  for r = 0 to nrows - 1 do
    let i = ref arp.(r) and j = ref brp.(r) in
    let ie = arp.(r + 1) and je = brp.(r + 1) in
    while !i < ie && !j < je do
      let ca = aci.(!i) and cb = bci.(!j) in
      if ca < cb then begin
        if union then begin
          colidx.(!n) <- ca;
          values.(!n) <- avs.(!i);
          incr n
        end;
        incr i
      end
      else if cb < ca then begin
        if union then begin
          colidx.(!n) <- cb;
          values.(!n) <- bvs.(!j);
          incr n
        end;
        incr j
      end
      else begin
        colidx.(!n) <- ca;
        values.(!n) <- f avs.(!i) bvs.(!j);
        incr n;
        incr i;
        incr j
      end
    done;
    if union then begin
      tail aci avs !i ie;
      tail bci bvs !j je
    end;
    rowptr.(r + 1) <- !n
  done;
  Smatrix.of_csr_unsafe (Smatrix.dtype a) ~nrows ~ncols:(Smatrix.ncols a)
    ~rowptr ~colidx ~values

(* Operands that hold the same [rowptr] and [colidx] arrays (one pattern,
   shared) have that pattern as both union and intersection: T shares it
   and only its values are computed, in one pass, with the merge's
   operand order. *)
let merge_csr ~union f a b =
  let rowptr = Smatrix.unsafe_rowptr a and colidx = Smatrix.unsafe_colidx a in
  if rowptr == Smatrix.unsafe_rowptr b && colidx == Smatrix.unsafe_colidx b
  then
    let avs = Smatrix.unsafe_values a and bvs = Smatrix.unsafe_values b in
    Smatrix.of_csr_unsafe (Smatrix.dtype a) ~nrows:(Smatrix.nrows a)
      ~ncols:(Smatrix.ncols a) ~rowptr ~colidx
      ~values:(Array.init (Smatrix.nvals a) (fun p -> f avs.(p) bvs.(p)))
  else merge_rows ~union f a b

let matrix_op ~union ctx ?(mask = Mask.No_mmask) ?accum ?(replace = false)
    ?(transpose_a = false) ?(transpose_b = false) (op : 'a Binop.t) ~out a b =
  let a = oriented a transpose_a and b = oriented b transpose_b in
  check_matrix_shapes ctx a b;
  check_matrix_shapes ctx out a;
  Output.write_smatrix ~mask ~accum ~replace ~out
    ~t:(merge_csr ~union op.Binop.f a b)

let matrix_add ?mask ?accum ?replace ?transpose_a ?transpose_b op ~out a b =
  matrix_op ~union:true "eWiseAdd" ?mask ?accum ?replace ?transpose_a
    ?transpose_b op ~out a b

let matrix_mult ?mask ?accum ?replace ?transpose_a ?transpose_b op ~out a b =
  matrix_op ~union:false "eWiseMult" ?mask ?accum ?replace ?transpose_a
    ?transpose_b op ~out a b
