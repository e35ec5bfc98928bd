let dim_err = Error.raise_dims

(* Dense scatter of a sparse vector, reused across rows by gather kernels. *)
let scatter_vector sr u =
  let spa = Spa.create (Svector.size u) ~dummy:(Semiring.zero sr) in
  Svector.iter (fun i x -> Spa.set spa i x) u;
  spa

(* Gather kernel: out_i = ⊕_j term (row_value_j, u_j) over row i's entries
   that hit stored positions of [u].  [term] fixes the ⊗ operand order. *)
let gather_rows sr ~term ~allowed a u =
  let t = Entries.create () in
  let uspa = scatter_vector sr u in
  let add = Semiring.add sr in
  for i = 0 to Smatrix.nrows a - 1 do
    if allowed i then begin
      let acc = ref (Semiring.zero sr) in
      let hit = ref false in
      Smatrix.iter_row
        (fun j x ->
          if Spa.occupied uspa j then begin
            let v = term x (Spa.get uspa j) in
            acc := (if !hit then add !acc v else v);
            hit := true
          end)
        a i;
      if !hit then Entries.push t i !acc
    end
  done;
  t

(* Scatter kernel: for each stored u_j, fan row j of [a] into an SPA over
   the output dimension. *)
let scatter_rows sr ~term ~out_size a u =
  let spa = Spa.create out_size ~dummy:(Semiring.zero sr) in
  let add = Semiring.add sr in
  Svector.iter
    (fun j uj ->
      Smatrix.iter_row
        (fun c x -> Spa.accumulate spa c (term x uj) ~add)
        a j)
    u;
  Spa.extract spa

let mxv ?(mask = Mask.No_vmask) ?accum ?(replace = false)
    ?(transpose_a = false) sr ~out a u =
  let arows, acols =
    if transpose_a then (Smatrix.ncols a, Smatrix.nrows a) else Smatrix.shape a
  in
  if acols <> Svector.size u then
    dim_err ~op:"mxv"
      ~expected:(Printf.sprintf "vector size %d" acols)
      ~actual:(Error.size_str (Svector.size u));
  if Svector.size out <> arows then
    dim_err ~op:"mxv"
      ~expected:(Printf.sprintf "output size %d" arows)
      ~actual:(Error.size_str (Svector.size out));
  Mask.v_check_size mask (Svector.size out);
  let mul = Semiring.mul sr in
  let t =
    if transpose_a then
      (* (Aᵀu)_i = ⊕_j A(j,i) ⊗ u(j): scatter over rows of A present in u. *)
      scatter_rows sr ~term:mul ~out_size:arows a u
    else
      gather_rows sr ~term:mul ~allowed:(Mask.v_allowed mask) a u
  in
  Output.write_vector ~mask ~accum ~replace ~out ~t

let vxm ?(mask = Mask.No_vmask) ?accum ?(replace = false)
    ?(transpose_a = false) sr ~out u a =
  let arows, acols =
    if transpose_a then (Smatrix.ncols a, Smatrix.nrows a) else Smatrix.shape a
  in
  if arows <> Svector.size u then
    dim_err ~op:"vxm"
      ~expected:(Printf.sprintf "vector size %d" arows)
      ~actual:(Error.size_str (Svector.size u));
  if Svector.size out <> acols then
    dim_err ~op:"vxm"
      ~expected:(Printf.sprintf "output size %d" acols)
      ~actual:(Error.size_str (Svector.size out));
  Mask.v_check_size mask (Svector.size out);
  let mul = Semiring.mul sr in
  let term a_val u_val = mul u_val a_val in
  let t =
    if transpose_a then
      (* (u Aᵀ)_i = ⊕_j u(j) ⊗ A(i,j): gather over rows of A. *)
      gather_rows sr ~term ~allowed:(Mask.v_allowed mask) a u
    else scatter_rows sr ~term ~out_size:acols a u
  in
  Output.write_vector ~mask ~accum ~replace ~out ~t

(* Gustavson: C(i,:) = ⊕_k A(i,k) ⊗ B(k,:), SPA per output row, each row
   emitted in ascending column order straight into the CSR arrays (which
   grow by doubling and may keep slack past nvals).  [keep i] filters
   row i's columns, queried in ascending order. *)
let mxm_gustavson sr ?keep a b ncols_out =
  let add = Semiring.add sr and mul = Semiring.mul sr in
  let spa = Spa.create ncols_out ~dummy:(Semiring.zero sr) in
  let nrows = Smatrix.nrows a in
  let rowptr = Array.make (nrows + 1) 0 in
  let cap = ref (max 16 (Smatrix.nvals a)) in
  let colidx = ref (Array.make !cap 0)
  and values = ref (Array.make !cap (Semiring.zero sr)) in
  let n = ref 0 in
  let push j v =
    if !n = !cap then begin
      cap := 2 * !cap;
      let ci = Array.make !cap 0 and vs = Array.make !cap v in
      Array.blit !colidx 0 ci 0 !n;
      Array.blit !values 0 vs 0 !n;
      colidx := ci;
      values := vs
    end;
    !colidx.(!n) <- j;
    !values.(!n) <- v;
    incr n
  in
  for i = 0 to nrows - 1 do
    Spa.clear spa;
    Smatrix.iter_row
      (fun k aik ->
        Smatrix.iter_row
          (fun j bkj -> Spa.accumulate spa j (mul aik bkj) ~add)
          b k)
      a i;
    (match keep with
    | None -> Spa.iter_sorted push spa
    | Some keep ->
      let keep = keep i in
      Spa.iter_sorted (fun j v -> if keep j then push j v) spa);
    rowptr.(i + 1) <- !n
  done;
  Smatrix.of_csr_unsafe (Smatrix.dtype a) ~nrows ~ncols:ncols_out ~rowptr
    ~colidx:!colidx ~values:!values

(* Dot kernel for C<M> = A ⊕.⊗ Bᵀ over the mask's stored-true cells:
   C(i,j) = ⊕_k A(i,k) ⊗ B(j,k).  Row i of A is scattered once into [pos]
   (k ↦ its position in A's CSR); a slot is live only if it falls inside
   row i's extent, so nothing is cleared between rows.  Walking B(j,:)
   then meets the matched k in ascending order, as a two-pointer merge
   of the two rows would, and the first hit seeds the accumulator, so
   every semiring sees the same operands in the same order. *)
let mxm_dot_general sr ~mask a b =
  let add = Semiring.add sr and mul = Semiring.mul sr in
  let arp = Smatrix.unsafe_rowptr a
  and aci = Smatrix.unsafe_colidx a
  and avs = Smatrix.unsafe_values a in
  let brp = Smatrix.unsafe_rowptr b
  and bci = Smatrix.unsafe_colidx b
  and bvs = Smatrix.unsafe_values b in
  let mrp = Smatrix.unsafe_rowptr mask
  and mci = Smatrix.unsafe_colidx mask
  and mvs = Smatrix.unsafe_values mask in
  let nrows = Smatrix.nrows a and cap = Smatrix.nvals mask in
  let pos = Array.make (Smatrix.ncols a) (-1) in
  let rowptr = Array.make (nrows + 1) 0
  and colidx = Array.make cap 0
  and values = Array.make cap (Semiring.zero sr) in
  let nnz = ref 0 in
  for i = 0 to nrows - 1 do
    let ps = arp.(i) in
    for p = ps to arp.(i + 1) - 1 do
      pos.(aci.(p)) <- p
    done;
    for r = mrp.(i) to mrp.(i + 1) - 1 do
      if mvs.(r) then begin
        let j = mci.(r) in
        let acc = ref (Semiring.zero sr) and hit = ref false in
        for q = brp.(j) to brp.(j + 1) - 1 do
          let p = pos.(bci.(q)) in
          if p >= ps then begin
            let v = mul avs.(p) bvs.(q) in
            acc := (if !hit then add !acc v else v);
            hit := true
          end
        done;
        if !hit then begin
          colidx.(!nnz) <- j;
          values.(!nnz) <- !acc;
          incr nnz
        end
      end
    done;
    rowptr.(i + 1) <- !nnz
  done;
  Smatrix.of_csr_unsafe (Smatrix.dtype a) ~nrows ~ncols:(Smatrix.ncols mask)
    ~rowptr ~colidx ~values

(* An unchecked read, for loops whose indices were checked up front. *)
let ( .!() ) (a : int array) i = Array.unsafe_get a i

(* Every row extent of [b] lies inside its [colidx] and [values], and
   every column it stores is below [ncols]: checked once per call, so
   the probe loop below reads [b] and its scatter with [.!()]. *)
let check_probe_columns b ~ncols =
  let rp = Smatrix.unsafe_rowptr b and ci = Smatrix.unsafe_colidx b in
  let len = min (Array.length ci) (Array.length (Smatrix.unsafe_values b)) in
  let bad () = invalid_arg "Matmul.mxm: malformed CSR operand" in
  let hi = ref 0 in
  Array.iter (fun p -> if p < 0 || p > len then bad () else hi := max !hi p) rp;
  for q = 0 to !hi - 1 do
    if ci.(q) < 0 || ci.(q) >= ncols then bad ()
  done

(* The same product at Int64 plus-times, with no branch per probe.  Row
   i of A is scattered into [wf], value and hit flag side by side
   ([wf.(2k)] = A(i,k), [wf.(2k+1)] = 1), and both are summed along
   B(j,:): a k missing from row i reads 0 and 0, so the walk needs no
   test.  [hit > 0] decides the store, so a matched pair whose product
   is 0 still stores a 0.  Native ints wrap and [+] commutes, so the
   sum is the general kernel's bit for bit.  Row i's slots are zeroed
   after its mask row, leaving [wf] all zero for the next. *)
let mxm_dot_int ~mask (a : int Smatrix.t) (b : int Smatrix.t) =
  let arp = Smatrix.unsafe_rowptr a
  and aci = Smatrix.unsafe_colidx a
  and avs = Smatrix.unsafe_values a in
  let brp = Smatrix.unsafe_rowptr b
  and bci = Smatrix.unsafe_colidx b
  and bvs = Smatrix.unsafe_values b in
  let mrp = Smatrix.unsafe_rowptr mask
  and mci = Smatrix.unsafe_colidx mask
  and mvs = Smatrix.unsafe_values mask in
  let nrows = Smatrix.nrows a and cap = Smatrix.nvals mask in
  check_probe_columns b ~ncols:(Smatrix.ncols a);
  let wf = Array.make (2 * Smatrix.ncols a) 0 in
  let rowptr = Array.make (nrows + 1) 0
  and colidx = Array.make cap 0
  and values = Array.make cap 0 in
  let nnz = ref 0 in
  for i = 0 to nrows - 1 do
    let ps = arp.(i) and pe = arp.(i + 1) - 1 in
    for p = ps to pe do
      let k2 = 2 * aci.(p) in
      wf.(k2) <- avs.(p);
      wf.(k2 + 1) <- 1
    done;
    for r = mrp.(i) to mrp.(i + 1) - 1 do
      if mvs.(r) then begin
        let j = mci.(r) in
        let acc = ref 0 and hit = ref 0 in
        for q = brp.(j) to brp.(j + 1) - 1 do
          let k2 = 2 * bci.!(q) in
          acc := !acc + (wf.!(k2) * bvs.!(q));
          hit := !hit + wf.!(k2 + 1)
        done;
        if !hit > 0 then begin
          colidx.(!nnz) <- j;
          values.(!nnz) <- !acc;
          incr nnz
        end
      end
    done;
    for p = ps to pe do
      let k2 = 2 * aci.(p) in
      wf.(k2) <- 0;
      wf.(k2 + 1) <- 0
    done;
    rowptr.(i + 1) <- !nnz
  done;
  Smatrix.of_csr_unsafe Dtype.Int64 ~nrows ~ncols:(Smatrix.ncols mask)
    ~rowptr ~colidx ~values

(* Picks the kernel once per call.  The operators are matched by name,
   not by [Semiring.name]: the DSL builds its semirings with
   [Semiring.make], whose names differ from the catalogue's. *)
let mxm_dot (type a) (sr : a Semiring.t) ~mask (a : a Smatrix.t)
    (b : a Smatrix.t) : a Smatrix.t =
  match Smatrix.dtype a with
  | Dtype.Int64
    when sr.Semiring.add.Monoid.op.Binop.name = "Plus"
         && sr.Semiring.mul.Binop.name = "Times"
         && Semiring.zero sr = 0 ->
    mxm_dot_int ~mask a b
  | _ -> mxm_dot_general sr ~mask a b

let mxm ?(mask = Mask.No_mmask) ?accum ?(replace = false)
    ?(transpose_a = false) ?(transpose_b = false) sr ~out a b =
  let a = if transpose_a then Smatrix.unsafe_transpose_view a else a in
  let arows, acols = Smatrix.shape a in
  let brows, bcols =
    if transpose_b then (Smatrix.ncols b, Smatrix.nrows b) else Smatrix.shape b
  in
  if acols <> brows then
    dim_err ~op:"mxm"
      ~expected:(Printf.sprintf "inner dimension %d" acols)
      ~actual:(string_of_int brows);
  if Smatrix.shape out <> (arows, bcols) then
    dim_err ~op:"mxm"
      ~expected:(Printf.sprintf "output %s" (Error.shape_str arows bcols))
      ~actual:(Error.shape_str (Smatrix.nrows out) (Smatrix.ncols out));
  Mask.m_check_shape mask arows bcols;
  let write t = Output.write_smatrix ~mask ~accum ~replace ~out ~t in
  match mask with
  | Mask.Mmask { m; complemented = false } ->
    (* The masked kernels compute only mask-allowed cells. *)
    let c =
      if transpose_b then mxm_dot sr ~mask:m a b
      else mxm_gustavson sr ~keep:(Mask.m_row_cursor mask) a b bcols
    in
    (* With no accumulator and no entry of [out] to keep, C<M> is the
       kernel's result itself: install it without the write step. *)
    if Option.is_none accum && (replace || Smatrix.nvals out = 0) then
      Smatrix.adopt out c
    else write c
  | Mask.No_mmask | Mask.Mmask { complemented = true; _ } ->
    write
      (mxm_gustavson sr a
         (if transpose_b then Smatrix.unsafe_transpose_view b else b)
         bcols)
