let apply_vector ?(mask = Mask.No_vmask) ?accum ?(replace = false)
    (f : 'a Unaryop.t) ~out u =
  if Svector.size out <> Svector.size u then
    Error.raise_dims ~op:"apply"
      ~expected:(Printf.sprintf "output size %d" (Svector.size u))
      ~actual:(Error.size_str (Svector.size out));
  let t = Entries.create () in
  Svector.iter (fun i x -> Entries.push t i (f.Unaryop.f x)) u;
  Output.write_vector ~mask ~accum ~replace ~out ~t

(* Transposed operands are read through the cached CSC side. *)
let oriented a transpose =
  if transpose then Smatrix.unsafe_transpose_view a else a

let apply_matrix ?(mask = Mask.No_mmask) ?accum ?(replace = false)
    ?(transpose = false) (f : 'a Unaryop.t) ~out a =
  let a = oriented a transpose in
  if Smatrix.shape out <> Smatrix.shape a then
    Error.raise_dims ~op:"apply"
      ~expected:
        (Printf.sprintf "output %s"
           (Error.shape_str (Smatrix.nrows a) (Smatrix.ncols a)))
      ~actual:(Error.shape_str (Smatrix.nrows out) (Smatrix.ncols out));
  Output.write_smatrix ~mask ~accum ~replace ~out
    ~t:(Smatrix.map a ~f:f.Unaryop.f)

(* One pass over the CSR arrays; a row's fold starts from the identity. *)
let row_reductions ?(transpose = false) (m : 'a Monoid.t) a =
  let a = oriented a transpose in
  let rowptr = Smatrix.unsafe_rowptr a and vals = Smatrix.unsafe_values a in
  let f = m.Monoid.op.Binop.f and nrows = Smatrix.nrows a in
  let nonempty = ref 0 in
  for r = 0 to nrows - 1 do
    if rowptr.(r + 1) > rowptr.(r) then incr nonempty
  done;
  let idx = Array.make !nonempty 0
  and out = Array.make !nonempty m.Monoid.identity in
  let k = ref 0 in
  for r = 0 to nrows - 1 do
    if rowptr.(r + 1) > rowptr.(r) then begin
      let acc = ref m.Monoid.identity in
      for p = rowptr.(r) to rowptr.(r + 1) - 1 do
        acc := f !acc vals.(p)
      done;
      idx.(!k) <- r;
      out.(!k) <- !acc;
      incr k
    end
  done;
  Entries.of_arrays_unsafe idx out ~len:!nonempty

let reduce_rows ?(mask = Mask.No_vmask) ?accum ?(replace = false)
    ?(transpose = false) (m : 'a Monoid.t) ~out a =
  let nrows = if transpose then Smatrix.ncols a else Smatrix.nrows a in
  if Svector.size out <> nrows then
    Error.raise_dims ~op:"reduce"
      ~expected:(Printf.sprintf "output size %d" nrows)
      ~actual:(Error.size_str (Svector.size out));
  Output.write_vector ~mask ~accum ~replace ~out
    ~t:(row_reductions ~transpose m a)

let finish_scalar ?accum ?init (m : 'a Monoid.t) ~nvals total =
  let reduced = if nvals = 0 then m.Monoid.identity else total in
  match accum, init with
  | Some (op : 'a Binop.t), Some s -> op.Binop.f s reduced
  | Some _, None | None, (Some _ | None) -> reduced

let reduce_vector_scalar ?accum ?init (m : 'a Monoid.t) u =
  let total =
    Svector.fold (fun acc _ x -> m.Monoid.op.Binop.f acc x) m.Monoid.identity u
  in
  finish_scalar ?accum ?init m ~nvals:(Svector.nvals u) total

(* Storage order is row-major, so folding the values array visits the
   entries in the same order as [Smatrix.fold]. *)
let reduce_matrix_scalar ?accum ?init (m : 'a Monoid.t) a =
  let vals = Smatrix.unsafe_values a and f = m.Monoid.op.Binop.f in
  let total = ref m.Monoid.identity in
  for p = 0 to Smatrix.nvals a - 1 do
    total := f !total vals.(p)
  done;
  finish_scalar ?accum ?init m ~nvals:(Smatrix.nvals a) !total
