let apply_vector ?(mask = Mask.No_vmask) ?accum ?(replace = false)
    (f : 'a Unaryop.t) ~out u =
  if Svector.size out <> Svector.size u then
    Error.raise_dims ~op:"apply"
      ~expected:(Printf.sprintf "output size %d" (Svector.size u))
      ~actual:(Error.size_str (Svector.size out));
  let t = Entries.create () in
  Svector.iter (fun i x -> Entries.push t i (f.Unaryop.f x)) u;
  Output.write_vector ~mask ~accum ~replace ~out ~t

let apply_matrix ?(mask = Mask.No_mmask) ?accum ?(replace = false)
    ?(transpose = false) (f : 'a Unaryop.t) ~out a =
  let a = if transpose then Smatrix.transpose a else a in
  if Smatrix.shape out <> Smatrix.shape a then
    Error.raise_dims ~op:"apply"
      ~expected:
        (Printf.sprintf "output %s"
           (Error.shape_str (Smatrix.nrows a) (Smatrix.ncols a)))
      ~actual:(Error.shape_str (Smatrix.nrows out) (Smatrix.ncols out));
  let t =
    Array.init (Smatrix.nrows a) (fun r ->
        let e = Entries.create () in
        Smatrix.iter_row (fun c x -> Entries.push e c (f.Unaryop.f x)) a r;
        e)
  in
  Output.write_matrix ~mask ~accum ~replace ~out ~t

let reduce_rows ?(mask = Mask.No_vmask) ?accum ?(replace = false)
    ?(transpose = false) (m : 'a Monoid.t) ~out a =
  let a = if transpose then Smatrix.transpose a else a in
  if Svector.size out <> Smatrix.nrows a then
    Error.raise_dims ~op:"reduce"
      ~expected:(Printf.sprintf "output size %d" (Smatrix.nrows a))
      ~actual:(Error.size_str (Svector.size out));
  let t = Entries.create () in
  for r = 0 to Smatrix.nrows a - 1 do
    if Smatrix.row_nvals a r > 0 then begin
      let acc = ref m.Monoid.identity in
      Smatrix.iter_row (fun _ x -> acc := m.Monoid.op.Binop.f !acc x) a r;
      Entries.push t r !acc
    end
  done;
  Output.write_vector ~mask ~accum ~replace ~out ~t

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
