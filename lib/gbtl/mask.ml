type vmask =
  | No_vmask
  | Vmask of { dense : bool array; complemented : bool }
  | Vmask_sparse of { size : int; idx : int array; complemented : bool }

type mmask =
  | No_mmask
  | Mmask of { m : bool Smatrix.t; complemented : bool }

(* Sorted indices of the truthy entries — O(nvals) to build, vs O(size)
   for the dense boolean array. *)
let sparse_of_vector v =
  let truthy = Dtype.caster ~from:(Svector.dtype v) ~into:Dtype.Bool in
  let idx = Array.make (Svector.nvals v) 0 and k = ref 0 in
  Svector.iter
    (fun i x ->
      if truthy x then begin
        idx.(!k) <- i;
        incr k
      end)
    v;
  if !k = Array.length idx then idx else Array.sub idx 0 !k

let vmask ?(complemented = false) v =
  (* A sparse mask only pays off when membership tests stay cheap and the
     build avoids touching every position; low fill is the common case
     for algorithm frontiers (BFS's ¬visited write masks). *)
  if
    Format_stats.enabled ()
    && Svector.size v >= 64
    && 8 * Svector.nvals v < Svector.size v
  then begin
    Format_stats.record_sparse_mask ();
    Vmask_sparse
      { size = Svector.size v; idx = sparse_of_vector v; complemented }
  end
  else Vmask { dense = Svector.to_bool_dense v; complemented }

(* A non-Bool mask is a Bool view over the source's own [rowptr] and
   [colidx]: only the truth values are new.  Structure writes are
   copy-on-write, so [Smatrix.set] (insert), [remove] and [clear] on the
   source leave the view's pattern as it was built.  A Bool source is
   its own mask, though, and [set] over a stored entry writes its value
   in place, so a mask is still read by the one operation it is built
   for, and no write to the source runs while that operation does. *)
let coerce_bool_matrix (type a) (m : a Smatrix.t) : bool Smatrix.t =
  let dt = Smatrix.dtype m in
  match Dtype.equal_witness dt Dtype.Bool with
  | Some Dtype.Equal -> m
  | None ->
    Smatrix.of_csr_unsafe Dtype.Bool ~nrows:(Smatrix.nrows m)
      ~ncols:(Smatrix.ncols m) ~rowptr:(Smatrix.unsafe_rowptr m)
      ~colidx:(Smatrix.unsafe_colidx m)
      ~values:(Dtype.truths dt (Smatrix.unsafe_values m) (Smatrix.nvals m))

let mmask ?(complemented = false) m =
  Mmask { m = coerce_bool_matrix m; complemented }

let mem_sorted idx i =
  let lo = ref 0 and hi = ref (Array.length idx) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if idx.(mid) < i then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length idx && idx.(!lo) = i

let v_allowed mask i =
  match mask with
  | No_vmask -> true
  | Vmask { dense; complemented } -> dense.(i) <> complemented
  | Vmask_sparse { idx; complemented; _ } -> mem_sorted idx i <> complemented

let v_cursor mask =
  match mask with
  | No_vmask | Vmask _ -> v_allowed mask
  | Vmask_sparse { idx; complemented; _ } ->
    let q = ref 0 and qe = Array.length idx in
    fun i ->
      while !q < qe && idx.(!q) < i do
        incr q
      done;
      (!q < qe && idx.(!q) = i) <> complemented

let v_check_size mask n =
  let fail len =
    Error.raise_dims ~op:"mask"
      ~expected:(Printf.sprintf "vector size %d" n)
      ~actual:(Error.size_str len)
  in
  match mask with
  | No_vmask -> ()
  | Vmask { dense; _ } -> if Array.length dense <> n then fail (Array.length dense)
  | Vmask_sparse { size; _ } -> if size <> n then fail size

let m_check_shape mask nrows ncols =
  match mask with
  | No_mmask -> ()
  | Mmask { m; _ } ->
    if Smatrix.nrows m <> nrows || Smatrix.ncols m <> ncols then
      Error.raise_dims ~op:"mask"
        ~expected:(Printf.sprintf "output %s" (Error.shape_str nrows ncols))
        ~actual:(Error.shape_str (Smatrix.nrows m) (Smatrix.ncols m))

let m_row_cursor mask r =
  match mask with
  | No_mmask -> fun _ -> true
  | Mmask { m; complemented } ->
    let ci = Smatrix.unsafe_colidx m and vs = Smatrix.unsafe_values m in
    let q = ref (Smatrix.unsafe_rowptr m).(r)
    and qe = (Smatrix.unsafe_rowptr m).(r + 1) in
    fun c ->
      while !q < qe && ci.(!q) < c do
        incr q
      done;
      let stored_true = !q < qe && ci.(!q) = c && vs.(!q) in
      stored_true <> complemented
