(* CSR is the canonical, always-present side.  A CSC side (the same
   entries sorted column-major — equivalently the CSR of the transpose)
   is built lazily by [ensure_csc] and cached until the next mutation;
   column-oriented consumers ([extract_col], transpose-mxv pull
   dispatch, unmasked transposed [mxm]) read it instead of rescanning
   or materializing a transpose. *)
type 'a csc = { colptr : int array; rowidx : int array; cvals : 'a array }

type 'a t = {
  dt : 'a Dtype.t;
  nrows : int;
  ncols : int;
  mutable rowptr : int array; (* length nrows + 1 *)
  mutable colidx : int array;
  mutable vals : 'a array;
  mutable csc : 'a csc option;
}

exception Dimension_mismatch = Error.Dim_mismatch
exception Index_out_of_bounds of string

let create dt nrows ncols =
  if nrows < 0 || ncols < 0 then invalid_arg "Smatrix.create: negative shape";
  { dt; nrows; ncols; rowptr = Array.make (nrows + 1) 0; colidx = [||];
    vals = [||]; csc = None }

let dtype m = m.dt
let nrows m = m.nrows
let ncols m = m.ncols
let shape m = (m.nrows, m.ncols)
let nvals m = m.rowptr.(m.nrows)

let csc_cached m = m.csc <> None
let rep_name m = if csc_cached m then "csr+csc" else "csr"
let invalidate_csc m = m.csc <- None

(* Counting sort of the CSR entries into column-major order; rows stay
   ascending within each column, so the CSC side is exactly the CSR of
   the transpose. *)
let build_csc m =
  let n = nvals m in
  let colptr = Array.make (m.ncols + 1) 0 in
  for p = 0 to n - 1 do
    colptr.(m.colidx.(p) + 1) <- colptr.(m.colidx.(p) + 1) + 1
  done;
  for c = 1 to m.ncols do
    colptr.(c) <- colptr.(c) + colptr.(c - 1)
  done;
  let cursor = Array.copy colptr in
  let rowidx = if n = 0 then [||] else Array.make n 0 in
  let cvals = if n = 0 then [||] else Array.make n m.vals.(0) in
  for r = 0 to m.nrows - 1 do
    for p = m.rowptr.(r) to m.rowptr.(r + 1) - 1 do
      let c = m.colidx.(p) in
      let q = cursor.(c) in
      rowidx.(q) <- r;
      cvals.(q) <- m.vals.(p);
      cursor.(c) <- q + 1
    done
  done;
  { colptr; rowidx; cvals }

let get_csc m =
  match m.csc with
  | Some csc -> csc
  | None ->
    let csc = build_csc m in
    m.csc <- Some csc;
    Format_stats.record_csc_build ();
    csc

let ensure_csc m = ignore (get_csc m)
let ensure_csr (_ : 'a t) = ()

let check_bounds m r c ctx =
  if r < 0 || r >= m.nrows || c < 0 || c >= m.ncols then
    raise
      (Index_out_of_bounds
         (Printf.sprintf "%s: (%d, %d) outside %dx%d" ctx r c m.nrows m.ncols))

(* Position of column [c] in row [r]: [Ok pos] or [Error insertion_point]. *)
let find m r c =
  let lo = ref m.rowptr.(r) and hi = ref m.rowptr.(r + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if m.colidx.(mid) < c then lo := mid + 1 else hi := mid
  done;
  if !lo < m.rowptr.(r + 1) && m.colidx.(!lo) = c then Ok !lo else Error !lo

let get m r c =
  check_bounds m r c "Smatrix.get";
  match find m r c with Ok p -> Some m.vals.(p) | Error _ -> None

let get_exn m r c =
  match get m r c with Some x -> x | None -> raise Not_found

let mem m r c =
  check_bounds m r c "Smatrix.mem";
  match find m r c with Ok _ -> true | Error _ -> false

(* Structure writes are copy-on-write: a result may share its operand's
   [rowptr]/[colidx] (see [of_csr_unsafe]), so [set] (insert), [remove]
   and [clear] build new structure arrays and never write the old ones.
   Values are not shared (outside the read-only [unsafe_transpose_view]),
   so [set] over a stored entry writes its value in place. *)
let shift_rowptr m r d =
  let rowptr = Array.copy m.rowptr in
  for i = r + 1 to m.nrows do
    rowptr.(i) <- rowptr.(i) + d
  done;
  m.rowptr <- rowptr

let set m r c x =
  check_bounds m r c "Smatrix.set";
  invalidate_csc m;
  match find m r c with
  | Ok p -> m.vals.(p) <- x
  | Error p ->
    let n = nvals m in
    let colidx' = Array.make (n + 1) 0 and vals' = Array.make (n + 1) x in
    Array.blit m.colidx 0 colidx' 0 p;
    Array.blit m.vals 0 vals' 0 p;
    colidx'.(p) <- c;
    vals'.(p) <- x;
    Array.blit m.colidx p colidx' (p + 1) (n - p);
    Array.blit m.vals p vals' (p + 1) (n - p);
    m.colidx <- colidx';
    m.vals <- vals';
    shift_rowptr m r 1

let remove m r c =
  check_bounds m r c "Smatrix.remove";
  invalidate_csc m;
  match find m r c with
  | Error _ -> ()
  | Ok p ->
    let n = nvals m in
    let colidx' = Array.make (n - 1) 0 in
    let vals' = if n = 1 then [||] else Array.make (n - 1) m.vals.(0) in
    Array.blit m.colidx 0 colidx' 0 p;
    Array.blit m.vals 0 vals' 0 p;
    Array.blit m.colidx (p + 1) colidx' p (n - p - 1);
    Array.blit m.vals (p + 1) vals' p (n - p - 1);
    m.colidx <- colidx';
    m.vals <- vals';
    shift_rowptr m r (-1)

let clear m =
  m.rowptr <- Array.make (m.nrows + 1) 0;
  m.colidx <- [||];
  m.vals <- [||];
  invalidate_csc m

let dup m =
  {
    dt = m.dt;
    nrows = m.nrows;
    ncols = m.ncols;
    rowptr = Array.copy m.rowptr;
    colidx = Array.sub m.colidx 0 (nvals m);
    vals = Array.sub m.vals 0 (nvals m);
    csc = None;
  }

let adopt dst src =
  if dst.nrows <> src.nrows || dst.ncols <> src.ncols then
    Error.raise_dims ~op:"Smatrix.adopt"
      ~expected:(Error.shape_str dst.nrows dst.ncols)
      ~actual:(Error.shape_str src.nrows src.ncols);
  dst.rowptr <- src.rowptr;
  dst.colidx <- src.colidx;
  dst.vals <- src.vals;
  invalidate_csc dst

let of_coo ?dup dt nrows ncols triples =
  let m = create dt nrows ncols in
  let combine = match dup with Some op -> op.Binop.f | None -> fun _ y -> y in
  let sorted =
    List.stable_sort
      (fun (r1, c1, _) (r2, c2, _) ->
        match Int.compare r1 r2 with 0 -> Int.compare c1 c2 | n -> n)
      triples
  in
  let n_in = List.length sorted in
  let colidx = Array.make (max n_in 1) 0 in
  let vals =
    match sorted with
    | [] -> [||]
    | (_, _, x) :: _ -> Array.make n_in x
  in
  let counts = Array.make (nrows + 1) 0 in
  let k = ref 0 in
  let prev_r = ref (-1) and prev_c = ref (-1) in
  List.iter
    (fun (r, c, x) ->
      check_bounds m r c "Smatrix.of_coo";
      if r = !prev_r && c = !prev_c then
        vals.(!k - 1) <- combine vals.(!k - 1) x
      else begin
        colidx.(!k) <- c;
        vals.(!k) <- x;
        counts.(r + 1) <- counts.(r + 1) + 1;
        incr k;
        prev_r := r;
        prev_c := c
      end)
    sorted;
  let rowptr = Array.make (nrows + 1) 0 in
  for r = 1 to nrows do
    rowptr.(r) <- rowptr.(r - 1) + counts.(r)
  done;
  m.rowptr <- rowptr;
  m.colidx <- Array.sub colidx 0 !k;
  m.vals <- (if !k = 0 then [||] else Array.sub vals 0 !k);
  m

let of_dense dt rows =
  let nrows = Array.length rows in
  let ncols = if nrows = 0 then 0 else Array.length rows.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> ncols then
        Error.raise_dims ~op:"Smatrix.of_dense"
          ~expected:(Printf.sprintf "row length %d" ncols)
          ~actual:(Printf.sprintf "row length %d" (Array.length r)))
    rows;
  let triples = ref [] in
  for r = nrows - 1 downto 0 do
    for c = ncols - 1 downto 0 do
      triples := (r, c, rows.(r).(c)) :: !triples
    done
  done;
  of_coo dt nrows ncols !triples

let of_dense_drop_zeros dt rows =
  let nrows = Array.length rows in
  let ncols = if nrows = 0 then 0 else Array.length rows.(0) in
  let triples = ref [] in
  for r = nrows - 1 downto 0 do
    if Array.length rows.(r) <> ncols then
      Error.raise_dims ~op:"Smatrix.of_dense_drop_zeros"
        ~expected:(Printf.sprintf "row length %d" ncols)
        ~actual:(Printf.sprintf "row length %d" (Array.length rows.(r)));
    for c = ncols - 1 downto 0 do
      let x = rows.(r).(c) in
      if not (Dtype.equal_values dt x (Dtype.zero dt)) then
        triples := (r, c, x) :: !triples
    done
  done;
  of_coo dt nrows ncols !triples

let of_rows_unsafe dt ~nrows ~ncols rows =
  assert (Array.length rows = nrows);
  let total = Array.fold_left (fun acc e -> acc + Entries.length e) 0 rows in
  let rowptr = Array.make (nrows + 1) 0 in
  let colidx = Array.make (max total 1) 0 in
  let vals = ref [||] in
  let k = ref 0 in
  Array.iteri
    (fun r e ->
      rowptr.(r) <- !k;
      Entries.iter
        (fun c x ->
          if !vals = [||] && total > 0 then vals := Array.make total x;
          colidx.(!k) <- c;
          !vals.(!k) <- x;
          incr k)
        e)
    rows;
  rowptr.(nrows) <- !k;
  { dt; nrows; ncols; rowptr; colidx = Array.sub colidx 0 !k; vals = !vals;
    csc = None }

let of_csr_unsafe dt ~nrows ~ncols ~rowptr ~colidx ~values =
  assert (Array.length rowptr = nrows + 1);
  assert (rowptr.(nrows) <= Array.length colidx);
  { dt; nrows; ncols; rowptr; colidx; vals = values; csc = None }

let row_nvals m r = m.rowptr.(r + 1) - m.rowptr.(r)

let iter_row f m r =
  for p = m.rowptr.(r) to m.rowptr.(r + 1) - 1 do
    f m.colidx.(p) m.vals.(p)
  done

let fold_row f init m r =
  let acc = ref init in
  iter_row (fun c x -> acc := f !acc c x) m r;
  !acc

let row_entries m r =
  let e = Entries.create () in
  iter_row (fun c x -> Entries.push e c x) m r;
  e

let extract_row m r =
  let v = Svector.create m.dt m.ncols in
  iter_row (fun c x -> Svector.set v c x) m r;
  v

let extract_col m c =
  (* Served from the cached CSC side: one counting sort amortized over
     all column extractions instead of a binary search per row per call. *)
  let csc = get_csc m in
  let v = Svector.create m.dt m.nrows in
  for p = csc.colptr.(c) to csc.colptr.(c + 1) - 1 do
    Svector.set v csc.rowidx.(p) csc.cvals.(p)
  done;
  v

let col_nvals m c =
  let csc = get_csc m in
  csc.colptr.(c + 1) - csc.colptr.(c)

let iter_col f m c =
  let csc = get_csc m in
  for p = csc.colptr.(c) to csc.colptr.(c + 1) - 1 do
    f csc.rowidx.(p) csc.cvals.(p)
  done

let iter f m =
  for r = 0 to m.nrows - 1 do
    iter_row (fun c x -> f r c x) m r
  done

let fold f init m =
  let acc = ref init in
  iter (fun r c x -> acc := f !acc r c x) m;
  !acc

let to_coo m = List.rev (fold (fun acc r c x -> (r, c, x) :: acc) [] m)

let to_dense ~fill m =
  let d = Array.make_matrix m.nrows m.ncols fill in
  iter (fun r c x -> d.(r).(c) <- x) m;
  d

(* The CSC side of [m] is exactly the CSR of its transpose, so a
   materialized transpose is copies of the cached arrays. *)
let transpose m =
  let csc = get_csc m in
  {
    dt = m.dt;
    nrows = m.ncols;
    ncols = m.nrows;
    rowptr = Array.copy csc.colptr;
    colidx = Array.copy csc.rowidx;
    vals = Array.copy csc.cvals;
    csc = None;
  }

let unsafe_transpose_view m =
  let csc = get_csc m in
  {
    dt = m.dt;
    nrows = m.ncols;
    ncols = m.nrows;
    rowptr = csc.colptr;
    colidx = csc.rowidx;
    vals = csc.cvals;
    (* The view's CSC is the original's CSR, also shared. *)
    csc = Some { colptr = m.rowptr; rowidx = m.colidx; cvals = m.vals };
  }

let cast ~into m =
  let n = nvals m and conv = Dtype.caster ~from:m.dt ~into in
  let vals = Array.make n (Dtype.zero into) in
  for p = 0 to n - 1 do
    vals.(p) <- conv m.vals.(p)
  done;
  {
    dt = into;
    nrows = m.nrows;
    ncols = m.ncols;
    rowptr = Array.copy m.rowptr;
    colidx = Array.sub m.colidx 0 n;
    vals;
    csc = None;
  }

(* One walk over the rows: the predicate marks the kept entries and
   counts them per row, then the kept entries are copied into arrays of
   exactly the kept size, in storage order. *)
let filter m ~f =
  let n = nvals m in
  let keep = Bytes.make n '\000' and rowptr = Array.make (m.nrows + 1) 0 in
  for r = 0 to m.nrows - 1 do
    let k = ref rowptr.(r) in
    for p = m.rowptr.(r) to m.rowptr.(r + 1) - 1 do
      if f r m.colidx.(p) m.vals.(p) then begin
        Bytes.unsafe_set keep p '\001';
        incr k
      end
    done;
    rowptr.(r + 1) <- !k
  done;
  let kept = rowptr.(m.nrows) in
  let colidx = Array.make kept 0 in
  let vals = if kept = 0 then [||] else Array.make kept m.vals.(0) in
  let q = ref 0 in
  for p = 0 to n - 1 do
    if Bytes.unsafe_get keep p <> '\000' then begin
      colidx.(!q) <- m.colidx.(p);
      vals.(!q) <- m.vals.(p);
      incr q
    end
  done;
  { dt = m.dt; nrows = m.nrows; ncols = m.ncols; rowptr; colidx; vals;
    csc = None }

let map m ~f =
  let n = nvals m in
  let vals = if n = 0 then [||] else Array.make n (f m.vals.(0)) in
  for p = 1 to n - 1 do
    vals.(p) <- f m.vals.(p)
  done;
  { dt = m.dt; nrows = m.nrows; ncols = m.ncols;
    rowptr = Array.copy m.rowptr; colidx = Array.sub m.colidx 0 n; vals;
    csc = None }

let map_inplace m ~f =
  invalidate_csc m;
  for p = 0 to nvals m - 1 do
    m.vals.(p) <- f m.vals.(p)
  done

let equal a b =
  a.nrows = b.nrows && a.ncols = b.ncols && nvals a = nvals b
  &&
  let ok = ref true in
  for r = 0 to a.nrows do
    if a.rowptr.(r) <> b.rowptr.(r) then ok := false
  done;
  if !ok then
    for p = 0 to nvals a - 1 do
      if a.colidx.(p) <> b.colidx.(p)
         || not (Dtype.equal_values a.dt a.vals.(p) b.vals.(p))
      then ok := false
    done;
  !ok

let pp fmt m =
  Format.fprintf fmt "@[<hov 2>Matrix<%s>(%dx%d, nvals=%d" (Dtype.name m.dt)
    m.nrows m.ncols (nvals m);
  iter
    (fun r c x ->
      Format.fprintf fmt ",@ (%d,%d):%s" r c (Dtype.to_string m.dt x))
    m;
  Format.fprintf fmt ")@]"

let unsafe_rowptr m = m.rowptr
let unsafe_colidx m = m.colidx
let unsafe_values m = m.vals

let unsafe_colptr m = (get_csc m).colptr
let unsafe_rowidx m = (get_csc m).rowidx
let unsafe_cvals m = (get_csc m).cvals
