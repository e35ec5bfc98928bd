let merge_with f c t =
  let out = Entries.create () in
  let nc = Entries.length c and nt = Entries.length t in
  let i = ref 0 and j = ref 0 in
  while !i < nc || !j < nt do
    if !i >= nc then begin
      Entries.push out (Entries.get_idx t !j) (Entries.get_val t !j);
      incr j
    end
    else if !j >= nt then begin
      Entries.push out (Entries.get_idx c !i) (Entries.get_val c !i);
      incr i
    end
    else begin
      let ic = Entries.get_idx c !i and it = Entries.get_idx t !j in
      if ic < it then begin
        Entries.push out ic (Entries.get_val c !i);
        incr i
      end
      else if it < ic then begin
        Entries.push out it (Entries.get_val t !j);
        incr j
      end
      else begin
        Entries.push out ic (f (Entries.get_val c !i) (Entries.get_val t !j));
        incr i;
        incr j
      end
    end
  done;
  out

let masked_entries ~allowed ~accum ~replace ~c ~t =
  let z = match accum with None -> t | Some f -> merge_with f c t in
  let out = Entries.create () in
  let nz = Entries.length z and nc = Entries.length c in
  let i = ref 0 (* walks z *) and j = ref 0 (* walks c *) in
  let keep_z idx v = if allowed idx then Entries.push out idx v in
  let keep_c idx v = if (not (allowed idx)) && not replace then Entries.push out idx v in
  while !i < nz || !j < nc do
    if !i >= nz then begin
      keep_c (Entries.get_idx c !j) (Entries.get_val c !j);
      incr j
    end
    else if !j >= nc then begin
      keep_z (Entries.get_idx z !i) (Entries.get_val z !i);
      incr i
    end
    else begin
      let iz = Entries.get_idx z !i and ic = Entries.get_idx c !j in
      if iz < ic then begin
        keep_z iz (Entries.get_val z !i);
        incr i
      end
      else if ic < iz then begin
        keep_c ic (Entries.get_val c !j);
        incr j
      end
      else begin
        (* Present in both: allowed -> Z wins, masked out -> C survives
           unless replace. *)
        if allowed iz then Entries.push out iz (Entries.get_val z !i)
        else if not replace then Entries.push out ic (Entries.get_val c !j);
        incr i;
        incr j
      end
    end
  done;
  out

let write_vector ~mask ~accum ~replace ~out ~t =
  Mask.v_check_size mask (Svector.size out);
  match mask, accum with
  | Mask.No_vmask, None ->
    (* C = T exactly; replace is irrelevant without a mask *)
    Svector.replace_contents out t
  | _, _ ->
    let accum = Option.map (fun (op : _ Binop.t) -> op.Binop.f) accum in
    let c = Svector.entries out in
    let result =
      masked_entries ~allowed:(Mask.v_allowed mask) ~accum ~replace ~c ~t
    in
    Svector.replace_contents out result

(* A vector result held in a container.  With both sides sparse the
   entry merge above runs; otherwise the write runs in one ascending
   pass over [out]'s dense arrays, in place (the write target is the one
   container a write may convert), and the fill rules then settle
   [out]'s layout. *)
let write_svector ~mask ~accum ~replace ~out ~t =
  let n = Svector.size out in
  Mask.v_check_size mask n;
  if Svector.size t <> n then
    Error.raise_dims ~op:"write"
      ~expected:(Printf.sprintf "result size %d" n)
      ~actual:(Error.size_str (Svector.size t));
  match mask, accum with
  | Mask.No_vmask, None -> Svector.adopt out (Svector.dup t)
  | _, _ when not (Svector.is_dense out || Svector.is_dense t) ->
    write_vector ~mask ~accum ~replace ~out ~t:(Svector.entries t)
  | _, _ when n = 0 -> ()
  | _, _ ->
    let accum = Option.map (fun (op : _ Binop.t) -> op.Binop.f) accum in
    let allowed = Mask.v_cursor mask in
    let tv, tocc = Svector.dense_view t in
    let cv, cocc = Svector.unsafe_dense out in
    for i = 0 to n - 1 do
      if allowed i then begin
        if tocc.(i) then begin
          (match accum with
          | Some f when cocc.(i) -> cv.(i) <- f cv.(i) tv.(i)
          | Some _ | None -> cv.(i) <- tv.(i));
          cocc.(i) <- true
        end
        else if accum = None then cocc.(i) <- false
      end
      else if replace then cocc.(i) <- false
    done;
    Svector.replace_dense_unsafe out ~vals:cv ~valid:cocc;
    Svector.settle out

let write_matrix ~mask ~accum ~replace ~out ~t =
  let nrows = Smatrix.nrows out and ncols = Smatrix.ncols out in
  Mask.m_check_shape mask nrows ncols;
  assert (Array.length t = nrows);
  match mask, accum with
  | Mask.No_mmask, None ->
    Smatrix.adopt out
      (Smatrix.of_rows_unsafe (Smatrix.dtype out) ~nrows ~ncols t)
  | _, _ ->
    let accum = Option.map (fun (op : _ Binop.t) -> op.Binop.f) accum in
    let rows =
      Array.init nrows (fun r ->
          masked_entries ~allowed:(Mask.m_row_cursor mask r) ~accum ~replace
            ~c:(Smatrix.row_entries out r) ~t:t.(r))
    in
    Smatrix.adopt out
      (Smatrix.of_rows_unsafe (Smatrix.dtype out) ~nrows ~ncols rows)

(* A kernel's fresh matrix result: installed as it is when nothing
   remains to merge, else written row by row as above. *)
let write_smatrix ~mask ~accum ~replace ~out ~t =
  if Smatrix.shape t <> Smatrix.shape out then
    Error.raise_dims ~op:"write"
      ~expected:(Error.shape_str (Smatrix.nrows out) (Smatrix.ncols out))
      ~actual:(Error.shape_str (Smatrix.nrows t) (Smatrix.ncols t));
  match mask, accum with
  | Mask.No_mmask, None -> Smatrix.adopt out t
  | _, _ ->
    write_matrix ~mask ~accum ~replace ~out
      ~t:(Array.init (Smatrix.nrows t) (Smatrix.row_entries t))
