(* Two storage representations behind one interface:

   - Sparse (the original layout): sorted (index, value) arrays, the
     first [nvals] cells meaningful.
   - Dense: a full [size]-length value array plus a validity bitmap;
     [nvals] counts the valid cells.

   Exactly one side is authoritative at a time: [dense = Some d] means
   the dense payload holds the entries and the sparse arrays are stale;
   [dense = None] means the sparse arrays hold them.  Conversions are
   explicit ([densify]/[sparsify]) plus a fill-ratio auto-switch on bulk
   writes, gated by [Format_stats.enabled].  Logical iteration order is
   ascending index in both representations, so every consumer sees the
   same entry sequence (bit-identical results either way). *)

type 'a dense = { dvals : 'a array; valid : bool array }

type 'a t = {
  dt : 'a Dtype.t;
  size : int;
  mutable nvals : int;
  mutable idx : int array;
  mutable vals : 'a array;
  mutable dense : 'a dense option;
}

exception Dimension_mismatch = Error.Dim_mismatch
exception Index_out_of_bounds of string

let create dt size =
  if size < 0 then invalid_arg "Svector.create: negative size";
  { dt; size; nvals = 0; idx = [||]; vals = [||]; dense = None }

let dtype v = v.dt
let size v = v.size
let nvals v = v.nvals
let is_dense v = v.dense <> None
let rep_name v = if is_dense v then "dense" else "sparse"

(* Hysteresis: dense above 1/4 fill, back to sparse below 1/16. *)
let densify_worthwhile v = v.size >= 32 && 4 * v.nvals >= v.size
let sparsify_worthwhile v = 16 * v.nvals < v.size

let stays_dense v =
  is_dense v && Format_stats.enabled () && densify_worthwhile v

let check_index v i ctx =
  if i < 0 || i >= v.size then
    raise
      (Index_out_of_bounds
         (Printf.sprintf "%s: index %d outside [0, %d)" ctx i v.size))

(* Binary search for [i] in the sparse arrays; returns [Ok pos] if
   present, [Error ins] with the insertion point otherwise.  Only valid
   while the sparse side is authoritative. *)
let find v i =
  let lo = ref 0 and hi = ref v.nvals in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.idx.(mid) < i then lo := mid + 1 else hi := mid
  done;
  if !lo < v.nvals && v.idx.(!lo) = i then Ok !lo else Error !lo

let ensure_capacity v n dummy =
  if Array.length v.idx < n then begin
    let cap = max 8 (max n (2 * Array.length v.idx)) in
    let idx' = Array.make cap 0 and vals' = Array.make cap dummy in
    (* a dense vector's sparse arrays are stale: nothing to keep *)
    if v.dense = None then begin
      Array.blit v.idx 0 idx' 0 v.nvals;
      Array.blit v.vals 0 vals' 0 v.nvals
    end;
    v.idx <- idx';
    v.vals <- vals'
  end

let do_densify ~auto v =
  match v.dense with
  | Some _ -> ()
  | None ->
    let dvals = Array.make (max v.size 1) (Dtype.zero v.dt) in
    let valid = Array.make (max v.size 1) false in
    for k = 0 to v.nvals - 1 do
      dvals.(v.idx.(k)) <- v.vals.(k);
      valid.(v.idx.(k)) <- true
    done;
    v.dense <- Some { dvals; valid };
    Format_stats.record_densify ~auto

let do_sparsify ~auto v =
  match v.dense with
  | None -> ()
  | Some { dvals; valid } ->
    let n = v.nvals in
    if Array.length v.idx < n then begin
      v.idx <- Array.make (max n 8) 0;
      v.vals <- Array.make (max n 8) (Dtype.zero v.dt)
    end;
    let k = ref 0 in
    for i = 0 to v.size - 1 do
      if valid.(i) then begin
        v.idx.(!k) <- i;
        v.vals.(!k) <- dvals.(i);
        incr k
      end
    done;
    v.dense <- None;
    Format_stats.record_sparsify ~auto

let densify v = do_densify ~auto:false v
let sparsify v = do_sparsify ~auto:false v

let maybe_densify v =
  if Format_stats.enabled () && (not (is_dense v)) && densify_worthwhile v
  then do_densify ~auto:true v

let get v i =
  check_index v i "Svector.get";
  match v.dense with
  | Some { dvals; valid } -> if valid.(i) then Some dvals.(i) else None
  | None -> ( match find v i with Ok p -> Some v.vals.(p) | Error _ -> None)

let get_exn v i =
  match get v i with Some x -> x | None -> raise Not_found

let mem v i =
  check_index v i "Svector.mem";
  match v.dense with
  | Some { valid; _ } -> valid.(i)
  | None -> ( match find v i with Ok _ -> true | Error _ -> false)

(* Sparse-side insertion; the caller has checked the index and that the
   sparse arrays are authoritative. *)
let set_sparse v i x =
  match find v i with
  | Ok p -> v.vals.(p) <- x
  | Error p ->
    ensure_capacity v (v.nvals + 1) x;
    Array.blit v.idx p v.idx (p + 1) (v.nvals - p);
    Array.blit v.vals p v.vals (p + 1) (v.nvals - p);
    v.idx.(p) <- i;
    v.vals.(p) <- x;
    v.nvals <- v.nvals + 1

let set v i x =
  check_index v i "Svector.set";
  match v.dense with
  | Some { dvals; valid } ->
    dvals.(i) <- x;
    if not valid.(i) then begin
      valid.(i) <- true;
      v.nvals <- v.nvals + 1
    end
  | None -> set_sparse v i x

let remove v i =
  check_index v i "Svector.remove";
  match v.dense with
  | Some { valid; _ } ->
    if valid.(i) then begin
      valid.(i) <- false;
      v.nvals <- v.nvals - 1;
      if Format_stats.enabled () && sparsify_worthwhile v then
        do_sparsify ~auto:true v
    end
  | None -> (
    match find v i with
    | Error _ -> ()
    | Ok p ->
      Array.blit v.idx (p + 1) v.idx p (v.nvals - p - 1);
      Array.blit v.vals (p + 1) v.vals p (v.nvals - p - 1);
      v.nvals <- v.nvals - 1)

let clear v =
  v.nvals <- 0;
  v.dense <- None

let dup v =
  match v.dense with
  | Some { dvals; valid } ->
    { dt = v.dt;
      size = v.size;
      nvals = v.nvals;
      idx = [||];
      vals = [||];
      dense = Some { dvals = Array.copy dvals; valid = Array.copy valid } }
  | None ->
    { dt = v.dt;
      size = v.size;
      nvals = v.nvals;
      idx = Array.sub v.idx 0 v.nvals;
      vals = Array.sub v.vals 0 v.nvals;
      dense = None }

let of_coo ?dup dt size alist =
  let v = create dt size in
  let combine =
    match dup with
    | Some op -> op.Binop.f
    | None -> fun _ y -> y
  in
  let sorted = List.stable_sort (fun (i, _) (j, _) -> Int.compare i j) alist in
  List.iter
    (fun (i, x) ->
      check_index v i "Svector.of_coo";
      match find v i with
      | Ok p -> v.vals.(p) <- combine v.vals.(p) x
      | Error _ -> set_sparse v i x)
    sorted;
  maybe_densify v;
  v

let of_dense dt arr =
  let n = Array.length arr in
  let v = create dt n in
  ensure_capacity v n (if n > 0 then arr.(0) else Dtype.zero dt);
  Array.iteri
    (fun i x ->
      v.idx.(i) <- i;
      v.vals.(i) <- x)
    arr;
  v.nvals <- n;
  maybe_densify v;
  v

let of_dense_drop_zeros dt arr =
  let v = create dt (Array.length arr) in
  Array.iteri
    (fun i x ->
      if not (Dtype.equal_values dt x (Dtype.zero dt)) then set_sparse v i x)
    arr;
  maybe_densify v;
  v

let replace_contents v e =
  let n = Entries.length e in
  if n > 0 then begin
    let last = Entries.get_idx e (n - 1) in
    if last >= v.size then
      raise
        (Index_out_of_bounds
           (Printf.sprintf "Svector.replace_contents: index %d outside [0, %d)"
              last v.size));
    ensure_capacity v n (Entries.get_val e 0)
  end;
  for k = 0 to n - 1 do
    v.idx.(k) <- Entries.get_idx e k;
    v.vals.(k) <- Entries.get_val e k
  done;
  v.nvals <- n;
  v.dense <- None;
  maybe_densify v

let iter f v =
  match v.dense with
  | Some { dvals; valid } ->
    for i = 0 to v.size - 1 do
      if valid.(i) then f i dvals.(i)
    done
  | None ->
    for k = 0 to v.nvals - 1 do
      f v.idx.(k) v.vals.(k)
    done

let entries v =
  let e = Entries.create () in
  iter (fun i x -> Entries.push e i x) v;
  e

let fold f init v =
  let acc = ref init in
  iter (fun i x -> acc := f !acc i x) v;
  !acc

let to_alist v = List.rev (fold (fun acc i x -> (i, x) :: acc) [] v)

let to_dense ~fill v =
  let arr = Array.make v.size fill in
  iter (fun i x -> arr.(i) <- x) v;
  arr

let cast ~into v =
  let out = create into v.size and conv = Dtype.caster ~from:v.dt ~into in
  (match v.dense with
  | Some { dvals; valid } ->
    let dvals' = Array.make (max v.size 1) (Dtype.zero into) in
    for i = 0 to v.size - 1 do
      if valid.(i) then dvals'.(i) <- conv dvals.(i)
    done;
    out.dense <- Some { dvals = dvals'; valid = Array.copy valid }
  | None ->
    ensure_capacity out v.nvals (Dtype.zero into);
    for k = 0 to v.nvals - 1 do
      out.idx.(k) <- v.idx.(k);
      out.vals.(k) <- conv v.vals.(k)
    done);
  out.nvals <- v.nvals;
  out

let map v ~f =
  let out = dup v in
  (match out.dense with
  | Some { dvals; valid } ->
    for i = 0 to out.size - 1 do
      if valid.(i) then dvals.(i) <- f dvals.(i)
    done
  | None ->
    for k = 0 to out.nvals - 1 do
      out.vals.(k) <- f out.vals.(k)
    done);
  out

let map_inplace v ~f =
  match v.dense with
  | Some { dvals; valid } ->
    for i = 0 to v.size - 1 do
      if valid.(i) then dvals.(i) <- f dvals.(i)
    done
  | None ->
    for k = 0 to v.nvals - 1 do
      v.vals.(k) <- f v.vals.(k)
    done

let to_bool_dense v =
  let arr = Array.make v.size false
  and truthy = Dtype.caster ~from:v.dt ~into:Dtype.Bool in
  iter (fun i x -> arr.(i) <- truthy x) v;
  arr

(* Representation-agnostic: same size, same stored positions, same
   values — a dense vector equals its sparsified twin. *)
let equal a b =
  a.size = b.size && a.nvals = b.nvals
  &&
  try
    iter
      (fun i x ->
        match get b i with
        | Some y when Dtype.equal_values a.dt x y -> ()
        | Some _ | None -> raise Exit)
      a;
    true
  with Exit -> false

(* Kernel views: the live arrays when the vector already has the layout
   asked for, a fresh copy otherwise.  A read never converts the
   container, so a vector shared by concurrent readers stays as it
   is. *)
let sparse_view v =
  match v.dense with
  | None -> (v.idx, v.vals, v.nvals)
  | Some { dvals; valid } ->
    let n = v.nvals in
    let idx = Array.make n 0 and vals = Array.make n (Dtype.zero v.dt) in
    let k = ref 0 in
    for i = 0 to v.size - 1 do
      if valid.(i) then begin
        idx.(!k) <- i;
        vals.(!k) <- dvals.(i);
        incr k
      end
    done;
    (idx, vals, n)

let dense_view v =
  match v.dense with
  | Some { dvals; valid } -> (dvals, valid)
  | None ->
    let dvals = Array.make (max v.size 1) (Dtype.zero v.dt) in
    let valid = Array.make (max v.size 1) false in
    for k = 0 to v.nvals - 1 do
      dvals.(v.idx.(k)) <- v.vals.(k);
      valid.(v.idx.(k)) <- true
    done;
    (dvals, valid)

let unsafe_dense v =
  do_densify ~auto:false v;
  match v.dense with
  | Some { dvals; valid } -> (dvals, valid)
  | None -> assert false

let count_valid size valid =
  let n = ref 0 in
  for i = 0 to size - 1 do
    if valid.(i) then incr n
  done;
  !n

let of_dense_unsafe dt ~vals ~valid =
  let size = Array.length valid in
  if Array.length vals <> size then
    Error.raise_dims ~op:"Svector.of_dense_unsafe"
      ~expected:(Printf.sprintf "vals of length %d" size)
      ~actual:(Printf.sprintf "length %d" (Array.length vals));
  { dt; size; nvals = count_valid size valid; idx = [||]; vals = [||];
    dense = Some { dvals = vals; valid } }

let of_sparse_unsafe dt size ~idx ~vals ~nvals =
  if nvals > Array.length idx || nvals > Array.length vals then
    Error.raise_dims ~op:"Svector.of_sparse_unsafe"
      ~expected:(Printf.sprintf "arrays of at least %d cells" nvals)
      ~actual:(Printf.sprintf "lengths %d/%d" (Array.length idx)
                 (Array.length vals));
  if nvals > 0 && (idx.(nvals - 1) >= size || idx.(0) < 0) then
    raise
      (Index_out_of_bounds
         (Printf.sprintf "Svector.of_sparse_unsafe: index outside [0, %d)"
            size));
  { dt; size; nvals; idx; vals; dense = None }

let replace_dense_unsafe v ~vals ~valid =
  if Array.length valid <> v.size || Array.length vals <> v.size then
    Error.raise_dims ~op:"Svector.replace_dense_unsafe"
      ~expected:(Printf.sprintf "arrays of length %d" v.size)
      ~actual:(Printf.sprintf "lengths %d/%d" (Array.length vals)
                 (Array.length valid));
  v.nvals <- count_valid v.size valid;
  v.dense <- Some { dvals = vals; valid }

let settle v =
  if Format_stats.enabled () then
    if is_dense v then begin
      if sparsify_worthwhile v then do_sparsify ~auto:true v
    end
    else if densify_worthwhile v then do_densify ~auto:true v

let adopt v t =
  if t.size <> v.size then
    Error.raise_dims ~op:"Svector.adopt"
      ~expected:(Printf.sprintf "size %d" v.size)
      ~actual:(Error.size_str t.size);
  v.nvals <- t.nvals;
  v.idx <- t.idx;
  v.vals <- t.vals;
  v.dense <- t.dense;
  settle v

let pp fmt v =
  Format.fprintf fmt "@[<hov 2>Vector<%s>(size=%d, nvals=%d" (Dtype.name v.dt)
    v.size v.nvals;
  iter (fun i x -> Format.fprintf fmt ",@ %d:%s" i (Dtype.to_string v.dt x)) v;
  Format.fprintf fmt ")@]"
