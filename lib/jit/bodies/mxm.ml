(* Row-wise Gustavson product C = A ⊕.⊗ B over CSR arrays, with a dense
   accumulator (SPA); the result is CSR (rowptr, colidx, values).  Each
   row is emitted in ascending column order without a per-row
   allocation: a row that touches at least an eighth of the columns is
   emitted by a scan of [spa_occ]; any other row sorts its touched
   columns in place (insertion-sorted runs of 16, merged through the
   free upper half of [touched], which the cut keeps at least as long
   as the row).  Gbtl.Spa.sort_prefix is the same sort, and Spa makes
   the same choice for the library's kernels.  The output arrays start
   at A's nvals (not the length of A's possibly slack value array) and
   are returned as they grew, with slack past nvals (rowptr's last
   cell); Matmul.mxm_gustavson sizes and keeps its slack the same way. *)
let sort_prefix (t : int array) n =
  let run = 16 in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let x = t.(i) in
      let j = ref (i - 1) in
      while !j >= !lo && t.(!j) > x do
        t.(!j + 1) <- t.(!j);
        decr j
      done;
      t.(!j + 1) <- x
    done;
    lo := hi
  done;
  let src = ref 0 and dst = ref n and w = ref run in
  while !w < n do
    let s = !src and d = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = min n (!lo + !w) and hi = min n (!lo + (2 * !w)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !j >= hi || (!i < mid && t.(s + !i) < t.(s + !j)) then begin
          t.(d + k) <- t.(s + !i);
          incr i
        end
        else begin
          t.(d + k) <- t.(s + !j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    w := 2 * !w
  done;
  if !src <> 0 then Array.blit t !src t 0 n

let kernel (arg : Obj.t) : Obj.t =
  let arp, aci, avs, brp, bci, bvs, nrows_a, ncols_b =
    (Obj.obj arg
      : int array * int array * t array * int array * int array * t array
        * int * int)
  in
  let spa_vals = Array.make (max ncols_b 1) identity_ in
  let spa_occ = Array.make (max ncols_b 1) false in
  let touched = Array.make (max ncols_b 1) 0 in
  let rowptr = Array.make (nrows_a + 1) 0 in
  let cap = ref (max 16 arp.(nrows_a)) in
  let out_idx = ref (Array.make !cap 0) in
  let out_vls = ref (Array.make !cap identity_) in
  let n = ref 0 in
  let push c v =
    if !n = !cap then begin
      cap := 2 * !cap;
      let idx' = Array.make !cap 0 and vls' = Array.make !cap identity_ in
      Array.blit !out_idx 0 idx' 0 !n;
      Array.blit !out_vls 0 vls' 0 !n;
      out_idx := idx';
      out_vls := vls'
    end;
    !out_idx.(!n) <- c;
    !out_vls.(!n) <- v;
    incr n
  in
  for i = 0 to nrows_a - 1 do
    rowptr.(i) <- !n;
    let nt = ref 0 in
    for p = arp.(i) to arp.(i + 1) - 1 do
      let k = aci.(p) in
      let aik = avs.(p) in
      for q = brp.(k) to brp.(k + 1) - 1 do
        let j = bci.(q) in
        let v = mul_ aik bvs.(q) in
        if spa_occ.(j) then spa_vals.(j) <- add_ spa_vals.(j) v
        else begin
          spa_occ.(j) <- true;
          spa_vals.(j) <- v;
          touched.(!nt) <- j;
          incr nt
        end
      done
    done;
    if 8 * !nt >= ncols_b then
      for j = 0 to ncols_b - 1 do
        if spa_occ.(j) then begin
          push j spa_vals.(j);
          spa_occ.(j) <- false
        end
      done
    else begin
      sort_prefix touched !nt;
      for q = 0 to !nt - 1 do
        let j = touched.(q) in
        push j spa_vals.(j);
        spa_occ.(j) <- false
      done
    end
  done;
  rowptr.(nrows_a) <- !n;
  Obj.repr (rowptr, !out_idx, !out_vls)
