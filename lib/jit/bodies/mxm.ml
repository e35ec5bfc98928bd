(* Row-wise Gustavson product C = A ⊕.⊗ B over CSR arrays, with a dense
   accumulator (SPA) and the touched columns of each row sorted before
   they are emitted; the result is CSR (rowptr, colidx, values). *)
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
  let cap = ref (max 16 (Array.length avs)) in
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
    let row = Array.sub touched 0 !nt in
    Array.sort Int.compare row;
    Array.iter
      (fun j ->
        push j spa_vals.(j);
        spa_occ.(j) <- false)
      row
  done;
  rowptr.(nrows_a) <- !n;
  Obj.repr (rowptr, Array.sub !out_idx 0 !n, Array.sub !out_vls 0 !n)
