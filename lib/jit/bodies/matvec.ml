(* w = A ⊕.⊗ u over the CSR arrays of A.  [scatter] = false gathers row
   by row, w_i = ⊕_j A(i,j) ⊗ u(j); [scatter] = true runs along the rows
   of u's entries, w_c = ⊕_j A(j,c) ⊗ u(j).  Both fold each output's
   terms in ascending source order.  The matrix value is mul_'s first
   operand; vxm swaps the operands in its prelude and runs these loops
   unchanged. *)
let kernel (arg : Obj.t) : Obj.t =
  let arp, aci, avs, uidx, uvls, un, nrows, ncols, scatter =
    (Obj.obj arg
      : int array * int array * t array * int array * t array * int * int
        * int * bool)
  in
  if not scatter then begin
    let u_dense = Array.make ncols identity_ in
    let u_occ = Array.make ncols false in
    for k = 0 to un - 1 do
      u_dense.(uidx.(k)) <- uvls.(k);
      u_occ.(uidx.(k)) <- true
    done;
    let out_idx = Array.make (max nrows 1) 0
    and out_vls = Array.make (max nrows 1) identity_ in
    let n = ref 0 in
    for i = 0 to nrows - 1 do
      let acc = ref identity_ and hit = ref false in
      for p = arp.(i) to arp.(i + 1) - 1 do
        let j = aci.(p) in
        if u_occ.(j) then begin
          let v = mul_ avs.(p) u_dense.(j) in
          acc := (if !hit then add_ !acc v else v);
          hit := true
        end
      done;
      if !hit then begin
        out_idx.(!n) <- i;
        out_vls.(!n) <- !acc;
        incr n
      end
    done;
    Obj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
  end
  else begin
    let acc = Array.make (max ncols 1) identity_ in
    let occ = Array.make (max ncols 1) false in
    for k = 0 to un - 1 do
      let j = uidx.(k) in
      let uj = uvls.(k) in
      for p = arp.(j) to arp.(j + 1) - 1 do
        let c = aci.(p) in
        let v = mul_ avs.(p) uj in
        if occ.(c) then acc.(c) <- add_ acc.(c) v
        else begin
          acc.(c) <- v;
          occ.(c) <- true
        end
      done
    done;
    let n = ref 0 in
    for c = 0 to ncols - 1 do
      if occ.(c) then incr n
    done;
    let out_idx = Array.make (max !n 1) 0
    and out_vls = Array.make (max !n 1) identity_ in
    let k = ref 0 in
    for c = 0 to ncols - 1 do
      if occ.(c) then begin
        out_idx.(!k) <- c;
        out_vls.(!k) <- acc.(c);
        incr k
      end
    done;
    Obj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
  end
