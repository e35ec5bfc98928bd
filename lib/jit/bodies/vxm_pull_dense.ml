(* Pull form of the dense-frontier product over the CSC arrays of A:
   w_c = ⊕_i u(i) ⊗ A(i,c), one gather and one local accumulator per
   output position instead of a read-modify-write scatter.  Rows ascend
   within each column, so the terms fold in the scatter's order and the
   results are bit-identical. *)
let kernel (arg : Obj.t) : Obj.t =
  let uvls, uocc, acp, ari, avs, ncols =
    (Obj.obj arg
      : t array * bool array * int array * int array * t array * int)
  in
  let acc = Array.make (max ncols 1) identity_ in
  let occ = Array.make (max ncols 1) false in
  let full = ref true in
  for i = 0 to Array.length uocc - 1 do
    if not uocc.(i) then full := false
  done;
  if !full then
    (* fully occupied operand (PageRank's steady state): no occupancy
       test and no hit flag in the inner loop; the first term seeds the
       accumulator, the fold the guarded loop performs *)
    for c = 0 to ncols - 1 do
      let lo = acp.(c) and hi = acp.(c + 1) in
      if hi > lo then begin
        let a = ref (mul_ uvls.(ari.(lo)) avs.(lo)) in
        for p = lo + 1 to hi - 1 do
          a := add_ !a (mul_ uvls.(ari.(p)) avs.(p))
        done;
        acc.(c) <- !a;
        occ.(c) <- true
      end
    done
  else
    for c = 0 to ncols - 1 do
      let a = ref identity_ and hit = ref false in
      for p = acp.(c) to acp.(c + 1) - 1 do
        let i = ari.(p) in
        if uocc.(i) then begin
          let v = mul_ uvls.(i) avs.(p) in
          a := (if !hit then add_ !a v else v);
          hit := true
        end
      done;
      if !hit then begin
        acc.(c) <- !a;
        occ.(c) <- true
      end
    done;
  Obj.repr (acc, occ)
