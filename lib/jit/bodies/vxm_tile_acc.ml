(* Tile continuation of the pull product: fold one tile's CSC columns
   into the caller's global (acc, occ) accumulator in place; [r0]/[c0]
   place the tile globally.  Each column's fold is seeded with the value
   already accumulated, so streaming a block column's tiles in ascending
   block-row order reproduces the full-matrix fold bit for bit, even for
   a non-associative float ⊕. *)
let kernel (arg : Obj.t) : Obj.t =
  let uvls, uocc, r0, acp, ari, avs, c0, tncols, acc, occ =
    (Obj.obj arg
      : t array * bool array * int * int array * int array * t array * int
        * int * t array * bool array)
  in
  for lc = 0 to tncols - 1 do
    let c = c0 + lc in
    let a = ref acc.(c) and hit = ref occ.(c) in
    for p = acp.(lc) to acp.(lc + 1) - 1 do
      let i = r0 + ari.(p) in
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
  Obj.repr ()
