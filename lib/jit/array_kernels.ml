type 'a ventry = int array * 'a array * int
type 'a csr = int array * int array * 'a array

(* Growable output buffer without a dummy element requirement beyond the
   caller-provided one. *)
let trim idx vals len = (Array.sub idx 0 len, Array.sub vals 0 len)

let mxv ~add ~mul ~dummy ~nrows ~ncols ~transpose (arp, aci, avs)
    ((uidx, uvls, un) : 'a ventry) =
  if not transpose then begin
    (* gather: w_i = ⊕_j A(i,j) ⊗ u(j) over stored u positions *)
    let u_dense = Array.make ncols dummy in
    let u_occ = Array.make ncols false in
    for k = 0 to un - 1 do
      u_dense.(uidx.(k)) <- uvls.(k);
      u_occ.(uidx.(k)) <- true
    done;
    let out_idx = Array.make nrows 0 and out_vls = Array.make nrows dummy in
    let n = ref 0 in
    for i = 0 to nrows - 1 do
      let acc = ref dummy and hit = ref false in
      for p = arp.(i) to arp.(i + 1) - 1 do
        let j = aci.(p) in
        if u_occ.(j) then begin
          let v = mul avs.(p) u_dense.(j) in
          acc := (if !hit then add !acc v else v);
          hit := true
        end
      done;
      if !hit then begin
        out_idx.(!n) <- i;
        out_vls.(!n) <- !acc;
        incr n
      end
    done;
    trim out_idx out_vls !n
  end
  else begin
    (* scatter: (Aᵀu)_c = ⊕_j A(j,c) ⊗ u(j) *)
    let acc = Array.make ncols dummy in
    let occ = Array.make ncols false in
    for k = 0 to un - 1 do
      let j = uidx.(k) in
      let uj = uvls.(k) in
      for p = arp.(j) to arp.(j + 1) - 1 do
        let c = aci.(p) in
        let v = mul avs.(p) uj in
        if occ.(c) then acc.(c) <- add acc.(c) v
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
    let out_idx = Array.make !n 0 and out_vls = Array.make !n dummy in
    let k = ref 0 in
    for c = 0 to ncols - 1 do
      if occ.(c) then begin
        out_idx.(!k) <- c;
        out_vls.(!k) <- acc.(c);
        incr k
      end
    done;
    (out_idx, out_vls)
  end

(* Direction-optimized pull for masked transposed products (the BFS
   bottom-up step): only [allowed] output positions are gathered, the
   frontier arrives dense, and a column's gather stops as soon as [stop]
   holds for the accumulator (sound only for saturating ⊕ such as lor,
   where further contributions cannot change the value). *)
let mxv_pull_masked ~add ~mul ~dummy ~stop ~ncols ~visited
    ((acp, ari, avs) : 'a csr) ((uvls, uocc) : 'a array * bool array) =
  let out_idx = Array.make (max ncols 1) 0 in
  let out_vls = Array.make (max ncols 1) dummy in
  let n = ref 0 in
  for c = 0 to ncols - 1 do
    if not visited.(c) then begin
      let acc = ref dummy and hit = ref false in
      let p = ref acp.(c) in
      let stop_p = acp.(c + 1) in
      while !p < stop_p && not (!hit && stop !acc) do
        let j = ari.(!p) in
        if uocc.(j) then begin
          let v = mul avs.(!p) uvls.(j) in
          acc := (if !hit then add !acc v else v);
          hit := true
        end;
        incr p
      done;
      if !hit then begin
        out_idx.(!n) <- c;
        out_vls.(!n) <- !acc;
        incr n
      end
    end
  done;
  trim out_idx out_vls !n

(* Scatter product with a dense frontier, accumulators returned as dense
   (values, occupancy) arrays — the PageRank iteration keeps its vector
   dense end-to-end and skips compaction entirely.  Occupied positions
   are visited in ascending index order, matching the sparse scatter. *)
let vxm_dense ~add ~mul ~dummy ~nrows ~ncols ((uvls, uocc) : 'a array * bool array)
    ((arp, aci, avs) : 'a csr) =
  let acc = Array.make (max ncols 1) dummy in
  let occ = Array.make (max ncols 1) false in
  for i = 0 to nrows - 1 do
    if uocc.(i) then begin
      let ui = uvls.(i) in
      for p = arp.(i) to arp.(i + 1) - 1 do
        let c = aci.(p) in
        let v = mul ui avs.(p) in
        if occ.(c) then acc.(c) <- add acc.(c) v
        else begin
          acc.(c) <- v;
          occ.(c) <- true
        end
      done
    end
  done;
  (acc, occ)

(* Pull form of the dense-frontier product, reading the CSC side of A:
   w_c = ⊕_i u(i) ⊗ A(i,c), one gather per output position.  Each
   accumulator lives in a local ref (no read-modify-write on the output
   arrays, no per-entry occupancy branch on the accumulator), which is
   what makes this the fast path for an iterated product such as
   PageRank once the CSC side is cached.  Rows ascend within each
   column, so contributions fold in the same order as [vxm_dense] and
   the results are bit-identical. *)
let vxm_pull_dense ~add ~mul ~dummy ~ncols ((acp, ari, cvs) : 'a csr)
    ((uvls, uocc) : 'a array * bool array) =
  let acc = Array.make (max ncols 1) dummy in
  let occ = Array.make (max ncols 1) false in
  let full = ref true in
  for i = 0 to Array.length uocc - 1 do
    if not uocc.(i) then full := false
  done;
  if !full then
    (* fully-occupied operand (PageRank's steady state): no occupancy
       test and no hit flag in the inner loop — the first contribution
       seeds the accumulator, exactly the fold the guarded loop
       performs. *)
    for c = 0 to ncols - 1 do
      let lo = acp.(c) and hi = acp.(c + 1) in
      if hi > lo then begin
        let a = ref (mul uvls.(ari.(lo)) cvs.(lo)) in
        for p = lo + 1 to hi - 1 do
          a := add !a (mul uvls.(ari.(p)) cvs.(p))
        done;
        acc.(c) <- !a;
        occ.(c) <- true
      end
    done
  else
    for c = 0 to ncols - 1 do
      let a = ref dummy and hit = ref false in
      for p = acp.(c) to acp.(c + 1) - 1 do
        let i = ari.(p) in
        if uocc.(i) then begin
          let v = mul uvls.(i) cvs.(p) in
          a := (if !hit then add !a v else v);
          hit := true
        end
      done;
      if !hit then begin
        acc.(c) <- !a;
        occ.(c) <- true
      end
    done;
  (acc, occ)

(* Tile continuation of [vxm_pull_dense]: fold one tile's CSC columns
   into the caller's (acc, occ) accumulator in place.  [r0]/[c0] place
   the tile in the global index space.  Seeding each column's local
   accumulator from the entry already in [acc] (when occupied) makes the
   fold a continuation: streaming a block column's tiles in ascending
   block-row order reproduces exactly the sequential column fold of the
   full-matrix kernel — same order, same result, bit for bit, even for
   non-associative ⊕ on floats. *)
let vxm_tile_acc ~add ~mul ~r0 ~c0 ~tncols ((acp, ari, tvs) : 'a csr)
    ((uvls, uocc) : 'a array * bool array) ((acc, occ) : 'a array * bool array)
    =
  for lc = 0 to tncols - 1 do
    let c = c0 + lc in
    let a = ref acc.(c) and hit = ref occ.(c) in
    for p = acp.(lc) to acp.(lc + 1) - 1 do
      let i = r0 + ari.(p) in
      if uocc.(i) then begin
        let v = mul uvls.(i) tvs.(p) in
        a := (if !hit then add !a v else v);
        hit := true
      end
    done;
    if !hit then begin
      acc.(c) <- !a;
      occ.(c) <- true
    end
  done

let vxm ~add ~mul ~dummy ~nrows ~ncols ~transpose ((uidx, uvls, un) : 'a ventry)
    (arp, aci, avs) =
  if not transpose then begin
    (* scatter: w_c = ⊕_i u(i) ⊗ A(i,c) *)
    let acc = Array.make ncols dummy in
    let occ = Array.make ncols false in
    for k = 0 to un - 1 do
      let i = uidx.(k) in
      let ui = uvls.(k) in
      for p = arp.(i) to arp.(i + 1) - 1 do
        let c = aci.(p) in
        let v = mul ui avs.(p) in
        if occ.(c) then acc.(c) <- add acc.(c) v
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
    let out_idx = Array.make !n 0 and out_vls = Array.make !n dummy in
    let k = ref 0 in
    for c = 0 to ncols - 1 do
      if occ.(c) then begin
        out_idx.(!k) <- c;
        out_vls.(!k) <- acc.(c);
        incr k
      end
    done;
    (out_idx, out_vls)
  end
  else begin
    (* gather: (u Aᵀ)_i = ⊕_j u(j) ⊗ A(i,j) *)
    let u_dense = Array.make ncols dummy in
    let u_occ = Array.make ncols false in
    for k = 0 to un - 1 do
      u_dense.(uidx.(k)) <- uvls.(k);
      u_occ.(uidx.(k)) <- true
    done;
    let out_idx = Array.make nrows 0 and out_vls = Array.make nrows dummy in
    let n = ref 0 in
    for i = 0 to nrows - 1 do
      let acc = ref dummy and hit = ref false in
      for p = arp.(i) to arp.(i + 1) - 1 do
        let j = aci.(p) in
        if u_occ.(j) then begin
          let v = mul u_dense.(j) avs.(p) in
          acc := (if !hit then add !acc v else v);
          hit := true
        end
      done;
      if !hit then begin
        out_idx.(!n) <- i;
        out_vls.(!n) <- !acc;
        incr n
      end
    done;
    trim out_idx out_vls !n
  end

let mxm_gustavson ~add ~mul ~dummy ~nrows_a ~ncols_b (arp, aci, avs)
    (brp, bci, bvs) =
  let spa_vals = Array.make (max ncols_b 1) dummy in
  let spa_occ = Array.make (max ncols_b 1) false in
  let touched = Array.make (max ncols_b 1) 0 in
  let rowptr = Array.make (nrows_a + 1) 0 in
  (* growable output *)
  let cap = ref (max 16 (Array.length avs)) in
  let out_idx = ref (Array.make !cap 0) in
  let out_vls = ref (Array.make !cap dummy) in
  let n = ref 0 in
  let push c v =
    if !n = !cap then begin
      cap := 2 * !cap;
      let idx' = Array.make !cap 0 and vls' = Array.make !cap dummy in
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
        let v = mul aik bvs.(q) in
        if spa_occ.(j) then spa_vals.(j) <- add spa_vals.(j) v
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
  (rowptr, Array.sub !out_idx 0 !n, Array.sub !out_vls 0 !n)

let ewise_add_v ~op ((aidx, avls, an) : 'a ventry) ((bidx, bvls, bn) : 'a ventry)
    =
  let cap = an + bn in
  if cap = 0 then ([||], [||])
  else begin
    let dummy = if an > 0 then avls.(0) else bvls.(0) in
    let out_idx = Array.make cap 0 and out_vls = Array.make cap dummy in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < an || !j < bn do
      let push ix v =
        out_idx.(!n) <- ix;
        out_vls.(!n) <- v;
        incr n
      in
      if !i >= an then begin
        push bidx.(!j) bvls.(!j);
        incr j
      end
      else if !j >= bn then begin
        push aidx.(!i) avls.(!i);
        incr i
      end
      else if aidx.(!i) < bidx.(!j) then begin
        push aidx.(!i) avls.(!i);
        incr i
      end
      else if bidx.(!j) < aidx.(!i) then begin
        push bidx.(!j) bvls.(!j);
        incr j
      end
      else begin
        push aidx.(!i) (op avls.(!i) bvls.(!j));
        incr i;
        incr j
      end
    done;
    trim out_idx out_vls !n
  end

let ewise_mult_v ~op ((aidx, avls, an) : 'a ventry) ((bidx, bvls, bn) : 'a ventry) =
  let cap = min an bn in
  if cap = 0 then ([||], [||])
  else begin
    let dummy = avls.(0) in
    let out_idx = Array.make cap 0 and out_vls = Array.make cap dummy in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < an && !j < bn do
      if aidx.(!i) < bidx.(!j) then incr i
      else if bidx.(!j) < aidx.(!i) then incr j
      else begin
        out_idx.(!n) <- aidx.(!i);
        out_vls.(!n) <- op avls.(!i) bvls.(!j);
        incr n;
        incr i;
        incr j
      end
    done;
    trim out_idx out_vls !n
  end

let apply_v ~f ((aidx, avls, an) : 'a ventry) =
  (Array.sub aidx 0 an, Array.init an (fun k -> f avls.(k)))

let reduce_v ~op ~identity ((_, avls, an) : 'a ventry) =
  let acc = ref identity in
  for k = 0 to an - 1 do
    acc := op !acc avls.(k)
  done;
  !acc

(* Dense-representation variants: operands and results are (values,
   occupancy) array pairs of equal length.  Unoccupied output slots hold
   [dummy].  Iteration is ascending index, so results match the sparse
   merge kernels entry for entry. *)

let ewise_add_dense ~op ~dummy ((avls, aocc) : 'a array * bool array)
    ((bvls, bocc) : 'a array * bool array) =
  let n = Array.length avls in
  let out = Array.make (max n 1) dummy in
  let occ = Array.make (max n 1) false in
  for i = 0 to n - 1 do
    if aocc.(i) then begin
      out.(i) <- (if bocc.(i) then op avls.(i) bvls.(i) else avls.(i));
      occ.(i) <- true
    end
    else if bocc.(i) then begin
      out.(i) <- bvls.(i);
      occ.(i) <- true
    end
  done;
  (out, occ)

let ewise_mult_dense ~op ~dummy ((avls, aocc) : 'a array * bool array)
    ((bvls, bocc) : 'a array * bool array) =
  let n = Array.length avls in
  let out = Array.make (max n 1) dummy in
  let occ = Array.make (max n 1) false in
  for i = 0 to n - 1 do
    if aocc.(i) && bocc.(i) then begin
      out.(i) <- op avls.(i) bvls.(i);
      occ.(i) <- true
    end
  done;
  (out, occ)

let apply_dense ~f ~dummy ((avls, aocc) : 'a array * bool array) =
  let n = Array.length avls in
  let out = Array.make (max n 1) dummy in
  for i = 0 to n - 1 do
    if aocc.(i) then out.(i) <- f avls.(i)
  done;
  (out, Array.copy aocc)

let reduce_dense ~op ~identity ((avls, aocc) : 'a array * bool array) =
  let acc = ref identity in
  for i = 0 to Array.length avls - 1 do
    if aocc.(i) then acc := op !acc avls.(i)
  done;
  !acc
