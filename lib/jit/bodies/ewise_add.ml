(* eWiseAdd of two sparse vectors: a sorted merge of the index lists,
   op_ on the intersection and the other entries passed through. *)
let kernel (arg : Obj.t) : Obj.t =
  let aidx, avls, an, bidx, bvls, bn =
    (Obj.obj arg : int array * t array * int * int array * t array * int)
  in
  let cap = an + bn in
  if cap = 0 then Obj.repr (([||] : int array), ([||] : t array))
  else begin
    let dummy = if an > 0 then avls.(0) else bvls.(0) in
    let out_idx = Array.make cap 0 and out_vls = Array.make cap dummy in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < an || !j < bn do
      if !i >= an then begin
        out_idx.(!n) <- bidx.(!j);
        out_vls.(!n) <- bvls.(!j);
        incr n;
        incr j
      end
      else if !j >= bn then begin
        out_idx.(!n) <- aidx.(!i);
        out_vls.(!n) <- avls.(!i);
        incr n;
        incr i
      end
      else if aidx.(!i) < bidx.(!j) then begin
        out_idx.(!n) <- aidx.(!i);
        out_vls.(!n) <- avls.(!i);
        incr n;
        incr i
      end
      else if bidx.(!j) < aidx.(!i) then begin
        out_idx.(!n) <- bidx.(!j);
        out_vls.(!n) <- bvls.(!j);
        incr n;
        incr j
      end
      else begin
        out_idx.(!n) <- aidx.(!i);
        out_vls.(!n) <- op_ avls.(!i) bvls.(!j);
        incr n;
        incr i;
        incr j
      end
    done;
    Obj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
  end
