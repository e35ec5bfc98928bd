(* eWiseMult of two sparse vectors: op_ on the intersection of the
   sorted index lists. *)
let kernel (arg : Obj.t) : Obj.t =
  let aidx, avls, an, bidx, bvls, bn =
    (Obj.obj arg : int array * t array * int * int array * t array * int)
  in
  let cap = if an < bn then an else bn in
  if cap = 0 then Obj.repr (([||] : int array), ([||] : t array))
  else begin
    let dummy = avls.(0) in
    let out_idx = Array.make cap 0 and out_vls = Array.make cap dummy in
    let i = ref 0 and j = ref 0 and n = ref 0 in
    while !i < an && !j < bn do
      if aidx.(!i) < bidx.(!j) then incr i
      else if bidx.(!j) < aidx.(!i) then incr j
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
