(* eWiseMult of two dense (values, occupancy) vectors of one length;
   unoccupied output slots hold zero_. *)
let kernel (arg : Obj.t) : Obj.t =
  let avls, aocc, bvls, bocc =
    (Obj.obj arg : t array * bool array * t array * bool array)
  in
  let len = Array.length avls in
  let out = Array.make (max len 1) zero_ in
  let occ = Array.make (max len 1) false in
  for i = 0 to len - 1 do
    if aocc.(i) && bocc.(i) then begin
      out.(i) <- op_ avls.(i) bvls.(i);
      occ.(i) <- true
    end
  done;
  Obj.repr (out, occ)
