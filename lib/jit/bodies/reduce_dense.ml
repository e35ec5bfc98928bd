(* Fold the occupied slots of a dense (values, occupancy) vector with
   the monoid (op_, identity_). *)
let kernel (arg : Obj.t) : Obj.t =
  let avls, aocc = (Obj.obj arg : t array * bool array) in
  let acc = ref identity_ in
  for i = 0 to Array.length avls - 1 do
    if aocc.(i) then acc := op_ !acc avls.(i)
  done;
  Obj.repr !acc
