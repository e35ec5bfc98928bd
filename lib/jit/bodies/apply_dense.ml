(* apply f_ to the occupied slots of a dense (values, occupancy) vector;
   unoccupied output slots hold zero_. *)
let kernel (arg : Obj.t) : Obj.t =
  let avls, aocc = (Obj.obj arg : t array * bool array) in
  let len = Array.length avls in
  let out = Array.make (max len 1) zero_ in
  for i = 0 to len - 1 do
    if aocc.(i) then out.(i) <- f_ avls.(i)
  done;
  Obj.repr (out, Array.copy aocc)
