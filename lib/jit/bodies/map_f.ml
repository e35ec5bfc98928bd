(* Fused apply chain: the merge above runs with the raw operator, then
   f_ (the whole chain) maps every output value, passthroughs included,
   in the same module. *)
let kernel (arg : Obj.t) : Obj.t =
  let idx, vls = (Obj.obj (kernel arg) : int array * t array) in
  for k = 0 to Array.length vls - 1 do
    vls.(k) <- f_ vls.(k)
  done;
  Obj.repr (idx, vls)
