(* apply f_ to the stored values of a sparse vector. *)
let kernel (arg : Obj.t) : Obj.t =
  let aidx, avls, an = (Obj.obj arg : int array * t array * int) in
  Obj.repr (Array.sub aidx 0 an, Array.init an (fun k -> f_ avls.(k)))
