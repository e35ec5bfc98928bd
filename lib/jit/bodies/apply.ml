(* apply f_ to the first [an] stored values; the caller keeps (or
   copies) the indices. *)
let kernel (arg : Obj.t) : Obj.t =
  let avls, an = (Obj.obj arg : t array * int) in
  Obj.repr (Array.init an (fun k -> f_ avls.(k)))
