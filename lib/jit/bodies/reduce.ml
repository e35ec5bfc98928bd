(* Fold the first [an] stored values with the monoid (op_, identity_). *)
let kernel (arg : Obj.t) : Obj.t =
  let avls, an = (Obj.obj arg : t array * int) in
  let acc = ref identity_ in
  for k = 0 to an - 1 do
    acc := op_ !acc avls.(k)
  done;
  Obj.repr !acc
