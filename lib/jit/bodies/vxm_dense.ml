(* w = u ⊕.⊗ A as a CSR scatter with a dense (values, occupancy)
   operand and result: PageRank keeps its vector dense end to end and
   never compacts.  Occupied rows are visited in ascending order, the
   fold order of the sparse scatter. *)
let kernel (arg : Obj.t) : Obj.t =
  let uvls, uocc, arp, aci, avs, nrows, ncols =
    (Obj.obj arg
      : t array * bool array * int array * int array * t array * int * int)
  in
  let acc = Array.make (max ncols 1) identity_ in
  let occ = Array.make (max ncols 1) false in
  for i = 0 to nrows - 1 do
    if uocc.(i) then begin
      let ui = uvls.(i) in
      for p = arp.(i) to arp.(i + 1) - 1 do
        let c = aci.(p) in
        let v = mul_ ui avs.(p) in
        if occ.(c) then acc.(c) <- add_ acc.(c) v
        else begin
          acc.(c) <- v;
          occ.(c) <- true
        end
      done
    end
  done;
  Obj.repr (acc, occ)
