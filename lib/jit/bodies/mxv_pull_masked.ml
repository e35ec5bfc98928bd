(* Direction-optimized pull for a masked transposed product (the BFS
   bottom-up step), over the CSC arrays of A with a dense frontier.
   Output positions with [visited.(c)] set are skipped, so the result is
   already complement-masked, and a column's gather stops once sat_
   holds for its accumulator.  sat_ must hold only where ⊕ can no longer
   change the value (lor on a true accumulator); constant false keeps
   the gather exhaustive. *)
let kernel (arg : Obj.t) : Obj.t =
  let acp, ari, avs, uvls, uocc, visited, ncols =
    (Obj.obj arg
      : int array * int array * t array * t array * bool array * bool array
        * int)
  in
  let out_idx = Array.make (max ncols 1) 0 in
  let out_vls = Array.make (max ncols 1) identity_ in
  let n = ref 0 in
  for c = 0 to ncols - 1 do
    if not visited.(c) then begin
      let acc = ref identity_ and hit = ref false in
      let p = ref acp.(c) in
      let stop_p = acp.(c + 1) in
      while !p < stop_p && not (!hit && sat_ !acc) do
        let j = ari.(!p) in
        if uocc.(j) then begin
          let v = mul_ avs.(!p) uvls.(j) in
          acc := (if !hit then add_ !acc v else v);
          hit := true
        end;
        incr p
      done;
      if !hit then begin
        out_idx.(!n) <- c;
        out_vls.(!n) <- !acc;
        incr n
      end
    end
  done;
  Obj.repr (Array.sub out_idx 0 !n, Array.sub out_vls 0 !n)
