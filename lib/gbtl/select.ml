type predicate =
  | Tril of int
  | Triu of int
  | Diag
  | Offdiag
  | Nonzero
  | Value_gt of float
  | Value_ge of float
  | Value_lt of float
  | Value_le of float
  | Value_eq of float
  | Value_ne of float

(* The predicate and the dtype's truthiness or float view are picked
   once per call; the returned function is what runs per entry. *)
let accepts (type a) (dt : a Dtype.t) pred : int -> int -> a -> bool =
  let value cmp =
    let to_float = Dtype.caster ~from:dt ~into:Dtype.FP64 in
    fun _ _ x -> cmp (to_float x)
  in
  match pred with
  | Tril k -> fun r c _ -> c - r <= k
  | Triu k -> fun r c _ -> c - r >= k
  | Diag -> fun r c _ -> r = c
  | Offdiag -> fun r c _ -> r <> c
  | Nonzero ->
    let truthy = Dtype.caster ~from:dt ~into:Dtype.Bool in
    fun _ _ x -> truthy x
  | Value_gt v -> value (fun f -> f > v)
  | Value_ge v -> value (fun f -> f >= v)
  | Value_lt v -> value (fun f -> f < v)
  | Value_le v -> value (fun f -> f <= v)
  | Value_eq v -> value (fun f -> f = v)
  | Value_ne v -> value (fun f -> f <> v)

let matrix ?(mask = Mask.No_mmask) ?accum ?(replace = false) pred ~out a =
  if Smatrix.shape out <> Smatrix.shape a then
    Error.raise_dims ~op:"select"
      ~expected:
        (Printf.sprintf "output %s"
           (Error.shape_str (Smatrix.nrows a) (Smatrix.ncols a)))
      ~actual:(Error.shape_str (Smatrix.nrows out) (Smatrix.ncols out));
  Output.write_smatrix ~mask ~accum ~replace ~out
    ~t:(Smatrix.filter a ~f:(accepts (Smatrix.dtype a) pred))

let vector ?(mask = Mask.No_vmask) ?accum ?(replace = false) pred ~out u =
  if Svector.size out <> Svector.size u then
    Error.raise_dims ~op:"select"
      ~expected:(Printf.sprintf "output size %d" (Svector.size u))
      ~actual:(Error.size_str (Svector.size out));
  let keep = accepts (Svector.dtype u) pred in
  let t = Entries.create () in
  Svector.iter (fun i x -> if keep 0 i x then Entries.push t i x) u;
  Output.write_vector ~mask ~accum ~replace ~out ~t
