open Gbtl

type mask = Mask of Container.t | Mask_complement of Container.t

exception Dsl_error of string

let derr fmt = Printf.ksprintf (fun s -> raise (Dsl_error s)) fmt

let mask_spec = function
  | None -> None
  | Some (Mask c) -> Some { Expr.container = c; complemented = false }
  | Some (Mask_complement c) -> Some { Expr.container = c; complemented = true }

let vmask_of = function
  | None -> Gbtl.Mask.No_vmask
  | Some spec -> (
    match spec.Expr.container with
    | Container.Vec (_, v) ->
      Gbtl.Mask.vmask ~complemented:spec.Expr.complemented v
    | Container.Mat _ -> derr "vector output masked by a matrix")

let mmask_of = function
  | None -> Gbtl.Mask.No_mmask
  | Some spec -> (
    match spec.Expr.container with
    | Container.Mat (_, m) ->
      Gbtl.Mask.mmask ~complemented:spec.Expr.complemented m
    | Container.Vec _ -> derr "matrix output masked by a vector")

let accum_binop (type a) (dt : a Dtype.t) = function
  | None -> None
  | Some name -> Some (Binop.of_name name dt)

(* The shared write step: temp (the evaluated expression) into target.
   The result is installed as it is when nothing remains to merge: no
   mask and no accumulator, or a result the kernel already masked
   ([masked]) written without an accumulator into a replaced or empty
   target (the kernel checked the mask against the result, whose shape
   is checked here).  A [fresh] temp (not a user's container) is
   installed without a copy.  Everything else goes through the full
   GraphBLAS write semantics. *)
let write ?mask ?accum ?(masked = false) ?(fresh = false) ~replace target temp
    =
  let spec = mask_spec mask in
  let install ~empty =
    accum = None && (spec = None || (masked && (replace || empty)))
  in
  match target with
  | Container.Vec (dt, out) ->
    let temp' = Expr.unify (Dtype.P dt) temp in
    let v =
      match temp' with
      | Container.Vec (_, _) -> Container.as_vector dt temp'
      | Container.Mat _ -> derr "assigning a matrix result to a vector"
    in
    if Svector.size v <> Svector.size out then
      derr "assigning a vector of size %d to one of size %d" (Svector.size v)
        (Svector.size out);
    (* a mask that does not fit the target never reached the kernel:
       the write step reports it *)
    let fits =
      match spec with
      | Some { Expr.container = Container.Vec (_, m); _ } ->
        Svector.size m = Svector.size out
      | Some { Expr.container = Container.Mat _; _ } | None -> true
    in
    if fits && install ~empty:(Svector.nvals out = 0) then
      Svector.adopt out (if fresh || temp' != temp then v else Svector.dup v)
    else
      Output.write_svector ~mask:(vmask_of spec) ~accum:(accum_binop dt accum)
        ~replace ~out ~t:v
  | Container.Mat (dt, out) ->
    let temp' = Expr.unify (Dtype.P dt) temp in
    let m =
      match temp' with
      | Container.Mat (_, _) -> Container.as_matrix dt temp'
      | Container.Vec _ -> derr "assigning a vector result to a matrix"
    in
    if Smatrix.shape m <> Smatrix.shape out then
      derr "assigning a %dx%d result to a %dx%d matrix" (Smatrix.nrows m)
        (Smatrix.ncols m) (Smatrix.nrows out) (Smatrix.ncols out);
    if install ~empty:(Smatrix.nvals out = 0) then
      Smatrix.adopt out (if fresh || temp' != temp then m else Smatrix.dup m)
    else begin
      let t = Array.init (Smatrix.nrows m) (Smatrix.row_entries m) in
      Output.write_matrix ~mask:(mmask_of spec) ~accum:(accum_binop dt accum)
        ~replace ~out ~t
    end

(* The write mask reaches the expression's top-level product when its
   kind matches the target's (a matrix mask for a matrix target, a
   vector mask for a vector target); [Rewrite.push_mask] mirrors this
   for the nonblocking engine.  Anything else stays with the write step,
   which reports the mismatch. *)
let prune_mask target mask =
  match target, mask_spec mask with
  | Container.Mat _, (Some { Expr.container = Container.Mat _; _ } as spec)
  | Container.Vec _, (Some { Expr.container = Container.Vec _; _ } as spec) ->
    spec
  | (Container.Mat _ | Container.Vec _), _ -> None

let set ?mask ?replace target expr =
  let replace =
    match replace with Some r -> r | None -> Context.replace_flag ()
  in
  let temp, masked = Expr.force_masked ?mask:(prune_mask target mask) expr in
  write ?mask ~masked ~fresh:(not (Expr.borrows_container expr)) ~replace target
    temp

let update ?mask ?accum target expr =
  let accum =
    match accum with
    | Some a -> Some a
    | None -> (
      match Context.current_accum () with
      | Some a -> Some a
      | None -> Some "Plus")
  in
  let temp = Expr.force ?mask:(prune_mask target mask) expr in
  write ?mask ?accum ~replace:false target temp

let assign_scalar ?mask ?replace ?(rows = Index_set.All)
    ?(cols = Index_set.All) target s =
  let replace =
    match replace with Some r -> r | None -> Context.replace_flag ()
  in
  let spec = mask_spec mask in
  match target with
  | Container.Vec (dt, out) ->
    Assign.vector_scalar ~mask:(vmask_of spec) ~replace ~out
      (Dtype.of_float dt s) rows
  | Container.Mat (dt, out) ->
    Assign.matrix_scalar ~mask:(mmask_of spec) ~replace ~out
      (Dtype.of_float dt s) rows cols

let set_region ?mask ?replace ?accum ~rows ?(cols = Index_set.All) target expr
    =
  let replace =
    match replace with Some r -> r | None -> Context.replace_flag ()
  in
  let spec = mask_spec mask in
  let temp = Expr.force expr in
  match target with
  | Container.Vec (dt, out) ->
    let temp = Expr.unify (Dtype.P dt) temp in
    let v =
      match temp with
      | Container.Vec (_, _) -> Container.as_vector dt temp
      | Container.Mat _ -> derr "assigning a matrix result into a vector region"
    in
    Assign.vector ~mask:(vmask_of spec) ?accum:(accum_binop dt accum) ~replace
      ~out v rows
  | Container.Mat (dt, out) ->
    let temp = Expr.unify (Dtype.P dt) temp in
    let m =
      match temp with
      | Container.Mat (_, _) -> Container.as_matrix dt temp
      | Container.Vec _ -> derr "assigning a vector result into a matrix region"
    in
    Assign.matrix ~mask:(mmask_of spec) ?accum:(accum_binop dt accum) ~replace
      ~out m rows cols

let reduce = Expr.reduce_scalar
let apply = Expr.apply
let reduce_rows = Expr.reduce_rows
let transpose = Expr.transpose
let select = Expr.select

module Infix = struct
  let ( !! ) c = Expr.of_container c
  let ( @. ) a b = Expr.matmul a b
  let ( +: ) a b = Expr.add a b
  let ( *: ) a b = Expr.mult a b
  let tr x = Expr.transpose x
  let ( ~~ ) c = Mask_complement c
  let mask c = Mask c
end
