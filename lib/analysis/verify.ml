(* Shape/dtype inference over plan DAGs, mirroring Plan.execute_node
   rule for rule.  The point of the mirror: every dimension the runtime
   would check (or worse, not check — the array-ABI mxv trusts its
   operand sizes) is derived statically here, so a defective plan or a
   miscompiling rewrite is rejected before any kernel runs. *)

open Gbtl
module Plan = Exec.Plan
module C = Ogb.Container

type shape = S_vec of int | S_mat of int * int | S_scalar

type info = { shape : shape; dtype : Dtype.packed }

exception Verify_error of { stage : string; node : int; message : string }

let verr ~stage ~node fmt =
  Printf.ksprintf
    (fun message -> raise (Verify_error { stage; node; message }))
    fmt

let shape_to_string = function
  | S_vec n -> Printf.sprintf "vec[%d]" n
  | S_mat (r, c) -> Printf.sprintf "mat[%dx%d]" r c
  | S_scalar -> "scalar"

let dtype_to_string (Dtype.P dt) = Dtype.name dt

let info_to_string i =
  Printf.sprintf "%s %s" (shape_to_string i.shape) (dtype_to_string i.dtype)

let equal_info a b = a.shape = b.shape && Dtype.equal_packed a.dtype b.dtype

let message = function
  | Verify_error { stage; node; message } ->
    Some (Printf.sprintf "plan verifier [%s] node #%d: %s" stage node message)
  | _ -> None

let kind_of_shape = function
  | S_vec _ -> Plan.K_vec
  | S_mat _ -> Plan.K_mat
  | S_scalar -> Plan.K_scalar

let kind_to_string = function
  | Plan.K_vec -> "vec"
  | Plan.K_mat -> "mat"
  | Plan.K_scalar -> "scalar"

(* -- operator agreement --
   Instantiating every named operator at the node's inferred dtype is
   exactly what the kernel's [build]/codegen step will do; doing it here
   turns an unknown-operator (or operator/dtype clash) crash inside a
   compile into a located static diagnostic. *)
let check_operators ~stage ~node (Dtype.P dt) op =
  let attempt what f =
    try ignore (f ()) with
    | Verify_error _ as e -> raise e
    | Binop.Unknown_operator name | Unaryop.Unknown_operator name ->
      verr ~stage ~node "unknown %s operator %S at dtype %s" what name
        (Dtype.name dt)
    | Monoid.Unknown_identity name ->
      verr ~stage ~node "unknown monoid identity %S at dtype %s" name
        (Dtype.name dt)
    | e ->
      verr ~stage ~node "%s operator rejected at dtype %s: %s" what
        (Dtype.name dt) (Printexc.to_string e)
  in
  let unary_chain chain =
    List.iter
      (fun f ->
        attempt "unary" (fun () -> Jit.Op_spec.instantiate_unary dt f))
      chain
  in
  match op with
  | Plan.MatMul { sr; _ } ->
    attempt "semiring" (fun () -> Jit.Op_spec.instantiate_semiring dt sr)
  | Plan.Ewise { op; _ } -> attempt "binary" (fun () -> Binop.of_name op dt)
  | Plan.ApplyChain { chain; _ } -> unary_chain chain
  | Plan.EwiseApply { op; chain; _ } ->
    attempt "binary" (fun () -> Binop.of_name op dt);
    unary_chain chain
  | Plan.EwiseMultReduce { op; monoid_op; identity } ->
    attempt "binary" (fun () -> Binop.of_name op dt);
    attempt "monoid" (fun () ->
        Jit.Op_spec.instantiate_monoid dt ~op:monoid_op ~identity)
  | Plan.ReduceRows { op; identity; _ } | Plan.ReduceScalar { op; identity } ->
    attempt "monoid" (fun () -> Jit.Op_spec.instantiate_monoid dt ~op ~identity)
  | Plan.Leaf _ | Plan.Transpose | Plan.ExtractVec _ | Plan.ExtractMat _
  | Plan.Select _ ->
    ()

let index_length ~stage ~node idx dim =
  try Index_set.length idx dim
  with _ -> verr ~stage ~node "invalid index set against dimension %d" dim

let infer ?(stage = "query") plan =
  let infos : (int, info) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun node ->
      let n = Plan.node plan node in
      let arity k =
        if Array.length n.Plan.deps < k then
          verr ~stage ~node "expected %d dependencies, found %d" k
            (Array.length n.Plan.deps)
      in
      let dep i =
        let id = n.Plan.deps.(i) in
        match Hashtbl.find_opt infos id with
        | Some inf -> inf
        | None -> verr ~stage ~node "dependency #%d escapes the DAG order" id
      in
      let two_vecs what =
        arity 2;
        let a = dep 0 and b = dep 1 in
        let dtype = Dtype.promote a.dtype b.dtype in
        match a.shape, b.shape with
        | S_vec n1, S_vec n2 ->
          if n1 <> n2 then
            verr ~stage ~node
              "element-wise operation on vectors of sizes %d and %d" n1 n2;
          (n1, dtype)
        | _, _ ->
          verr ~stage ~node "%s requires two vectors, found %s and %s" what
            (shape_to_string a.shape) (shape_to_string b.shape)
      in
      let inf =
        match n.Plan.op with
        | Plan.Leaf c ->
          let shape =
            if C.is_matrix c then
              let r, cl = C.shape c in
              S_mat (r, cl)
            else S_vec (C.size c)
          in
          { shape; dtype = C.dtype c }
        | Plan.Transpose -> (
          arity 1;
          let d = dep 0 in
          match d.shape with
          | S_mat (r, c) -> { d with shape = S_mat (c, r) }
          | S_vec _ -> d (* vector transpose is the identity *)
          | S_scalar -> verr ~stage ~node "transpose of a scalar")
        | Plan.MatMul { transpose_a = ta; transpose_b = tb; masked; _ } ->
          arity 2;
          let a = dep 0 and b = dep 1 in
          let dtype = Dtype.promote a.dtype b.dtype in
          let shape =
            match a.shape, b.shape with
            | S_mat (ar, ac), S_mat (br, bc) ->
              let er, ec = if ta then (ac, ar) else (ar, ac) in
              let fr, fc = if tb then (bc, br) else (br, bc) in
              if ec <> fr then
                verr ~stage ~node
                  "mxm inner dimension mismatch: %s @ %s (effective %dx%d @ \
                   %dx%d)"
                  (shape_to_string a.shape) (shape_to_string b.shape) er ec fr
                  fc;
              S_mat (er, fc)
            | S_mat (ar, ac), S_vec vn ->
              let inner = if ta then ar else ac in
              if inner <> vn then
                verr ~stage ~node
                  "mxv dimension mismatch: matrix %s%s against vector of size \
                   %d"
                  (shape_to_string a.shape)
                  (if ta then " (transposed)" else "")
                  vn;
              S_vec (if ta then ac else ar)
            | S_vec vn, S_mat (br, bc) ->
              let inner = if tb then bc else br in
              if inner <> vn then
                verr ~stage ~node
                  "vxm dimension mismatch: vector of size %d against matrix \
                   %s%s"
                  vn
                  (shape_to_string b.shape)
                  (if tb then " (transposed)" else "");
              S_vec (if tb then br else bc)
            | S_vec _, S_vec _ ->
              verr ~stage ~node
                "@ between two vectors (use eWiseMult + reduce for a dot \
                 product)"
            | S_scalar, _ | _, S_scalar ->
              verr ~stage ~node "@ with a scalar operand"
          in
          (match masked, shape with
          | None, _ -> ()
          | Some spec, S_mat (rr, rc) ->
            let mc = spec.Ogb.Expr.container in
            if not (C.is_matrix mc) then
              verr ~stage ~node "matrix operation masked by a vector"
            else begin
              let mr, mcl = C.shape mc in
              if (mr, mcl) <> (rr, rc) then
                verr ~stage ~node
                  "mask shape %dx%d does not match the %dx%d result" mr mcl rr
                  rc
            end
          | Some _, (S_vec _ | S_scalar) ->
            (* a vector mask of the result's size goes into the mat×vec
               kernel; the runtime leaves any other mask to the write
               step, which reports the mismatch *)
            ());
          { shape; dtype }
        | Plan.Ewise { transpose_a = ta; transpose_b = tb; _ } -> (
          arity 2;
          let a = dep 0 and b = dep 1 in
          let dtype = Dtype.promote a.dtype b.dtype in
          match a.shape, b.shape with
          | S_vec n1, S_vec n2 ->
            if n1 <> n2 then
              verr ~stage ~node
                "element-wise operation on vectors of sizes %d and %d" n1 n2;
            { shape = S_vec n1; dtype }
          | S_mat (ar, ac), S_mat (br, bc) ->
            let er, ec = if ta then (ac, ar) else (ar, ac) in
            let fr, fc = if tb then (bc, br) else (br, bc) in
            if (er, ec) <> (fr, fc) then
              verr ~stage ~node
                "element-wise operation on matrices of effective shapes %dx%d \
                 and %dx%d"
                er ec fr fc;
            { shape = S_mat (er, ec); dtype }
          | _, _ ->
            verr ~stage ~node
              "element-wise operation between a vector and a matrix (%s vs %s)"
              (shape_to_string a.shape) (shape_to_string b.shape))
        | Plan.ApplyChain { chain; transpose } -> (
          arity 1;
          let d = dep 0 in
          if chain = [] then verr ~stage ~node "empty apply chain";
          match d.shape with
          | S_vec _ -> d
          | S_mat (r, c) ->
            { d with shape = (if transpose then S_mat (c, r) else S_mat (r, c)) }
          | S_scalar -> verr ~stage ~node "apply on a scalar")
        | Plan.EwiseApply { chain; _ } ->
          if chain = [] then verr ~stage ~node "empty apply chain";
          let size, dtype = two_vecs "fused apply-over-ewise" in
          { shape = S_vec size; dtype }
        | Plan.EwiseMultReduce _ ->
          let _, dtype = two_vecs "fused mult-reduce" in
          { shape = S_scalar; dtype }
        | Plan.ReduceRows { transpose; _ } -> (
          arity 1;
          let d = dep 0 in
          match d.shape with
          | S_mat (r, c) ->
            { d with shape = S_vec (if transpose then c else r) }
          | S_vec _ | S_scalar -> verr ~stage ~node "reduce_rows on a vector")
        | Plan.ReduceScalar _ -> (
          arity 1;
          let d = dep 0 in
          match d.shape with
          | S_vec _ | S_mat _ -> { d with shape = S_scalar }
          | S_scalar -> verr ~stage ~node "scalar reduce of a scalar")
        | Plan.ExtractVec idx -> (
          arity 1;
          let d = dep 0 in
          match d.shape with
          | S_vec vn -> { d with shape = S_vec (index_length ~stage ~node idx vn) }
          | S_mat _ | S_scalar ->
            verr ~stage ~node "vector extract on a matrix")
        | Plan.ExtractMat { rows; cols; transpose } -> (
          arity 1;
          let d = dep 0 in
          match d.shape with
          | S_mat (r, c) ->
            let er, ec = if transpose then (c, r) else (r, c) in
            { d with
              shape =
                S_mat
                  ( index_length ~stage ~node rows er,
                    index_length ~stage ~node cols ec ) }
          | S_vec _ | S_scalar ->
            verr ~stage ~node "matrix extract on a vector")
        | Plan.Select _ -> (
          arity 1;
          let d = dep 0 in
          match d.shape with
          | S_vec _ | S_mat _ -> d
          | S_scalar -> verr ~stage ~node "select on a scalar")
      in
      let k = kind_of_shape inf.shape in
      if n.Plan.kind <> k then
        verr ~stage ~node "node kind %s disagrees with inferred shape %s"
          (kind_to_string n.Plan.kind)
          (shape_to_string inf.shape);
      check_operators ~stage ~node inf.dtype n.Plan.op;
      Hashtbl.replace infos node inf)
    (Plan.topo plan);
  infos

(* Sink-mask agreement: the write mask the assignment site will apply
   must match the result's kind and dimensions (Ops.write raises the
   matching runtime errors; here they are static). *)
let check_sink_mask ~stage plan rinf =
  let node = (Plan.root plan).Plan.id in
  match plan.Plan.sink_mask with
  | None -> ()
  | Some spec -> (
    let mc = spec.Ogb.Expr.container in
    match rinf.shape with
    | S_scalar -> verr ~stage ~node "scalar result cannot take a write mask"
    | S_mat (rr, rc) ->
      if not (C.is_matrix mc) then
        verr ~stage ~node "matrix output masked by a vector"
      else begin
        let mr, mcl = C.shape mc in
        if (mr, mcl) <> (rr, rc) then
          verr ~stage ~node
            "write mask shape %dx%d does not match the %dx%d result" mr mcl rr
            rc
      end
    | S_vec vn ->
      if C.is_matrix mc then
        verr ~stage ~node "vector output masked by a matrix"
      else if C.size mc <> vn then
        verr ~stage ~node "write mask size %d does not match result size %d"
          (C.size mc) vn)

let root_info ?(stage = "query") plan =
  let infos = infer ~stage plan in
  let r = Plan.root plan in
  match Hashtbl.find_opt infos r.Plan.id with
  | Some rinf ->
    check_sink_mask ~stage plan rinf;
    rinf
  | None -> verr ~stage ~node:r.Plan.id "root was not inferred"

(* -- stage-to-stage snapshots --
   Keyed on the plan value itself (physical identity): the rewrite
   pipeline verifies the same plan at up to eight stages, and any stage
   whose inference disagrees with the previous one on a surviving node
   is a miscompiling rewrite.  The entry is dropped once "pre-schedule"
   passes; a bounded queue keeps plans that never got there (a raise
   mid-pipeline) from accumulating. *)

type snap = { at : string; infos : (int, info) Hashtbl.t; root : info }

let snaps : (Plan.t * snap) list ref = ref []
let snaps_mutex = Mutex.create ()
let max_snaps = 64

let compare_snapshot ~stage ~plan prev infos rinf =
  Hashtbl.iter
    (fun node inf ->
      match Hashtbl.find_opt prev.infos node with
      | Some old when not (equal_info old inf) ->
        verr ~stage ~node
          "rewrite changed inferred %s to %s between %s and %s (miscompile)"
          (info_to_string old) (info_to_string inf) prev.at stage
      | Some _ | None -> ())
    infos;
  let node = (Plan.root plan).Plan.id in
  if not (equal_info prev.root rinf) then
    verr ~stage ~node
      "rewrite changed the plan result from %s to %s between %s and %s \
       (miscompile)"
      (info_to_string prev.root) (info_to_string rinf) prev.at stage

let check_infer ~stage plan =
  let infos = infer ~stage plan in
  let r = Plan.root plan in
  let rinf =
    match Hashtbl.find_opt infos r.Plan.id with
    | Some rinf -> rinf
    | None -> verr ~stage ~node:r.Plan.id "root was not inferred"
  in
  check_sink_mask ~stage plan rinf;
  Mutex.protect snaps_mutex (fun () ->
      let prev = List.assq_opt plan !snaps in
      (match prev with
      | Some prev when stage <> "lower" ->
        compare_snapshot ~stage ~plan prev infos rinf
      | Some _ | None -> ());
      let others = List.filter (fun (p, _) -> p != plan) !snaps in
      if stage = "pre-schedule" then snaps := others
      else begin
        let entry = (plan, { at = stage; infos; root = rinf }) in
        let others =
          if List.length others >= max_snaps then
            List.filteri (fun i _ -> i < max_snaps - 1) others
          else others
        in
        snaps := entry :: others
      end);
  infos

let check ~stage plan = ignore (check_infer ~stage plan)

let report plan =
  let infos = infer plan in
  let buf = Buffer.create 256 in
  List.iter
    (fun id ->
      let n = Plan.node plan id in
      let inf = Hashtbl.find infos id in
      Buffer.add_string buf
        (Printf.sprintf "  #%d %-14s %s%s\n" id
           (Plan.op_label n.Plan.op)
           (info_to_string inf)
           (if (Plan.root plan).Plan.id = id then "  <- root" else "")))
    (Plan.topo plan);
  Buffer.contents buf
