open Gbtl
module Ks = Jit.Kernel_sig
module K = Jit.Kernels

type status = Already_cached | Compiled | Loaded | Skipped of string

type outcome = { sig_ : Ks.t; status : status }

let status_to_string = function
  | Already_cached -> "already-cached"
  | Compiled -> "compiled"
  | Loaded -> "loaded-from-disk"
  | Skipped reason -> Printf.sprintf "skipped (%s)" reason

(* Stand-in operands.  Sizes are chosen against the runtime dispatch
   thresholds so the kernel keys exactly the requested signature: the
   mat×vec products get a full 32-vector in the signature's layout and
   an explicit direction; a 4-element, 1-entry vector keeps every other
   call on its default path. *)

let sparse_vec dt = Svector.of_coo dt 4 [ (0, Dtype.one dt) ]

let dense_pair dt n = (Array.make n (Dtype.one dt), Array.make n true)

let small_mat dt = Smatrix.create dt 4 4

let run_recipe (type a) (dt : a Dtype.t) (s : Ks.t) =
  let opr name = List.assoc_opt name s.Ks.operators in
  let fmt role = List.assoc_opt role s.Ks.formats in
  let has_flag f = List.mem f s.Ks.flags in
  let semiring () =
    match opr "add", opr "identity", opr "mul" with
    | Some add_op, Some add_identity, Some mul_op ->
      Ok { Jit.Op_spec.add_op; add_identity; mul_op }
    | _, _, _ -> Error "signature lacks semiring operators"
  in
  let monoid () =
    match opr "op", opr "identity" with
    | Some op, Some identity -> Ok (op, identity)
    | _, _ -> Error "signature lacks monoid operators"
  in
  let unary_chain name =
    match opr name with
    | None -> Error (Printf.sprintf "signature lacks %S operator" name)
    | Some chain ->
      Ok (List.map Jit.Op_spec.unary_of_name (String.split_on_char ';' chain))
  in
  let ( let* ) = Result.bind in
  match s.Ks.op with
  | ("mxv" | "vxm") as op ->
    let* sr = semiring () in
    let vxm = op = "vxm" and transpose = has_flag "transpose_a" in
    let csc = fmt "a" = Some "csc" in
    if csc && transpose = vxm then Error "csc signature on a row gather"
    else begin
      (* a full 32-vector in the signature's layout (reads never convert
         it), and the direction the formats name: CSC pulls, CSR
         pushes *)
      let u =
        Svector.of_coo dt 32 (List.init 32 (fun i -> (i, Dtype.one dt)))
      in
      if fmt "u" = Some "dense" then Svector.densify u else Svector.sparsify u;
      let m = Smatrix.create dt 32 32 in
      let direction = if csc then `Pull else `Push in
      let mask =
        if has_flag "masked_pull" then
          Some (Mask.Vmask { dense = Array.make 32 false; complemented = true })
        else None
      in
      if vxm then ignore (K.Vector.vxm dt sr ~direction ?mask ~transpose u m)
      else ignore (K.Vector.mxv dt sr ~direction ?mask ~transpose m u);
      Ok ()
    end
  | "mxm" ->
    let* sr = semiring () in
    let a = small_mat dt and b = small_mat dt in
    let mask =
      if has_flag "mask" then
        Mask.mmask ~complemented:(has_flag "mask_complement") (small_mat dt)
      else Mask.No_mmask
    in
    ignore
      (K.mxm dt sr
         ~transpose_a:(has_flag "transpose_a")
         ~transpose_b:(has_flag "transpose_b")
         ~mask a b);
    Ok ()
  | ("ewise_add_v" | "ewise_mult_v") as kn -> (
    let kind = if kn = "ewise_add_v" then `Add else `Mult in
    match opr "op" with
    | None -> Error "signature lacks the binary operator"
    | Some op ->
      (match fmt "u" with
      | Some "dense" ->
        ignore (K.ewise_v_dense kind dt ~op (dense_pair dt 4) (dense_pair dt 4))
      | _ -> ignore (K.ewise_v kind dt ~op (sparse_vec dt) (sparse_vec dt)));
      Ok ())
  | ("ewise_add_fused_v" | "ewise_mult_fused_v") as kn -> (
    let kind = if kn = "ewise_add_fused_v" then `Add else `Mult in
    match opr "op" with
    | None -> Error "signature lacks the binary operator"
    | Some op ->
      let* chain = unary_chain "chain" in
      ignore (K.ewise_fused_v kind dt ~op ~chain (sparse_vec dt) (sparse_vec dt));
      Ok ())
  | "apply_chain_v" ->
    let* chain = unary_chain "chain" in
    ignore (K.apply_chain_v dt ~chain (sparse_vec dt));
    Ok ()
  | "ewise_mult_reduce_v" -> (
    match opr "op", opr "monoid", opr "identity" with
    | Some op, Some monoid_op, Some identity ->
      ignore
        (K.ewise_mult_reduce_v dt ~op ~monoid_op ~identity (sparse_vec dt)
           (sparse_vec dt));
      Ok ()
    | _, _, _ -> Error "signature lacks mult-reduce operators")
  | "apply_v" -> (
    let* chain = unary_chain "f" in
    match fmt "u", chain with
    | Some "dense", chain ->
      ignore (K.apply_chain_dense dt chain (dense_pair dt 4));
      Ok ()
    | _, [ f ] ->
      ignore (K.apply_v dt f (sparse_vec dt));
      Ok ()
    | _, _ -> Error "sparse apply_v signature with an operator chain")
  | "apply_m" -> (
    match opr "f" with
    | None -> Error "signature lacks the unary operator"
    | Some f ->
      ignore
        (K.apply_m dt (Jit.Op_spec.unary_of_name f)
           ~transpose:(has_flag "transpose_a")
           (small_mat dt));
      Ok ())
  | "reduce_rows" ->
    let* op, identity = monoid () in
    ignore
      (K.reduce_rows dt ~op ~identity
         ~transpose:(has_flag "transpose_a")
         (small_mat dt));
    Ok ()
  | "reduce_v_scalar" -> (
    let* op, identity = monoid () in
    (match fmt "u" with
    | Some "dense" ->
      ignore (K.reduce_v_scalar_dense dt ~op ~identity (dense_pair dt 4))
    | _ -> ignore (K.reduce_v_scalar dt ~op ~identity (sparse_vec dt)));
    Ok ())
  | "reduce_m_scalar" ->
    let* op, identity = monoid () in
    ignore (K.reduce_m_scalar dt ~op ~identity (small_mat dt));
    Ok ()
  | "transpose" ->
    ignore (K.transpose_m dt (small_mat dt));
    Ok ()
  | op -> Error (Printf.sprintf "no warm-up recipe for %S" op)

let invoke (s : Ks.t) =
  match List.assoc_opt "T" s.Ks.dtypes with
  | None -> Error "signature has no dtype role T"
  | Some dtn -> (
    match Dtype.of_name dtn with
    | exception _ -> Error (Printf.sprintf "unknown dtype %S" dtn)
    | Dtype.P dt -> (
      try run_recipe dt s
      with e -> Error (Printexc.to_string e)))

let warm_one s =
  Jit.Jit_stats.record_warm_request ();
  if Jit.Dispatch.cached s then { sig_ = s; status = Already_cached }
  else begin
    (* a miss on this key is a compile (native or closure), a hit a
       disk load: per-key tallies, so concurrent warm-ups of other keys
       do not blur the verdict *)
    let key = Ks.key s in
    let _, misses = Jit.Jit_stats.signature_counts key in
    match invoke s with
    | Error msg -> { sig_ = s; status = Skipped msg }
    | Ok () ->
      if not (Jit.Dispatch.cached s) then
        { sig_ = s;
          status = Skipped "recipe dispatched a different signature" }
      else if snd (Jit.Jit_stats.signature_counts key) > misses then begin
        Jit.Jit_stats.record_warm_compile ();
        { sig_ = s; status = Compiled }
      end
      else { sig_ = s; status = Loaded }
  end

(* A cold warm-up is ocamlopt child processes, one per signature: a
   second domain working through the same list keeps both of a
   two-core machine's cores busy.  [Jit.Dispatch] compiles different
   keys concurrently and each key once. *)
let warm sigs =
  let sigs = Array.of_list sigs in
  let out = Array.make (Array.length sigs) None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length sigs then begin
      out.(i) <- Some (warm_one sigs.(i));
      work ()
    end
  in
  let helper =
    if Array.length sigs > 1 then Some (Domain.spawn work) else None
  in
  work ();
  Option.iter Domain.join helper;
  Array.to_list (Array.map Option.get out)
