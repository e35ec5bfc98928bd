(* DSL vector statements are layout-blind: the kernels read each operand
   in the layout it has (dense bodies on a dense vector, sparse ones on a
   sparse vector) and the write step works in place on a dense target,
   so a statement must give the same bits whatever the operands' layouts,
   with the format layer on or off, blocking or nonblocking — and the
   bits of the unmasked product written through the entry merge. *)

open Gbtl
open Ogb
open Ogb.Ops.Infix

let f64 = Dtype.FP64
let n = 48

(* One cell per position: [None] absent, [Some x] stored.  Values are
   small multiples of 1/8, so every fold is exact and order effects
   would show as bit differences only through a wrong ⊗ operand order. *)
let cells_gen ~fill =
  let open QCheck.Gen in
  list_repeat n
    (float_bound_inclusive 1.0 >>= fun p ->
     if p < fill then
       map (fun k -> Some (float_of_int k /. 8.0)) (int_range (-16) 16)
     else return None)
  >|= Array.of_list

(* Fill on either side of the 1/4 densify threshold, and above the 1/16
   sparsify one. *)
let vec_gen =
  QCheck.Gen.(oneofl [ 0.12; 0.2; 0.45; 0.9 ] >>= fun fill -> cells_gen ~fill)

type layout = As_built | Dense | Sparse

type stmt =
  | Vxm of string  (** w = u @ m under Plus.⊗ *)
  | Mxv_t of string  (** w = mᵀ @ u *)
  | Mxv of string  (** w = m @ u *)
  | Add of string  (** w = u + v *)
  | Mult of string  (** w = u * v *)
  | Apply  (** w = apply(u) *)
  | Update of string  (** w += u @ m with the given accumulator *)
  | Masked_mxv of { complemented : bool; replace : bool }
      (** w<k or ~k, replace?> = mᵀ @ u *)
  | Masked_add of { complemented : bool; replace : bool }
      (** w<k or ~k, replace?> = u + v *)

type case = {
  stmt : stmt;
  u : float option array;
  v : float option array;
  w : float option array;
  k : float option array;
  m : (int * int * float) list;
  layouts : layout array;  (** u, v, w, k *)
}

let mul_ops = [ "Times"; "First"; "Second"; "Minus" ]

let stmt_gen =
  let open QCheck.Gen in
  let mask =
    map2 (fun complemented replace -> (complemented, replace)) bool bool
  in
  oneof
    [ map (fun o -> Vxm o) (oneofl mul_ops);
      map (fun o -> Mxv_t o) (oneofl mul_ops);
      map (fun o -> Mxv o) (oneofl mul_ops);
      map (fun o -> Add o) (oneofl [ "Plus"; "Minus"; "First"; "Second" ]);
      map (fun o -> Mult o) (oneofl [ "Times"; "Minus"; "First"; "Second" ]);
      return Apply;
      map (fun a -> Update a) (oneofl [ "Plus"; "Second"; "Minus" ]);
      map
        (fun (complemented, replace) -> Masked_mxv { complemented; replace })
        mask;
      map
        (fun (complemented, replace) -> Masked_add { complemented; replace })
        mask ]

let matrix_gen =
  let open QCheck.Gen in
  list_repeat (n * n) (float_bound_inclusive 1.0) >>= fun ps ->
  list_repeat (n * n) (int_range (-16) 16) >|= fun ks ->
  List.concat
    (List.mapi
       (fun idx (p, k) ->
         if p < 0.15 then [ (idx / n, idx mod n, float_of_int k /. 8.0) ] else [])
       (List.combine ps ks))

let case_gen =
  let open QCheck.Gen in
  stmt_gen >>= fun stmt ->
  vec_gen >>= fun u ->
  vec_gen >>= fun v ->
  vec_gen >>= fun w ->
  vec_gen >>= fun k ->
  matrix_gen >>= fun m ->
  list_repeat 4 (oneofl [ As_built; Dense; Sparse ]) >|= fun ls ->
  { stmt; u; v; w; k; m; layouts = Array.of_list ls }

let stmt_name = function
  | Vxm o -> "vxm " ^ o
  | Mxv_t o -> "mxv_t " ^ o
  | Mxv o -> "mxv " ^ o
  | Add o -> "add " ^ o
  | Mult o -> "mult " ^ o
  | Apply -> "apply"
  | Update a -> "update " ^ a
  | Masked_mxv { complemented; replace } ->
    Printf.sprintf "masked mxv ~%b replace %b" complemented replace
  | Masked_add { complemented; replace } ->
    Printf.sprintf "masked add ~%b replace %b" complemented replace

let print_case c = stmt_name c.stmt

let vector cells layout =
  let c =
    Container.vector_coo ~size:n
      (List.filter_map Fun.id
         (List.mapi (fun i x -> Option.map (fun x -> (i, x)) x)
            (Array.to_list cells)))
  in
  (match c, layout with
  | Container.Vec (_, sv), Dense -> Svector.densify sv
  | Container.Vec (_, sv), Sparse -> Svector.sparsify sv
  | _, As_built -> ()
  | Container.Mat _, _ -> ());
  c

(* Run the case's statement on fresh containers; the result is the
   target's entries and the reduction of u, as raw float bits.  With
   [~reference] the statement's expression is forced unmasked and
   written through the entry merge ([Output.write_vector]), the write
   step's plain definition: no masked kernel, no in-place dense write,
   no direct install. *)
let run ?(reference = false) c =
  let u = vector c.u c.layouts.(0) and v = vector c.v c.layouts.(1) in
  let w = vector c.w c.layouts.(2) and k = vector c.k c.layouts.(3) in
  let m = Container.matrix_coo ~nrows:n ~ncols:n c.m in
  let sr mul = Context.custom_semiring ~add_op:"Plus" ~add_identity:"Zero" ~mul_op:mul in
  let set ?mask ?(replace = false) ?accum ops e =
    Context.with_ops ops (fun () ->
        if not reference then
          match accum with
          | Some accum -> Ops.update ?mask ~accum w (e ())
          | None -> Ops.set ?mask ~replace w (e ())
        else
          let t = Container.as_vector f64 (Expr.force (e ())) in
          let mask =
            match mask with
            | None -> Mask.No_vmask
            | Some (Ops.Mask k | Ops.Mask_complement k) ->
              let complemented =
                match mask with Some (Ops.Mask_complement _) -> true | _ -> false
              in
              Mask.Vmask
                { dense = Svector.to_bool_dense (Container.as_vector f64 k);
                  complemented }
          in
          Output.write_vector ~mask
            ~accum:(Option.map (fun a -> Binop.of_name a f64) accum)
            ~replace ~out:(Container.as_vector f64 w) ~t:(Svector.entries t))
  in
  let mask complemented = if complemented then ~~k else Ops.Mask k in
  (match c.stmt with
  | Vxm o -> set [ sr o ] (fun () -> !!u @. !!m)
  | Mxv_t o -> set [ sr o ] (fun () -> tr !!m @. !!u)
  | Mxv o -> set [ sr o ] (fun () -> !!m @. !!u)
  | Add o -> set [ Context.binary o ] (fun () -> !!u +: !!v)
  | Mult o -> set [ Context.binary o ] (fun () -> !!u *: !!v)
  | Apply ->
    set
      [ Context.unary_bound ~op:"Minus" ~side:`First 0.5 ]
      (fun () -> Ops.apply !!u)
  | Update a -> set ~accum:a [ sr "Times" ] (fun () -> !!u @. !!m)
  | Masked_mxv { complemented; replace } ->
    set ~mask:(mask complemented) ~replace [ sr "First" ] (fun () ->
        tr !!m @. !!u)
  | Masked_add { complemented; replace } ->
    set ~mask:(mask complemented) ~replace [ Context.binary "Minus" ]
      (fun () -> !!u +: !!v));
  let bits l = List.map (fun (i, x) -> (i, Int64.bits_of_float x)) l in
  let total =
    Context.with_ops [ Context.binary "Plus" ] (fun () ->
        Ops.reduce (!!u *: !!v))
  in
  (bits (Container.vector_entries w), Int64.bits_of_float total)

let qcheck_layout_blind =
  Helpers.qtest ~count:300
    "DSL vector statements: same bits at any layout, formats on/off, \
     blocking/nonblocking"
    (QCheck.make case_gen ~print:print_case)
    (fun c ->
      let under formats mode =
        Format_stats.with_enabled formats (fun () ->
            Exec.with_mode mode (fun () -> run c))
      in
      let reference =
        Format_stats.with_enabled false (fun () -> run ~reference:true c)
      in
      List.for_all
        (fun (formats, mode) -> under formats mode = reference)
        [ (false, Exec.Blocking);
          (true, Exec.Blocking);
          (true, Exec.Nonblocking);
          (false, Exec.Nonblocking) ])

(* PageRank keeps its vectors dense from the first iteration on: no
   statement of a later iteration turns a vector sparse. *)
let test_pagerank_no_sparsify_after_first_iteration () =
  let g =
    Graphs.Generators.erdos_renyi_paper (Graphs.Rng.create ~seed:9)
      ~nvertices:96
  in
  let gc = Container.of_smatrix (Graphs.Convert.matrix_of_edges f64 g) in
  let sparsify_after iters =
    Format_stats.with_enabled true (fun () ->
        Format_stats.reset ();
        let _, it = Algorithms.Pagerank.dsl ~threshold:0.0 ~max_iters:iters gc in
        Alcotest.(check int) "ran every iteration" iters it;
        List.assoc "sparsify" (Format_stats.counters ()))
  in
  let one = sparsify_after 1 in
  Alcotest.(check int) "no sparsify in iterations 2-6" one (sparsify_after 6)

let suite =
  [ Helpers.to_alcotest qcheck_layout_blind;
    Alcotest.test_case "pagerank dsl: no sparsify after iteration 1" `Quick
      test_pagerank_no_sparsify_after_first_iteration ]
