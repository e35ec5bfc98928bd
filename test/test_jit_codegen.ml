(* Exhaustive equivalence of the two JIT backends: for every operator and
   dtype combination the codegen supports, the natively compiled kernel
   must agree with the closure-specialized kernel on random inputs.
   This pins the generated OCaml source (Codegen) against the shared
   array algorithms (Array_kernels). *)

open Gbtl

let native_available = Jit.Native_backend.available ()

let with_backend backend f =
  let saved = Jit.Dispatch.backend () in
  Jit.Dispatch.set_backend backend;
  Fun.protect ~finally:(fun () -> Jit.Dispatch.set_backend saved) f

let run_both f =
  let n = with_backend Jit.Dispatch.Native f in
  Jit.Dispatch.clear_memory_cache ();
  let c = with_backend Jit.Dispatch.Closure f in
  Jit.Dispatch.clear_memory_cache ();
  (n, c)

(* random sparse data per dtype *)
let rand_vec (type a) (dt : a Dtype.t) rng size : a Svector.t =
  let v = Svector.create dt size in
  for i = 0 to size - 1 do
    if Graphs.Rng.float rng < 0.5 then
      Svector.set v i (Dtype.of_int dt (Graphs.Rng.int rng 9 - 4))
  done;
  v

let rand_mat (type a) (dt : a Dtype.t) rng nrows ncols : a Smatrix.t =
  let triples = ref [] in
  for r = 0 to nrows - 1 do
    for c = 0 to ncols - 1 do
      if Graphs.Rng.float rng < 0.35 then
        triples := (r, c, Dtype.of_int dt (Graphs.Rng.int rng 9 - 4)) :: !triples
    done
  done;
  Smatrix.of_coo dt nrows ncols !triples

let entries_list (type a) (dt : a Dtype.t) e =
  let acc = ref [] in
  Entries.iter (fun i v -> acc := (i, Dtype.to_string dt v) :: !acc) e;
  List.rev !acc

let codegen_semirings =
  (* semirings whose parts the codegen supports *)
  [ Jit.Op_spec.arithmetic; Jit.Op_spec.logical; Jit.Op_spec.min_plus;
    { Jit.Op_spec.add_op = "Max"; add_identity = "MaxIdentity"; mul_op = "Times" };
    { Jit.Op_spec.add_op = "Min"; add_identity = "MinIdentity"; mul_op = "Second" };
    { Jit.Op_spec.add_op = "Plus"; add_identity = "Zero"; mul_op = "First" };
  ]

let check_all _name checks () =
  if not native_available then Alcotest.skip ()
  else List.iter (fun f -> f ()) checks

let matvec_case (type a) (dt : a Dtype.t) sr transpose seed () =
  let rng = Graphs.Rng.create ~seed in
  let m = rand_mat dt rng 7 5 in
  let u = rand_vec dt rng (if transpose then 7 else 5) in
  let run () = entries_list dt (Jit.Kernels.mxv dt sr ~transpose m u) in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (pair int string))
    (Printf.sprintf "mxv %s %s/%s/%s transpose=%b" (Dtype.name dt)
       sr.Jit.Op_spec.add_op sr.Jit.Op_spec.add_identity sr.Jit.Op_spec.mul_op
       transpose)
    c n

let vxm_case (type a) (dt : a Dtype.t) sr transpose seed () =
  let rng = Graphs.Rng.create ~seed in
  let m = rand_mat dt rng 7 5 in
  let u = rand_vec dt rng (if transpose then 5 else 7) in
  let run () = entries_list dt (Jit.Kernels.vxm dt sr ~transpose u m) in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (pair int string))
    (Printf.sprintf "vxm %s %s transpose=%b" (Dtype.name dt)
       sr.Jit.Op_spec.mul_op transpose)
    c n

let test_matvec_combinations =
  check_all "matvec"
    (List.concat_map
       (fun sr ->
         List.concat_map
           (fun transpose ->
             [ matvec_case Dtype.FP64 sr transpose 11;
               matvec_case Dtype.Int64 sr transpose 12;
               matvec_case Dtype.Bool sr transpose 13;
               vxm_case Dtype.FP64 sr transpose 14;
               vxm_case Dtype.Int64 sr transpose 15;
             ])
           [ false; true ])
       codegen_semirings)

let mxm_case (type a) (dt : a Dtype.t) sr (ta, tb) seed () =
  let rng = Graphs.Rng.create ~seed in
  let a = rand_mat dt rng 6 5 in
  let b = rand_mat dt rng 5 7 in
  let a_arg = if ta then Smatrix.transpose a else a in
  let b_arg = if tb then Smatrix.transpose b else b in
  let run () =
    let m =
      Jit.Kernels.mxm dt sr ~transpose_a:ta ~transpose_b:tb
        ~mask:Gbtl.Mask.No_mmask a_arg b_arg
    in
    List.map
      (fun (r, c, x) -> (r, c, Dtype.to_string dt x))
      (Smatrix.to_coo m)
  in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (triple int int string))
    (Printf.sprintf "mxm %s %s ta=%b tb=%b" (Dtype.name dt)
       sr.Jit.Op_spec.mul_op ta tb)
    c n;
  (* and against the polymorphic library *)
  let expected = Smatrix.create dt 6 7 in
  Matmul.mxm
    (Jit.Op_spec.instantiate_semiring dt sr)
    ~out:expected a b;
  Alcotest.check
    Alcotest.(list (triple int int string))
    "mxm kernel = Gbtl.Matmul"
    (List.map
       (fun (r, c, x) -> (r, c, Dtype.to_string dt x))
       (Smatrix.to_coo expected))
    n

let test_mxm_combinations =
  check_all "mxm"
    (List.concat_map
       (fun sr ->
         [ mxm_case Dtype.FP64 sr (false, false) 91;
           mxm_case Dtype.Int64 sr (false, false) 92;
           mxm_case Dtype.Bool sr (false, false) 93;
           mxm_case Dtype.FP64 sr (true, false) 94;
           mxm_case Dtype.FP64 sr (false, true) 95;
           mxm_case Dtype.FP64 sr (true, true) 96;
         ])
       codegen_semirings)

let ewise_case (type a) (dt : a Dtype.t) kind op seed () =
  let rng = Graphs.Rng.create ~seed in
  let u = rand_vec dt rng 12 and v = rand_vec dt rng 12 in
  let run () = entries_list dt (Jit.Kernels.ewise_v kind dt ~op u v) in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (pair int string))
    (Printf.sprintf "ewise %s %s %s" (Dtype.name dt)
       (match kind with `Add -> "add" | `Mult -> "mult")
       op)
    c n

let test_ewise_all_ops =
  check_all "ewise"
    (List.concat_map
       (fun op ->
         List.concat_map
           (fun kind ->
             [ ewise_case Dtype.FP64 kind op 21;
               ewise_case Dtype.Int64 kind op 22;
               ewise_case Dtype.Bool kind op 23;
             ])
           [ `Add; `Mult ])
       Binop.names)

let apply_case (type a) (dt : a Dtype.t) f seed () =
  let rng = Graphs.Rng.create ~seed in
  let u = rand_vec dt rng 12 in
  let run () = entries_list dt (Jit.Kernels.apply_v dt f u) in
  let n, c = run_both run in
  Alcotest.check
    Alcotest.(list (pair int string))
    (Printf.sprintf "apply %s %s" (Dtype.name dt) (Jit.Op_spec.unary_name f))
    c n

let test_apply_all_ops =
  check_all "apply"
    (List.concat_map
       (fun f ->
         [ apply_case Dtype.FP64 f 31; apply_case Dtype.Int64 f 32;
           apply_case Dtype.Bool f 33 ])
       ([ Jit.Op_spec.Named "Identity"; Named "AdditiveInverse";
          Named "LogicalNot"; Named "MultiplicativeInverse";
          Bound { op = "Times"; side = `Second; const = 3.0 };
          Bound { op = "Plus"; side = `First; const = -2.0 };
          Bound { op = "Minus"; side = `Second; const = 1.0 };
          Bound { op = "Max"; side = `Second; const = 0.0 } ]
         : Jit.Op_spec.unary list))

let reduce_case (type a) (dt : a Dtype.t) op identity seed () =
  let rng = Graphs.Rng.create ~seed in
  let u = rand_vec dt rng 12 in
  let run () =
    Dtype.to_string dt (Jit.Kernels.reduce_v_scalar dt ~op ~identity u)
  in
  let n, c = run_both run in
  Alcotest.check Alcotest.string
    (Printf.sprintf "reduce %s %s/%s" (Dtype.name dt) op identity)
    c n

let test_reduce_all_monoids =
  check_all "reduce"
    (List.concat_map
       (fun (op, identity) ->
         [ reduce_case Dtype.FP64 op identity 41;
           reduce_case Dtype.Int64 op identity 42;
           reduce_case Dtype.Bool op identity 43 ])
       [ ("Plus", "Zero"); ("Times", "One"); ("Min", "MinIdentity");
         ("Max", "MaxIdentity"); ("LogicalOr", "False");
         ("LogicalAnd", "True") ])

(* The families the cases above never reach: the CSC pull of the
   transposed product (only above size 32 and 1/4 fill), the masked pull
   with its early exit, the dense-frontier products and the tile
   continuation, the dense elementwise/apply/reduce variants and the
   fused merge+chain module. *)

let dense_pair (type a) (dt : a Dtype.t) (v : a Svector.t) =
  let n = Svector.size v in
  let vls = Array.make n (Dtype.zero dt) and occ = Array.make n false in
  Svector.iter (fun i x -> vls.(i) <- x; occ.(i) <- true) v;
  (vls, occ)

let full_pair (type a) (dt : a Dtype.t) rng n =
  (Array.init n (fun _ -> Dtype.of_int dt (Graphs.Rng.int rng 9 - 4)),
   Array.make n true)

let dense_list (type a) (dt : a Dtype.t) ((vls, occ) : a array * bool array) =
  List.init (Array.length vls) (fun i ->
      (occ.(i), if occ.(i) then Dtype.to_string dt vls.(i) else ""))

let check_dense label c n =
  Alcotest.check Alcotest.(list (pair bool string)) label c n

let sr_name (sr : Jit.Op_spec.semiring) =
  Printf.sprintf "%s/%s/%s" sr.Jit.Op_spec.add_op sr.Jit.Op_spec.add_identity
    sr.Jit.Op_spec.mul_op

let semiring_families (type a) (dt : a Dtype.t) sr seed () =
  let rng = Graphs.Rng.create ~seed in
  let name fam = Printf.sprintf "%s %s %s" fam (Dtype.name dt) (sr_name sr) in
  (* CSC pull: a transposed product over a filled 40-vector *)
  let m = rand_mat dt rng 40 24 in
  let u = rand_vec dt rng 40 in
  let n, c =
    run_both (fun () ->
        entries_list dt (Jit.Kernels.mxv dt sr ~transpose:true m u))
  in
  Alcotest.check Alcotest.(list (pair int string)) (name "mxv csc pull") c n;
  (* masked pull: every third output visited *)
  let visited = Array.init 24 (fun i -> i mod 3 = 0) in
  let n, c =
    run_both (fun () ->
        entries_list dt
          (Jit.Kernels.mxv_pull_masked dt sr ~visited m (dense_pair dt u)))
  in
  Alcotest.check Alcotest.(list (pair int string)) (name "mxv_pull_masked") c n;
  (* dense-frontier scatter and pull, partial and full occupancy *)
  let full = full_pair dt rng 40 in
  List.iter
    (fun (label, pair) ->
      let n, c =
        run_both (fun () -> dense_list dt (Jit.Kernels.vxm_dense dt sr pair m))
      in
      check_dense (name ("vxm_dense " ^ label)) c n;
      let n, c =
        run_both (fun () ->
            dense_list dt (Jit.Kernels.vxm_pull_dense dt sr pair m))
      in
      check_dense (name ("vxm_pull_dense " ^ label)) c n)
    [ ("partial", dense_pair dt u); ("full", full) ];
  (* tile continuation into an accumulator that already holds entries *)
  let tile = rand_mat dt rng 16 10 in
  let run () =
    let acc = Array.make 24 (Dtype.zero dt) and occ = Array.make 24 false in
    for i = 0 to 23 do
      if i mod 2 = 0 then begin
        acc.(i) <- Dtype.of_int dt (i mod 5 - 2);
        occ.(i) <- true
      end
    done;
    Jit.Kernels.vxm_tile_acc dt sr ~tile_tag:"16x10" ~r0:20 ~c0:8 tile
      (dense_pair dt u) (acc, occ);
    dense_list dt (acc, occ)
  in
  let n, c = run_both run in
  check_dense (name "vxm_tile_acc") c n

let dense_ops_families (type a) (dt : a Dtype.t) seed () =
  let rng = Graphs.Rng.create ~seed in
  let u = rand_vec dt rng 20 and v = rand_vec dt rng 20 in
  let du = dense_pair dt u and dv = dense_pair dt v in
  let dname = Dtype.name dt in
  List.iter
    (fun op ->
      List.iter
        (fun (kind, kname) ->
          let n, c =
            run_both (fun () ->
                dense_list dt (Jit.Kernels.ewise_v_dense kind dt ~op du dv))
          in
          check_dense (Printf.sprintf "ewise_v_dense %s %s %s" kname dname op) c n;
          let chain : Jit.Op_spec.unary list =
            [ Named "AdditiveInverse";
              Bound { op = "Times"; side = `Second; const = 3.0 } ]
          in
          let n, c =
            run_both (fun () ->
                entries_list dt (Jit.Kernels.ewise_fused_v kind dt ~op ~chain u v))
          in
          Alcotest.check
            Alcotest.(list (pair int string))
            (Printf.sprintf "ewise_fused_v %s %s %s" kname dname op)
            c n)
        [ (`Add, "add"); (`Mult, "mult") ])
    [ "Plus"; "Minus"; "Times"; "Min"; "LogicalOr" ];
  List.iter
    (fun (f : Jit.Op_spec.unary) ->
      let n, c =
        run_both (fun () -> dense_list dt (Jit.Kernels.apply_v_dense dt f du))
      in
      check_dense
        (Printf.sprintf "apply_v_dense %s %s" dname (Jit.Op_spec.unary_name f))
        c n)
    [ Named "Identity"; Named "AdditiveInverse"; Named "LogicalNot";
      Bound { op = "Times"; side = `Second; const = 0.85 };
      Bound { op = "Minus"; side = `First; const = 1.0 } ];
  List.iter
    (fun (op, identity) ->
      let n, c =
        run_both (fun () ->
            Dtype.to_string dt
              (Jit.Kernels.reduce_v_scalar_dense dt ~op ~identity du))
      in
      Alcotest.check Alcotest.string
        (Printf.sprintf "reduce_v_scalar_dense %s %s" dname op)
        c n)
    [ ("Plus", "Zero"); ("Times", "One"); ("Min", "MinIdentity");
      ("Max", "MaxIdentity"); ("LogicalOr", "False"); ("LogicalAnd", "True") ]

let test_remaining_families =
  check_all "remaining"
    (List.concat_map
       (fun sr ->
         [ semiring_families Dtype.FP64 sr 51;
           semiring_families Dtype.Int64 sr 52;
           semiring_families Dtype.Bool sr 53 ])
       codegen_semirings
    @ [ dense_ops_families Dtype.FP64 61;
        dense_ops_families Dtype.Int64 62;
        dense_ops_families Dtype.Bool 63 ])

(* apply_m runs the apply body over the CSR values (the CSC side for
   the transposed result): native = closure = the library's
   Apply_reduce.apply_matrix, structure and bits. *)
let qcheck_apply_m =
  Helpers.qtest ~count:60 "apply_m: native = closure = Apply_reduce.apply_matrix"
    QCheck.(
      make
        Gen.(
          quad (int_range 1 9) (int_range 1 9) (int_range 0 10_000)
            (pair bool (oneofl [ 0; 1; 2 ]))))
    (fun (nrows, ncols, seed, (transpose, which)) ->
      let rng = Graphs.Rng.create ~seed in
      let a = rand_mat Dtype.FP64 rng nrows ncols in
      let f =
        match which with
        | 0 -> Jit.Op_spec.Named "AdditiveInverse"
        | 1 -> Jit.Op_spec.Bound { op = "Times"; side = `Second; const = 0.85 }
        | _ -> Jit.Op_spec.Bound { op = "Minus"; side = `First; const = 0.5 }
      in
      let coo m =
        List.map (fun (r, c, x) -> (r, c, Int64.bits_of_float x)) (Smatrix.to_coo m)
      in
      let expected =
        let out =
          if transpose then Smatrix.create Dtype.FP64 ncols nrows
          else Smatrix.create Dtype.FP64 nrows ncols
        in
        Apply_reduce.apply_matrix ~transpose
          (Jit.Op_spec.instantiate_unary Dtype.FP64 f)
          ~out a;
        coo out
      in
      let run () = coo (Jit.Kernels.apply_m Dtype.FP64 f ~transpose a) in
      let closure =
        Jit.Dispatch.clear_memory_cache ();
        with_backend Jit.Dispatch.Closure run
      in
      closure = expected
      && ((not native_available) || with_backend Jit.Dispatch.Native run = expected))

let test_disk_cache_roundtrip () =
  if not native_available then Alcotest.skip ()
  else
    (* asserts exact disk-hit bookkeeping, which a globally armed chaos
       spec (OGB_FAULTS corrupting the artifact) legitimately breaks *)
    Fault.suspended @@ fun () ->
    begin
    (* a natively compiled kernel must load back from the .cmxs on disk *)
    let saved_dir = Jit.Disk_cache.dir () in
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ogb-dcache-%d" (Unix.getpid ()))
    in
    Jit.Disk_cache.set_dir dir;
    Jit.Disk_cache.clear ();
    Jit.Dispatch.clear_memory_cache ();
    Fun.protect
      ~finally:(fun () ->
        Jit.Disk_cache.clear ();
        Jit.Disk_cache.set_dir saved_dir;
        Jit.Dispatch.clear_memory_cache ())
      (fun () ->
        with_backend Jit.Dispatch.Native (fun () ->
            let rng = Graphs.Rng.create ~seed:5 in
            let m = rand_mat Dtype.FP64 rng 6 6 in
            let u = rand_vec Dtype.FP64 rng 6 in
            let first =
              entries_list Dtype.FP64
                (Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.arithmetic
                   ~transpose:false m u)
            in
            Jit.Jit_stats.reset ();
            Jit.Dispatch.clear_memory_cache ();
            let second =
              entries_list Dtype.FP64
                (Jit.Kernels.mxv Dtype.FP64 Jit.Op_spec.arithmetic
                   ~transpose:false m u)
            in
            let stats = Jit.Jit_stats.snapshot () in
            Alcotest.check Alcotest.int "served from disk" 1
              stats.Jit.Jit_stats.disk_hits;
            Alcotest.check Alcotest.int "no recompilation" 0
              stats.Jit.Jit_stats.compiles;
            Alcotest.check
              Alcotest.(list (pair int string))
              "same result" first second))
  end

let suite =
  [ Alcotest.test_case "matvec: native = closure (all combos)" `Quick
      test_matvec_combinations;
    Alcotest.test_case "mxm: native = closure = library" `Quick
      test_mxm_combinations;
    Alcotest.test_case "ewise: native = closure (17 ops x 3 dtypes)" `Quick
      test_ewise_all_ops;
    Alcotest.test_case "apply: native = closure (incl. bound ops)" `Quick
      test_apply_all_ops;
    Alcotest.test_case "reduce: native = closure (6 monoids)" `Quick
      test_reduce_all_monoids;
    Alcotest.test_case "pull, dense and fused families: native = closure"
      `Quick test_remaining_families;
    Alcotest.test_case "disk cache roundtrip" `Quick test_disk_cache_roundtrip;
    Helpers.to_alcotest qcheck_apply_m;
  ]
