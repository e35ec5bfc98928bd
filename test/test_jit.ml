open Gbtl

let f64 = Dtype.FP64

let with_fresh_cache f =
  let saved_dir = Jit.Disk_cache.dir () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogb-jit-test-%d-%d" (Unix.getpid ()) (Random.int 100000))
  in
  Jit.Disk_cache.set_dir dir;
  Jit.Dispatch.clear_memory_cache ();
  Jit.Jit_stats.reset ();
  Fun.protect
    ~finally:(fun () ->
      Jit.Disk_cache.clear ();
      Jit.Disk_cache.set_dir saved_dir;
      Jit.Dispatch.clear_memory_cache ();
      Jit.Jit_stats.reset ())
    f

let test_signature_keys () =
  let s1 =
    Jit.Kernel_sig.make ~op:"mxv"
      ~dtypes:[ ("T", "double") ]
      ~operators:[ ("mul", "Times"); ("add", "Plus"); ("identity", "Zero") ]
      ~flags:[ "transpose_a" ] ()
  in
  let s2 =
    Jit.Kernel_sig.make ~op:"mxv"
      ~dtypes:[ ("T", "double") ]
      ~operators:[ ("add", "Plus"); ("identity", "Zero"); ("mul", "Times") ]
      ~flags:[ "transpose_a"; "transpose_a" ] ()
  in
  Alcotest.check Alcotest.string "key is canonical (order-insensitive)"
    (Jit.Kernel_sig.key s1) (Jit.Kernel_sig.key s2);
  Alcotest.check Alcotest.string "hash_key is stable"
    (Jit.Kernel_sig.hash_key s1) (Jit.Kernel_sig.hash_key s2);
  let s3 = Jit.Kernel_sig.make ~op:"mxv" ~dtypes:[ ("T", "int64_t") ] () in
  Alcotest.check Alcotest.bool "different dtypes, different keys" false
    (Jit.Kernel_sig.key s1 = Jit.Kernel_sig.key s3)

let test_dispatch_cache_levels () =
  with_fresh_cache (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Closure;
      let sig_ = Jit.Kernel_sig.make ~op:"test_op" ~dtypes:[ ("T", "double") ] () in
      let builds = ref 0 in
      let build () =
        incr builds;
        Obj.repr (fun (x : int) -> x + 1)
      in
      let k1 = Jit.Dispatch.get sig_ ~build () in
      let k2 = Jit.Dispatch.get sig_ ~build () in
      Alcotest.check Alcotest.int "built once" 1 !builds;
      Alcotest.check Alcotest.bool "memoized" true (k1 == k2);
      let s = Jit.Jit_stats.snapshot () in
      Alcotest.check Alcotest.int "2 lookups" 2 s.Jit.Jit_stats.lookups;
      Alcotest.check Alcotest.int "1 memory hit" 1 s.Jit.Jit_stats.memory_hits;
      Alcotest.check Alcotest.int "1 compile" 1 s.Jit.Jit_stats.compiles;
      (* the closure backend keeps nothing on disk: clearing the memory
         cache means building again *)
      Jit.Dispatch.clear_memory_cache ();
      let _ = Jit.Dispatch.get sig_ ~build () in
      let s = Jit.Jit_stats.snapshot () in
      Alcotest.check Alcotest.int "rebuilt after memory clear" 2 !builds;
      Alcotest.check Alcotest.int "no disk hit after memory clear" 0
        s.Jit.Jit_stats.disk_hits;
      Jit.Dispatch.set_backend Jit.Dispatch.Auto)

let entry_list e =
  let acc = ref [] in
  Gbtl.Entries.iter (fun i v -> acc := (i, v) :: !acc) e;
  List.rev !acc

let test_closure_mxv () =
  with_fresh_cache (fun () ->
      Jit.Dispatch.set_backend Jit.Dispatch.Closure;
      let a = Smatrix.of_dense f64 [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
      let u = Svector.of_dense f64 [| 10.0; 100.0 |] in
      let t = Jit.Kernels.mxv f64 Jit.Op_spec.arithmetic ~transpose:false a u in
      Alcotest.check
        Alcotest.(list (pair int (float 0.0)))
        "closure mxv result"
        [ (0, 210.0); (1, 430.0) ]
        (entry_list t);
      Jit.Dispatch.set_backend Jit.Dispatch.Auto)

let test_codegen_produces_source () =
  let src =
    Jit.Codegen.mxv_source ~dtype:"double" ~sr:Jit.Op_spec.min_plus
      ~key:"testkey"
  in
  match src with
  | None -> Alcotest.fail "expected codegen to support double MinPlus"
  | Some s ->
    Alcotest.check Alcotest.bool "registers the key" true
      (Helpers.contains_substring s "Jit_plugin_api.register \"testkey\"");
    Alcotest.check Alcotest.bool "uses min for add" true
      (Helpers.contains_substring s "if x <= y then x else y")

let test_codegen_unsupported () =
  Alcotest.check Alcotest.bool "fp32 unsupported by codegen" true
    (Jit.Codegen.mxv_source ~dtype:"float" ~sr:Jit.Op_spec.arithmetic
       ~key:"k"
    = None);
  Alcotest.check Alcotest.bool "unknown op unsupported" true
    (Jit.Codegen.binop_expr ~dtype:"double" "Frobnicate" = None)

let test_native_backend_roundtrip () =
  if not (Jit.Native_backend.available ()) then
    Alcotest.skip ()
  else
    with_fresh_cache (fun () ->
        Jit.Dispatch.set_backend Jit.Dispatch.Native;
        let a = Smatrix.of_dense f64 [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        let u = Svector.of_dense f64 [| 10.0; 100.0 |] in
        let t =
          Jit.Kernels.mxv f64 Jit.Op_spec.arithmetic ~transpose:false a u
        in
        Alcotest.check
          Alcotest.(list (pair int (float 0.0)))
          "natively compiled mxv result"
          [ (0, 210.0); (1, 430.0) ]
          (entry_list t);
        let s = Jit.Jit_stats.snapshot () in
        Alcotest.check Alcotest.int "one native compile" 1
          s.Jit.Jit_stats.native_compiles;
        Alcotest.check Alcotest.int "no native failures" 0
          s.Jit.Jit_stats.native_failures;
        Jit.Dispatch.set_backend Jit.Dispatch.Auto)

let test_native_matches_closure =
  let gen =
    QCheck.Gen.(
      Helpers.mat_gen 5 6 >>= fun a ->
      Helpers.vec_gen 6 >>= fun u ->
      Helpers.vec_gen 5 >>= fun w ->
      pair bool Helpers.semiring_gen >|= fun (tr, sr) -> (a, u, w, tr, sr))
  in
  Helpers.qtest ~count:60 "native and closure kernels agree (mxv)"
    (Helpers.arb gen) (fun (a, u, w, tr, sr) ->
      if not (Jit.Native_backend.available ()) then true
      else begin
        let spec =
          Jit.Op_spec.
            { add_op = sr.Gbtl.Semiring.add.Gbtl.Monoid.op.Gbtl.Binop.name;
              add_identity = sr.Gbtl.Semiring.add.Gbtl.Monoid.identity_name;
              mul_op = sr.Gbtl.Semiring.mul.Gbtl.Binop.name }
        in
        let a_sp = Dense_ref.smatrix_of_mat f64 5 6 a in
        (* transposed mxv consumes a vector of size nrows (5), plain mxv
           one of size ncols (6) *)
        let u_sp =
          Dense_ref.svector_of_vec f64 (if tr then w else u)
        in
        let run backend =
          Jit.Dispatch.set_backend backend;
          Jit.Dispatch.clear_memory_cache ();
          let t = Jit.Kernels.mxv f64 spec ~transpose:tr a_sp u_sp in
          entry_list t
        in
        let n = run Jit.Dispatch.Native in
        let c = run Jit.Dispatch.Closure in
        Jit.Dispatch.set_backend Jit.Dispatch.Auto;
        n = c
      end)

let suite =
  [ Alcotest.test_case "signature keys" `Quick test_signature_keys;
    Alcotest.test_case "dispatch cache levels" `Quick
      test_dispatch_cache_levels;
    Alcotest.test_case "closure mxv" `Quick test_closure_mxv;
    Alcotest.test_case "codegen source" `Quick test_codegen_produces_source;
    Alcotest.test_case "codegen unsupported combos" `Quick
      test_codegen_unsupported;
    Alcotest.test_case "native backend roundtrip" `Quick
      test_native_backend_roundtrip;
    Helpers.to_alcotest test_native_matches_closure;
  ]
