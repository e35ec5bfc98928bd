open Gbtl

(* The generic-library tier: the GBTL program of paper Fig. 2c against
   the polymorphic operations. *)
let generic graph ~src =
  let n = Smatrix.nrows graph in
  let frontier = Svector.create Dtype.Bool n in
  Svector.set frontier src true;
  let levels = Svector.create Dtype.Int64 n in
  let logical = Semiring.logical Dtype.Bool in
  let depth = ref 0 in
  while Svector.nvals frontier > 0 do
    incr depth;
    (* levels<frontier, merge> = depth *)
    Assign.vector_scalar
      ~mask:(Mask.vmask frontier)
      ~out:levels !depth Index_set.All;
    (* frontier<!levels, replace> = graphᵀ ⊕.⊗ frontier *)
    let lmask =
      Mask.Vmask
        { dense = Svector.to_bool_dense (Svector.cast ~into:Dtype.Bool levels);
          complemented = true }
    in
    Matmul.mxv ~mask:lmask ~replace:true ~transpose_a:true logical
      ~out:frontier graph frontier
  done;
  levels

(* Tier 3: the same loop over the specialized kernels.  Two pipelines,
   chosen by the storage-format layer:

   - [native_sparse] (format layer off — the CSR-only baseline): the
     frontier and levels live in sparse vectors and every step goes
     through the masked entry-merge write path.
   - [native_dense] (format layer on): the frontier is an index array
     over a dense staging pair, levels are a dense (values, validity)
     pair, and the expansion is direction-optimized — a thin frontier
     pushes (CSR scatter, then a ¬visited filter); a thick one pulls
     (CSC gather over unvisited vertices only, with early exit once the
     lor accumulator saturates).

   Both expansion directions accumulate per-vertex contributions in
   ascending neighbor order and both pipelines assign depths to the same
   frontier sets, so the returned levels are bit-identical. *)
let pull_threshold = 8 (* pull once frontier fill reaches 1/8 *)

let native_sparse graph ~src =
  let n = Smatrix.nrows graph in
  let frontier = Svector.create Dtype.Bool n in
  Svector.set frontier src true;
  let levels = Svector.create Dtype.Int64 n in
  let visited = Array.make n false in
  (* dense frontier staging for the pull direction, reused across
     iterations *)
  let uvls = Array.make n false and uocc = Array.make n false in
  let depth = ref 0 in
  while Svector.nvals frontier > 0 do
    incr depth;
    (* levels<frontier, merge> = depth *)
    Assign.vector_scalar
      ~mask:(Mask.vmask frontier)
      ~out:levels !depth Index_set.All;
    Svector.iter (fun i _ -> visited.(i) <- true) frontier;
    (* frontier<!levels, replace> = graphᵀ ⊕.⊗ frontier *)
    let use_pull =
      Format_stats.enabled ()
      && n >= 32
      && pull_threshold * Svector.nvals frontier >= n
    in
    if use_pull then begin
      Format_stats.record_pull ();
      Array.fill uvls 0 n false;
      Array.fill uocc 0 n false;
      Svector.iter
        (fun i b ->
          uvls.(i) <- b;
          uocc.(i) <- true)
        frontier;
      let t =
        Jit.Kernels.mxv_pull_masked Dtype.Bool Jit.Op_spec.logical ~visited
          graph (uvls, uocc)
      in
      Output.write_vector ~mask:Mask.No_vmask ~accum:None ~replace:true
        ~out:frontier ~t
    end
    else begin
      let t =
        Jit.Kernels.mxv Dtype.Bool Jit.Op_spec.logical ~transpose:true graph
          frontier
      in
      Output.write_vector
        ~mask:(Mask.Vmask { dense = visited; complemented = true })
        ~accum:None ~replace:true ~out:frontier ~t
    end
  done;
  levels

let native_dense graph ~src =
  let n = Smatrix.nrows graph in
  (* a vertex is visited exactly when its level is set, so the levels'
     validity array is the visited set *)
  let levels_v = Array.make n 0 in
  let visited = Array.make n false in
  (* dense frontier staging for the pull direction, reused across
     iterations: a Bool frontier's staged values equal its occupancy, so
     one array is both *)
  let uocc = Array.make n false in
  let frontier = ref [| src |] in
  let depth = ref 0 in
  while Array.length !frontier > 0 do
    incr depth;
    (* levels<frontier, merge> = depth *)
    Array.iter
      (fun i ->
        levels_v.(i) <- !depth;
        visited.(i) <- true)
      !frontier;
    (* frontier<!levels, replace> = graphᵀ ⊕.⊗ frontier *)
    let fn = Array.length !frontier in
    let use_pull = n >= 32 && pull_threshold * fn >= n in
    let next =
      if use_pull then begin
        Format_stats.record_pull ();
        Array.fill uocc 0 n false;
        Array.iter (fun i -> uocc.(i) <- true) !frontier;
        let t =
          Jit.Kernels.mxv_pull_masked Dtype.Bool Jit.Op_spec.logical ~visited
            graph (uocc, uocc)
        in
        (* already complement-masked, and lor over a bool graph only
           produces true — the new frontier is just the index set *)
        Array.init (Entries.length t) (Entries.get_idx t)
      end
      else begin
        (* push: the CSR scatter on the sparse frontier (mxv records the
           direction counter), then the ¬visited filter *)
        let fv = Svector.create Dtype.Bool n in
        Svector.replace_contents fv
          (Entries.of_arrays_unsafe !frontier (Array.make fn true) ~len:fn);
        let t =
          Jit.Kernels.mxv Dtype.Bool Jit.Op_spec.logical ~transpose:true graph
            fv
        in
        let out = Array.make (Entries.length t) 0 in
        let k = ref 0 in
        Entries.iter
          (fun i _ ->
            if not visited.(i) then begin
              out.(!k) <- i;
              incr k
            end)
          t;
        Array.sub out 0 !k
      end
    in
    frontier := next
  done;
  Svector.of_dense_unsafe Dtype.Int64 ~vals:levels_v ~valid:visited

(* Layout-aware dispatch between the two pipelines above. *)
let native graph ~src =
  if Format_stats.enabled () then native_dense graph ~src
  else native_sparse graph ~src

(* Tier "PyGB": deferred expressions + context stack (paper Fig. 2b). *)
let dsl graph ~src =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let n = fst (Container.shape graph) in
  let frontier =
    Container.vector_coo ~dtype:(Dtype.P Dtype.Bool) ~size:n [ (src, 1.0) ]
  in
  let levels = Container.vector_empty ~dtype:(Dtype.P Dtype.Int64) n in
  let depth = ref 0 in
  while Container.nvals frontier > 0 do
    incr depth;
    (* levels[front][:] = depth *)
    Ops.assign_scalar ~mask:(Ops.Mask frontier) levels (float_of_int !depth);
    (* with gb.LogicalSemiring, gb.Replace:
         frontier[~levels] = graph.T @ frontier *)
    Context.with_ops
      [ Context.semiring "Logical"; Context.replace ]
      (fun () ->
        Ops.set ~mask:(~~levels) frontier (tr !!graph @. !!frontier))
  done;
  levels

(* Tier 1: the same program interpreted by the MiniVM. *)
let vm_program : Minivm.Ast.block =
  let open Minivm.Ast in
  [ Def
      ( "bfs",
        [ "graph"; "frontier"; "levels" ],
        [ Assign ("depth", Const (Minivm.Value.Int 0));
          While
            ( Binary
                (">", Attr (Var "frontier", "nvals"), Const (Minivm.Value.Int 0)),
              [ Assign ("depth", Binary ("+", Var "depth", Const (Minivm.Value.Int 1)));
                (* levels[front][:] = depth *)
                SetIndex
                  (Index (Var "levels", Var "frontier"), Var "AllIndices", Var "depth");
                (* with gb.LogicalSemiring, gb.Replace: ... *)
                With
                  ( [ Call (Var "Semiring", [ Const (Minivm.Value.Str "Logical") ]);
                      Var "Replace" ],
                    [ SetIndex
                        ( Var "frontier",
                          Unary ("~", Var "levels"),
                          Binary ("@", Attr (Var "graph", "T"), Var "frontier")
                        ) ] ) ] );
          Return (Var "levels") ] ) ]

let vm_loops graph ~src =
  let open Ogb in
  let n = fst (Container.shape graph) in
  let frontier =
    Container.vector_coo ~dtype:(Dtype.P Dtype.Bool) ~size:n [ (src, 1.0) ]
  in
  let levels = Container.vector_empty ~dtype:(Dtype.P Dtype.Int64) n in
  match
    Vm_runtime.call_program vm_program "bfs"
      [ Ogb.Vm_bridge.wrap_container graph;
        Ogb.Vm_bridge.wrap_container frontier;
        Ogb.Vm_bridge.wrap_container levels ]
  with
  | Minivm.Value.Foreign (Ogb.Vm_bridge.Cont c) -> c
  | _ -> levels

(* Tier 2: one interpreted call into the whole compiled algorithm. *)
let vm_whole graph ~src =
  let kernel =
    Vm_runtime.whole_algorithm ~name:"bfs" ~dtype:"bool" (fun () ->
        Obj.repr (fun (g, s) -> native g ~src:s))
  in
  let f : bool Smatrix.t * int -> int Svector.t = Obj.obj kernel in
  let env = Vm_runtime.fresh_env () in
  Minivm.Env.define env "bfs_compiled"
    (Minivm.Value.Builtin
       ( "bfs_compiled",
         fun args ->
           match args with
           | [ g; Minivm.Value.Int s ] ->
             let c = Ogb.Vm_bridge.unwrap_container g in
             let c =
               if Ogb.Container.dtype_name c = "bool" then c
               else Ogb.Container.cast (Dtype.P Dtype.Bool) c
             in
             let m = Ogb.Container.as_matrix Dtype.Bool c in
             Ogb.Vm_bridge.wrap_container
               (Ogb.Container.of_svector (f (m, s)))
           | _ -> raise (Minivm.Value.Type_error "bfs_compiled: bad arguments")
       ));
  let open Minivm.Ast in
  let program =
    [ Assign ("result", Call (Var "bfs_compiled", [ Var "g"; Var "s" ])) ]
  in
  Minivm.Env.define env "g" (Ogb.Vm_bridge.wrap_container graph);
  Minivm.Env.define env "s" (Minivm.Value.Int src);
  Minivm.Interp.exec_block env program;
  Ogb.Vm_bridge.unwrap_container (Minivm.Env.lookup env "result")

let levels_of_svector levels =
  List.rev (Svector.fold (fun acc i d -> (i, d) :: acc) [] levels)

let levels_of_container c =
  List.map
    (fun (i, x) -> (i, int_of_float x))
    (Ogb.Container.vector_entries c)
