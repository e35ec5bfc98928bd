open Gbtl
module C = Ogb.Container
open Vm_abstract

type entry = {
  name : string;
  program : Minivm.Ast.block;
  entrypoint : string;
  args : int -> Vm_abstract.aval list;
}

(* Stand-in arguments mirror each algorithm's [vm_loops] driver:
   container dtypes, seed entries, and scalar defaults must match for
   the captured operator names (bound constants in particular) to render
   identically. *)

let bfs =
  { name = "bfs";
    program = Algorithms.Bfs.vm_program;
    entrypoint = "bfs";
    args =
      (fun n ->
        [ VCont (C.matrix_empty ~dtype:(Dtype.P Dtype.Bool) n n);
          VCont
            (C.vector_coo ~dtype:(Dtype.P Dtype.Bool) ~size:n [ (0, 1.0) ]);
          VCont (C.vector_empty ~dtype:(Dtype.P Dtype.Int64) n) ]) }

let pagerank =
  { name = "pagerank";
    program = Algorithms.Pagerank.vm_program;
    entrypoint = "page_rank";
    args =
      (fun n ->
        let f64 = Dtype.P Dtype.FP64 in
        [ VCont (C.matrix_empty ~dtype:f64 n n);
          VCont (C.matrix_empty ~dtype:f64 n n);
          VCont (C.vector_empty ~dtype:f64 n);
          VCont (C.vector_empty ~dtype:f64 n);
          VCont (C.vector_empty ~dtype:f64 n);
          VNum (Some 0.85);
          VNum (Some 1.e-5);
          VNum (Some 100000.);
          VNum (Some (float_of_int n)) ]) }

let sssp =
  { name = "sssp";
    program = Algorithms.Sssp.vm_program;
    entrypoint = "sssp";
    args =
      (fun n ->
        [ VCont (C.matrix_empty ~dtype:(Dtype.P Dtype.FP64) n n);
          VCont (C.vector_coo ~size:n [ (0, 0.0) ]) ]) }

let tc =
  { name = "tc";
    program = Algorithms.Triangle.vm_program;
    entrypoint = "triangle_count";
    args =
      (fun n ->
        [ VCont (C.matrix_empty ~dtype:(Dtype.P Dtype.Int64) n n);
          VCont (C.matrix_empty ~dtype:(Dtype.P Dtype.Int64) n n) ]) }

let cc =
  { name = "cc";
    program = Algorithms.Connected_components.vm_program;
    entrypoint = "cc";
    args =
      (fun n ->
        [ VCont (C.matrix_empty ~dtype:(Dtype.P Dtype.Bool) n n);
          VCont
            (C.vector_coo ~dtype:(Dtype.P Dtype.Int64) ~size:n
               (List.init n (fun v -> (v, float_of_int v)))) ]) }

let labelprop =
  { name = "labelprop";
    program = Algorithms.Labelprop.vm_program;
    entrypoint = "labelprop";
    args =
      (fun n ->
        let i64 = Dtype.P Dtype.Int64 in
        [ VCont (C.matrix_empty ~dtype:i64 n n);
          VCont (Algorithms.Labelprop.tie_break_diagonal n);
          VCont (Algorithms.Labelprop.seed_labels n);
          VNum (Some (float_of_int Algorithms.Labelprop.default_rounds)) ]) }

let ktruss =
  { name = "ktruss";
    program = Algorithms.Ktruss.vm_program;
    entrypoint = "ktruss";
    args =
      (fun n ->
        let i64 = Dtype.P Dtype.Int64 in
        [ VCont (C.matrix_empty ~dtype:i64 n n);
          VCont (C.matrix_empty ~dtype:i64 n n);
          VNum (Some 1.0);
          VNum (Some (float_of_int Algorithms.Ktruss.default_rounds)) ]) }

let bc =
  { name = "bc";
    program = Algorithms.Bc.vm_program;
    entrypoint = "bc";
    args =
      (fun n ->
        let f64 = Dtype.P Dtype.FP64 in
        let i64 = Dtype.P Dtype.Int64 in
        [ VCont (C.matrix_empty ~dtype:f64 n n);
          VCont (C.vector_coo ~dtype:f64 ~size:n [ (0, 1.0) ]);
          VCont (C.vector_coo ~dtype:f64 ~size:n [ (0, 1.0) ]);
          VCont (C.vector_empty ~dtype:i64 n);
          VCont (C.vector_dense ~dtype:f64 (List.init n (fun _ -> 1.0)));
          VCont (C.vector_empty ~dtype:f64 n);
          VCont (C.vector_empty ~dtype:f64 n);
          VCont (C.vector_empty ~dtype:f64 n);
          VCont (C.vector_empty ~dtype:i64 n);
          VCont (C.vector_empty ~dtype:i64 n) ]) }

let all = [ bfs; pagerank; sssp; tc; cc; labelprop; ktruss; bc ]

let find name = List.find_opt (fun e -> e.name = name) all

let signatures e ~n =
  Vm_abstract.signatures e.program ~entry:e.entrypoint ~args:(e.args n)
