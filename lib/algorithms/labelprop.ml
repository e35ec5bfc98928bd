open Gbtl

(* Synchronous label propagation: every vertex simultaneously adopts the
   label that occurs most often among its neighbours, ties broken toward
   the smallest label, isolated vertices keep their label.  The update is
   a pure function of the label vector, so stopping at a fixpoint is
   bit-identical to running out the round budget; graphs that oscillate
   (bipartite structures under synchronous updates) are cut off after
   [rounds] sweeps in every tier.

   The algebraic form runs entirely in the Arithmetic/Max semirings over
   Int64 with an argmax encoding:

     onehot[v, labels v] = 1                (host-side scatter)
     counts = A (+.x) onehot                (neighbour label histogram)
     enc    = counts*(n+1) (+) counts (+.2nd) D   with D[l,l] = n - l
     best   = reduce_rows Max enc
     labels v = n - (best v mod (n+1))      (host-side decode)

   enc packs (count, n - label) into one Int64 so one Max reduction picks
   the largest count and, on ties, the smallest label.

   Each statement of enc is one pass over counts, with no new operator:
   the apply shares counts' pattern, the product with the full diagonal D
   is A(i,k) (.2nd) D(k,k) per stored entry and shares it too, and the
   eWiseAdd of two operands over that one shared pattern computes values
   only (DESIGN §3, "Results that keep an operand's pattern share it").
   In round 1 the one-hot is the identity, so counts = A (+.x) onehot
   takes the same diagonal pass. *)

let default_rounds = 16

(* Tier 3 reference: plain adjacency-list sweeps with the same argmax
   tie-break. *)
let native ?(rounds = default_rounds) graph =
  let n = Smatrix.nrows graph in
  let adj = Array.make n [] in
  Smatrix.iter (fun i j _ -> adj.(i) <- j :: adj.(i)) graph;
  let labels = Array.init n Fun.id in
  let next = Array.make n 0 in
  let cnt = Array.make n 0 in
  let round = ref 0 in
  let changed = ref true in
  while !changed && !round < rounds do
    incr round;
    changed := false;
    for v = 0 to n - 1 do
      match adj.(v) with
      | [] -> next.(v) <- labels.(v)
      | neighbours ->
        let touched = ref [] in
        List.iter
          (fun u ->
            let l = labels.(u) in
            if cnt.(l) = 0 then touched := l :: !touched;
            cnt.(l) <- cnt.(l) + 1)
          neighbours;
        let best_c = ref 0 and best_l = ref 0 in
        List.iter
          (fun l ->
            if cnt.(l) > !best_c || (cnt.(l) = !best_c && l < !best_l) then begin
              best_c := cnt.(l);
              best_l := l
            end;
            cnt.(l) <- 0)
          !touched;
        next.(v) <- !best_l
    done;
    for v = 0 to n - 1 do
      if next.(v) <> labels.(v) then begin
        changed := true;
        labels.(v) <- next.(v)
      end
    done
  done;
  let out = Svector.create Dtype.Int64 n in
  Array.iteri (fun v l -> Svector.set out v l) labels;
  out

(* The DSL body shared by the blocking and nonblocking tiers. *)
let run ?(rounds = default_rounds) graph =
  let open Ogb in
  let open Ogb.Ops.Infix in
  let n = fst (Container.shape graph) in
  let nf = float_of_int n in
  let adj = Container.cast (Dtype.P Dtype.Int64) graph in
  let labels =
    Container.vector_coo ~dtype:(Dtype.P Dtype.Int64) ~size:n
      (List.init n (fun v -> (v, float_of_int v)))
  in
  (* D[l,l] = n - l: the tie-break diagonal of the argmax encoding *)
  let diag =
    Container.matrix_coo ~dtype:(Dtype.P Dtype.Int64) ~nrows:n ~ncols:n
      (List.init n (fun l -> (l, l, nf -. float_of_int l)))
  in
  let onehot = Container.matrix_empty ~dtype:(Dtype.P Dtype.Int64) n n in
  let counts = Container.matrix_empty ~dtype:(Dtype.P Dtype.Int64) n n in
  let enc = Container.matrix_empty ~dtype:(Dtype.P Dtype.Int64) n n in
  let best = Container.vector_empty ~dtype:(Dtype.P Dtype.Int64) n in
  let round = ref 0 in
  let changed = ref true in
  while !changed && !round < rounds do
    incr round;
    let before = Container.dup labels in
    Vm_bridge.label_onehot_into labels onehot;
    Context.with_ops
      [ Context.semiring "Arithmetic" ]
      (fun () -> Ops.set counts (!!adj @. !!onehot));
    (* enc = counts*(n+1) (+) tie-break term *)
    let scaled =
      Context.with_ops
        [ Context.unary_bound ~op:"Times" (nf +. 1.0) ]
        (fun () -> Ops.apply !!counts)
    in
    let tieb =
      Context.with_ops
        [ Context.custom_semiring ~add_op:"Plus" ~add_identity:"Zero"
            ~mul_op:"Second" ]
        (fun () -> !!counts @. !!diag)
    in
    Context.with_ops
      [ Context.binary "Plus" ]
      (fun () -> Ops.set enc (scaled +: tieb));
    Context.with_ops
      [ Context.monoid ~op:"Max" ~identity:"MaxIdentity" ]
      (fun () -> Ops.set best (Ops.reduce_rows !!enc));
    Vm_bridge.label_decode_into best labels;
    changed := not (Container.equal before labels)
  done;
  (labels, !round)

(* Tier "PyGB": the deferred-expression program under the blocking
   evaluator. *)
let dsl ?rounds graph = run ?rounds graph

(* The same body under the nonblocking engine: every statement lowers to
   a plan DAG (mxm, apply, eWiseAdd, reduce_rows) before materializing. *)
let nonblocking ?rounds graph =
  Exec.with_mode Exec.Nonblocking (fun () -> run ?rounds graph)

(* Tier 1: the same program interpreted by the MiniVM. *)
let vm_program : Minivm.Ast.block =
  let open Minivm.Ast in
  let str s = Const (Minivm.Value.Str s) in
  let int i = Const (Minivm.Value.Int i) in
  [ Def
      ( "labelprop",
        [ "graph"; "diag"; "labels"; "rounds" ],
        [ Assign ("n", Index (Attr (Var "graph", "shape"), int 0));
          Assign ("scale", Binary ("+", Var "n", int 1));
          Assign ("onehot", Call (Var "Matrix", [ Var "n"; Var "n"; str "int64_t" ]));
          Assign ("counts", Call (Var "Matrix", [ Var "n"; Var "n"; str "int64_t" ]));
          Assign ("enc", Call (Var "Matrix", [ Var "n"; Var "n"; str "int64_t" ]));
          Assign ("best", Call (Var "Vector", [ Var "n"; str "int64_t" ]));
          For
            ( "i",
              Var "rounds",
              [ Assign ("before", Method (Var "labels", "dup", []));
                ExprStmt (Call (Var "label_onehot", [ Var "labels"; Var "onehot" ]));
                With
                  ( [ Call (Var "Semiring", [ str "Arithmetic" ]) ],
                    [ SetIndex
                        ( Var "counts",
                          Const Minivm.Value.Nil,
                          Binary ("@", Var "graph", Var "onehot") ) ] );
                With
                  ( [ Call (Var "UnaryOp", [ str "Times"; Var "scale" ]) ],
                    [ Assign ("scaled", Call (Var "apply", [ Var "counts" ])) ]
                  );
                With
                  ( [ Call (Var "Semiring", [ str "Plus"; str "Zero"; str "Second" ]) ],
                    [ Assign ("tieb", Binary ("@", Var "counts", Var "diag")) ]
                  );
                With
                  ( [ Call (Var "BinaryOp", [ str "Plus" ]) ],
                    [ SetIndex
                        ( Var "enc",
                          Const Minivm.Value.Nil,
                          Binary ("+", Var "scaled", Var "tieb") ) ] );
                With
                  ( [ Call (Var "Monoid", [ str "Max"; str "MaxIdentity" ]) ],
                    [ SetIndex
                        ( Var "best",
                          Const Minivm.Value.Nil,
                          Call (Var "reduce_rows", [ Var "enc" ]) ) ] );
                ExprStmt (Call (Var "label_decode", [ Var "best"; Var "labels" ]));
                If
                  ( Method (Var "labels", "isequal", [ Var "before" ]),
                    [ Break ],
                    [] ) ] );
          Return (Var "labels") ] ) ]

let seed_labels n =
  Ogb.Container.vector_coo ~dtype:(Dtype.P Dtype.Int64) ~size:n
    (List.init n (fun v -> (v, float_of_int v)))

let tie_break_diagonal n =
  let nf = float_of_int n in
  Ogb.Container.matrix_coo ~dtype:(Dtype.P Dtype.Int64) ~nrows:n ~ncols:n
    (List.init n (fun l -> (l, l, nf -. float_of_int l)))

let vm_loops ?(rounds = default_rounds) graph =
  let n = fst (Ogb.Container.shape graph) in
  let adj = Ogb.Container.cast (Dtype.P Dtype.Int64) graph in
  let labels = seed_labels n in
  match
    Vm_runtime.call_program vm_program "labelprop"
      [ Ogb.Vm_bridge.wrap_container adj;
        Ogb.Vm_bridge.wrap_container (tie_break_diagonal n);
        Ogb.Vm_bridge.wrap_container labels;
        Minivm.Value.Int rounds ]
  with
  | Minivm.Value.Foreign (Ogb.Vm_bridge.Cont c) -> c
  | _ -> labels

let community_count labels =
  let seen = Hashtbl.create 16 in
  Svector.iter (fun _ l -> Hashtbl.replace seen l ()) labels;
  Hashtbl.length seen
