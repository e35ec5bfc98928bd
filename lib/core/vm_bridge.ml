open Minivm

type Value.foreign +=
  | Cont of Container.t
  | Ex of Expr.t
  | Op_entry of Context.entry
  | Mask_arg of Ops.mask
  | All_indices
  | Masked_view of Container.t * Ops.mask option

let terr fmt = Printf.ksprintf (fun s -> raise (Value.Type_error s)) fmt

let wrap_container c = Value.Foreign (Cont c)

let unwrap_container = function
  | Value.Foreign (Cont c) -> c
  | v -> terr "expected a container, got %s" (Value.type_name v)

(* Lift a VM value into a deferred expression. *)
let as_expr = function
  | Value.Foreign (Cont c) -> Some (Expr.of_container c)
  | Value.Foreign (Ex e) -> Some e
  | _ -> None

let as_mask = function
  | Value.Nil -> None
  | Value.Foreign (Cont c) -> Some (Ops.Mask c)
  | Value.Foreign (Mask_arg m) -> Some m
  | v -> terr "invalid mask argument: %s" (Value.type_name v)

let as_number = function
  | Value.Int i -> Some (float_of_int i)
  | Value.Float f -> Some f
  | _ -> None

let foreign_binary op a b =
  match as_expr a, as_expr b with
  | Some ea, Some eb -> (
    match op with
    | "@" -> Some (Value.Foreign (Ex (Expr.matmul ea eb)))
    | "+" -> Some (Value.Foreign (Ex (Expr.add ea eb)))
    | "*" -> Some (Value.Foreign (Ex (Expr.mult ea eb)))
    | _ -> None)
  | _, _ -> None

let foreign_unary op v =
  match op, v with
  | "~", Value.Foreign (Cont c) -> Some (Value.Foreign (Mask_arg (Ops.Mask_complement c)))
  | "-", _ -> (
    match as_expr v with
    | Some e ->
      Some
        (Value.Foreign
           (Ex (Expr.apply ~f:(Jit.Op_spec.Named "AdditiveInverse") e)))
    | None -> None)
  | _, _ -> None

let foreign_attr f name =
  match f, name with
  | Cont c, "T" -> Some (Value.Foreign (Ex (Expr.transpose (Expr.of_container c))))
  | Ex e, "T" -> Some (Value.Foreign (Ex (Expr.transpose e)))
  | Cont c, "nvals" -> Some (Value.Int (Container.nvals c))
  | Cont c, "size" -> Some (Value.Int (Container.size c))
  | Cont c, "shape" ->
    let r, cl = Container.shape c in
    Some (Value.List (ref [| Value.Int r; Value.Int cl |]))
  | Cont c, "dtype" -> Some (Value.Str (Container.dtype_name c))
  | _, _ -> None

let foreign_method f name args =
  match f, name, args with
  | Cont c, "dup", [] -> Some (wrap_container (Container.dup c))
  | Cont c, "isequal", [ Value.Foreign (Cont other) ] ->
    (* host-side structural comparison (python-graphblas's isequal): the
       fixpoint test of the iterative programs, no kernel dispatch *)
    Some (Value.Bool (Container.equal c other))
  | Cont c, "clear", [] ->
    Container.clear c;
    Some Value.Nil
  | Cont c, "get", [ Value.Int i ] ->
    Some
      (match Container.get_vector_element c i with
      | Some x -> Value.Float x
      | None -> Value.Nil)
  | Cont c, "set", [ Value.Int i; v ] -> (
    match as_number v with
    | Some x ->
      Container.set_vector_element c i x;
      Some Value.Nil
    | None -> None)
  | Cont c, "update", [ m; v ] -> (
    (* C[m] += expr — Python's __iadd__ through __setitem__ *)
    match as_expr v with
    | Some e ->
      Ops.update ?mask:(as_mask m) c e;
      Some Value.Nil
    | None -> (
      match as_number v with
      | Some _ -> terr "+= with a scalar is not a GraphBLAS operation"
      | None -> None))
  | _, _, _ -> None

let foreign_index_get f key =
  match f, key with
  | Cont c, Value.Int i ->
    Some
      (match Container.get_vector_element c i with
      | Some x -> Value.Float x
      | None -> Value.Nil)
  | Cont c, (Value.Nil | Value.Foreign (Cont _) | Value.Foreign (Mask_arg _))
    ->
    Some (Value.Foreign (Masked_view (c, as_mask key)))
  | Cont c, Value.Foreign All_indices ->
    Some (Value.Foreign (Masked_view (c, None)))
  | _, _ -> None

let do_set target mask value =
  match value with
  | Value.Foreign (Ex e) -> Ops.set ?mask target e
  | Value.Foreign (Cont c) -> Ops.set ?mask target (Expr.of_container c)
  | v -> (
    match as_number v with
    | Some s -> Ops.assign_scalar ?mask target s
    | None -> terr "cannot assign %s into a container" (Value.type_name v))

let foreign_index_set f key value =
  match f, key with
  | Cont c, (Value.Nil | Value.Foreign All_indices) ->
    do_set c None value;
    true
  | Cont c, (Value.Foreign (Cont _) | Value.Foreign (Mask_arg _)) ->
    do_set c (as_mask key) value;
    true
  | Cont c, Value.Int i -> (
    match as_number value with
    | Some x ->
      Container.set_vector_element c i x;
      true
    | None -> false)
  | Masked_view (c, m), (Value.Nil | Value.Foreign All_indices) ->
    do_set c m value;
    true
  | _, _ -> false

let context_enter = function
  | Value.Foreign (Op_entry e) ->
    Context.push e;
    true
  | _ -> false

let context_exit = function
  | Value.Foreign (Op_entry _) -> Context.pop ()
  | _ -> ()

(* Host-side glue shared by the label-propagation DSL tier and the VM
   builtins of the same names: the one-hot scatter and the
   argmax-encoding decode are library writes (no kernels), and both
   tiers must perform them identically for bit-identity. *)

let select_predicate name threshold =
  match name with
  | "gt" -> Gbtl.Select.Value_gt threshold
  | "ge" -> Gbtl.Select.Value_ge threshold
  | "eq" -> Gbtl.Select.Value_eq threshold
  | s -> terr "select: unknown predicate %S (gt, ge, eq)" s

(* onehot[v, labels v] = 1, built as CSR arrays in one pass over the
   labels: ascending v, at most one entry per row. *)
let label_onehot_into labels onehot =
  match labels, onehot with
  | Container.Vec (ldt, lv), Container.Mat (dt, m) ->
    let open Gbtl in
    let nrows = Smatrix.nrows m and ncols = Smatrix.ncols m in
    let rowptr = Array.make (nrows + 1) 0 in
    let colidx = Array.make (Svector.nvals lv) 0 in
    let k = ref 0 in
    Svector.iter
      (fun v l ->
        let l = int_of_float (Dtype.to_float ldt l) in
        if v >= nrows || l < 0 || l >= ncols then
          raise
            (Smatrix.Index_out_of_bounds
               (Printf.sprintf "label_onehot: (%d, %d) outside %dx%d" v l
                  nrows ncols));
        colidx.(!k) <- l;
        incr k;
        rowptr.(v + 1) <- 1)
      lv;
    for r = 1 to nrows do
      rowptr.(r) <- rowptr.(r) + rowptr.(r - 1)
    done;
    Smatrix.adopt m
      (Smatrix.of_csr_unsafe dt ~nrows ~ncols ~rowptr ~colidx
         ~values:(Array.make !k (Dtype.of_float dt 1.0)))
  | _ -> raise (Container.Kind_error "label_onehot: expected (vector, matrix)")

(* labels v = n - (best v mod (n + 1)) for every stored best v, written
   in one pass over best. *)
let label_decode_into best labels =
  match best, labels with
  | Container.Vec (bdt, bv), Container.Vec (ldt, lv) ->
    let open Gbtl in
    let n = Svector.size lv in
    Svector.iter
      (fun v b ->
        let l = n - (int_of_float (Dtype.to_float bdt b) mod (n + 1)) in
        Svector.set lv v (Dtype.of_float ldt (float_of_int l)))
      bv
  | _ -> raise (Container.Kind_error "label_decode: expected two vectors")

let hooks =
  { Interp.foreign_binary;
    foreign_unary;
    foreign_attr;
    foreign_method;
    foreign_index_get;
    foreign_index_set;
    context_enter;
    context_exit }

let expr_arg = function
  | [ v ] -> (
    match as_expr v with
    | Some e -> e
    | None -> terr "expected a container or expression")
  | _ -> terr "expected one argument"

let install env =
  Interp.set_hooks hooks;
  (Value.foreign_printer :=
     function
     | Cont c -> Some (Container.to_string c)
     | Ex _ -> Some "<deferred expression>"
     | Op_entry _ -> Some "<operator>"
     | Mask_arg _ -> Some "<mask>"
     | All_indices -> Some "<all-indices>"
     | Masked_view _ -> Some "<masked view>"
     | _ -> None);
  let def name f = Env.define env name (Value.Builtin (name, f)) in
  def "Vector" (function
    | [ Value.Int n ] -> wrap_container (Container.vector_empty n)
    | [ Value.Int n; Value.Str dt ] ->
      wrap_container (Container.vector_empty ~dtype:(Gbtl.Dtype.of_name dt) n)
    | [ Value.List items ] ->
      wrap_container
        (Container.vector_dense
           (Array.to_list
              (Array.map
                 (fun v ->
                   match as_number v with
                   | Some x -> x
                   | None -> terr "Vector: expected numbers")
                 !items)))
    | _ -> terr "Vector: bad arguments");
  def "Matrix" (function
    | [ Value.Int r; Value.Int c ] -> wrap_container (Container.matrix_empty r c)
    | [ Value.Int r; Value.Int c; Value.Str dt ] ->
      wrap_container
        (Container.matrix_empty ~dtype:(Gbtl.Dtype.of_name dt) r c)
    | _ -> terr "Matrix: bad arguments");
  def "Semiring" (function
    | [ Value.Str name ] -> Value.Foreign (Op_entry (Context.semiring name))
    | [ Value.Str add; Value.Str identity; Value.Str mul ] ->
      Value.Foreign
        (Op_entry
           (Context.custom_semiring ~add_op:add ~add_identity:identity
              ~mul_op:mul))
    | _ -> terr "Semiring: bad arguments");
  def "Monoid" (function
    | [ Value.Str op; Value.Str identity ] ->
      Value.Foreign (Op_entry (Context.monoid ~op ~identity))
    | _ -> terr "Monoid: bad arguments");
  def "BinaryOp" (function
    | [ Value.Str op ] -> Value.Foreign (Op_entry (Context.binary op))
    | _ -> terr "BinaryOp: bad arguments");
  def "UnaryOp" (function
    | [ Value.Str op ] -> Value.Foreign (Op_entry (Context.unary op))
    | [ Value.Str op; v ] -> (
      match as_number v with
      | Some k -> Value.Foreign (Op_entry (Context.unary_bound ~op k))
      | None -> terr "UnaryOp: bound constant must be a number")
    | _ -> terr "UnaryOp: bad arguments");
  def "Accumulator" (function
    | [ Value.Str op ] -> Value.Foreign (Op_entry (Context.accum op))
    | _ -> terr "Accumulator: bad arguments");
  Env.define env "Replace" (Value.Foreign (Op_entry Context.replace));
  Env.define env "NoMask" Value.Nil;
  Env.define env "AllIndices" (Value.Foreign All_indices);
  def "reduce" (fun args -> Value.Float (Ops.reduce (expr_arg args)));
  def "apply" (fun args -> Value.Foreign (Ex (Ops.apply (expr_arg args))));
  def "reduce_rows" (fun args ->
      Value.Foreign (Ex (Ops.reduce_rows (expr_arg args))));
  def "normalize_rows" (function
    | [ Value.Foreign (Cont (Container.Mat (Gbtl.Dtype.FP64, m))) ] ->
      Gbtl.Utilities.normalize_rows m;
      Value.Nil
    | _ -> terr "normalize_rows: expected a double matrix");
  def "select" (function
    | [ Value.Str pred; k; e ] -> (
      match as_number k, as_expr e with
      | Some threshold, Some e ->
        Value.Foreign (Ex (Ops.select (select_predicate pred threshold) e))
      | _, _ -> terr "select: expected (predicate, threshold, expression)")
    | _ -> terr "select: bad arguments");
  def "label_onehot" (function
    | [ Value.Foreign (Cont labels); Value.Foreign (Cont onehot) ] ->
      label_onehot_into labels onehot;
      Value.Nil
    | _ -> terr "label_onehot: expected (labels vector, one-hot matrix)");
  def "label_decode" (function
    | [ Value.Foreign (Cont best); Value.Foreign (Cont labels) ] ->
      label_decode_into best labels;
      Value.Nil
    | _ -> terr "label_decode: expected (encoded vector, labels vector)")

(* Static registry of the bridge surface for the analyzer's scope/arity
   checker (lib/analysis).  Kept in sync with [install] and the hooks
   above; the checker treats any attr/method/arity outside these lists
   as a defect before the program runs. *)

let known_attrs = [ "T"; "nvals"; "size"; "shape"; "dtype" ]

let known_methods =
  [ ("dup", [ 0 ]); ("isequal", [ 1 ]); ("clear", [ 0 ]); ("get", [ 1 ]);
    ("set", [ 2 ]); ("update", [ 2 ]) ]

let builtin_arities =
  [ ("Vector", [ 1; 2 ]); ("Matrix", [ 2; 3 ]); ("Semiring", [ 1; 3 ]);
    ("Monoid", [ 2 ]); ("BinaryOp", [ 1 ]); ("UnaryOp", [ 1; 2 ]);
    ("Accumulator", [ 1 ]); ("reduce", [ 1 ]); ("apply", [ 1 ]);
    ("reduce_rows", [ 1 ]); ("normalize_rows", [ 1 ]); ("select", [ 3 ]);
    ("label_onehot", [ 2 ]); ("label_decode", [ 2 ]) ]
