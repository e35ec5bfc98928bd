(* Shared test utilities: qcheck generators for sparse containers, masks
   and operator parameters, plus alcotest testables. *)

open Gbtl

let svector_testable dt =
  ignore dt;
  Alcotest.testable (fun fmt v -> Svector.pp fmt v) Svector.equal

let smatrix_testable dt =
  ignore dt;
  Alcotest.testable (fun fmt m -> Smatrix.pp fmt m) Smatrix.equal

(* -- Generators (QCheck v1 API) -- *)

let small_float_gen =
  (* Small integral floats: keeps every semiring exact so result
     comparison needs no tolerance. *)
  QCheck.Gen.map float_of_int (QCheck.Gen.int_range (-4) 4)

let entry_gen = small_float_gen

(* A sparse float vector of the given size with ~density fraction stored. *)
let vec_gen ?(density = 0.4) size =
  let open QCheck.Gen in
  list_repeat size (option ~ratio:density entry_gen)
  >|= fun cells -> Array.of_list cells

let mat_gen ?(density = 0.3) nrows ncols =
  let open QCheck.Gen in
  list_repeat nrows (vec_gen ~density ncols) >|= Array.of_list

let vmask_gen size =
  let open QCheck.Gen in
  oneof
    [ return Mask.No_vmask;
      (pair (list_repeat size bool) bool >|= fun (bits, compl_) ->
       Mask.Vmask { dense = Array.of_list bits; complemented = compl_ });
    ]

let mmask_gen nrows ncols =
  let open QCheck.Gen in
  oneof
    [ return Mask.No_mmask;
      ( pair (list_repeat (nrows * ncols) (option ~ratio:0.5 bool)) bool
      >|= fun (cells, compl_) ->
        let triples = ref [] in
        List.iteri
          (fun k cell ->
            match cell with
            | Some b -> triples := (k / ncols, k mod ncols, b) :: !triples
            | None -> ())
          cells;
        Mask.Mmask
          { m = Smatrix.of_coo Dtype.Bool nrows ncols !triples;
            complemented = compl_ } );
    ]

let accum_gen =
  let open QCheck.Gen in
  oneof
    [ return None;
      return (Some (Binop.plus Dtype.FP64));
      return (Some (Binop.min Dtype.FP64));
      return (Some (Binop.second Dtype.FP64));
    ]

let semiring_gen =
  let open QCheck.Gen in
  oneofl
    [ Semiring.arithmetic Dtype.FP64;
      Semiring.min_plus Dtype.FP64;
      Semiring.max_times Dtype.FP64;
      Semiring.min_select2nd Dtype.FP64;
    ]

let binop_gen =
  let open QCheck.Gen in
  oneofl
    (List.map (fun n -> Binop.of_name n Dtype.FP64) Binop.names)

(* Wrap a generator + printer into a QCheck arbitrary. *)
let arb ?print gen = QCheck.make ?print gen

let print_vec (v : float Dense_ref.vec) =
  String.concat ";"
    (Array.to_list
       (Array.map (function None -> "." | Some x -> string_of_float x) v))

let print_mat (m : float Dense_ref.mat) =
  String.concat "\n" (Array.to_list (Array.map print_vec m))

let qtest ?(count = 200) name arbitrary law =
  QCheck.Test.make ~count ~name arbitrary law

let to_alcotest = QCheck_alcotest.to_alcotest

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* The same matrix over arrays with [extra] unused cells past [nvals]:
   every reader must stop at [nvals], never at the array length. *)
let with_slack ?(extra = 3) m =
  let n = Smatrix.nvals m and dt = Smatrix.dtype m in
  let pad a fill = Array.append (Array.sub a 0 n) (Array.make extra fill) in
  Smatrix.of_csr_unsafe dt ~nrows:(Smatrix.nrows m) ~ncols:(Smatrix.ncols m)
    ~rowptr:(Array.copy (Smatrix.unsafe_rowptr m))
    ~colidx:(pad (Smatrix.unsafe_colidx m) 0)
    ~values:(pad (Smatrix.unsafe_values m) (Dtype.one dt))

(* A symmetrized ER graph plus [isolated] vertices with no edges (empty
   rows), as a Bool adjacency over arrays with slack capacity. *)
let padded_adjacency ~seed ~n ~m ~isolated =
  let rng = Graphs.Rng.create ~seed in
  let g =
    Graphs.Edge_list.symmetrize
      (Graphs.Generators.erdos_renyi_gnm rng ~nvertices:n ~nedges:m)
  in
  with_slack
    (Graphs.Convert.bool_adjacency
       { g with Graphs.Edge_list.nvertices = n + isolated })

(* -- Typed matrices for the CSR kernels --
   An integer dense model (None = absent) whose rows are each empty,
   full or sparse, and the dtypes the kernels are written for; [typed]
   converts a model to one of them. *)
let pattern_gen ?(values = QCheck.Gen.int_range (-4) 4) nrows ncols =
  let open QCheck.Gen in
  let row =
    frequency [ (1, return `Empty); (1, return `Full); (4, return `Sparse) ]
    >>= function
    | `Empty -> return (Array.make ncols None)
    | `Full -> array_repeat ncols (map Option.some values)
    | `Sparse -> array_repeat ncols (option ~ratio:0.4 values)
  in
  array_repeat nrows row

let typed_dtypes =
  [ Dtype.P Dtype.Bool; Dtype.P Dtype.Int32; Dtype.P Dtype.Int64;
    Dtype.P Dtype.FP64 ]

let typed (type a) (dt : a Dtype.t) (d : int option array array) :
    a Dense_ref.mat =
  Array.map (Array.map (Option.map (Dtype.of_int dt))) d
