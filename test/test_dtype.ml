open Gbtl

let check = Alcotest.check

let test_names () =
  List.iter
    (fun (Dtype.P dt) ->
      let (Dtype.P dt') = Dtype.of_name (Dtype.name dt) in
      check Alcotest.string "roundtrip via name" (Dtype.name dt)
        (Dtype.name dt');
      let (Dtype.P dt'') = Dtype.of_name (Dtype.short_name dt) in
      check Alcotest.string "roundtrip via short name" (Dtype.name dt)
        (Dtype.name dt''))
    Dtype.all

let test_unknown_name () =
  Alcotest.check_raises "unknown dtype"
    (Invalid_argument "Dtype.of_name: unknown dtype long") (fun () ->
      ignore (Dtype.of_name "long"))

let test_rank_order () =
  let ranks = List.map (fun (Dtype.P dt) -> Dtype.rank dt) Dtype.all in
  check
    Alcotest.(list int)
    "Dtype.all is rank-sorted" (List.sort Int.compare ranks) ranks;
  check Alcotest.int "eleven dtypes" 11 (List.length ranks)

let test_promote () =
  let name_of (Dtype.P dt) = Dtype.name dt in
  check Alcotest.string "int8 + double = double" "double"
    (name_of (Dtype.promote (P Int8) (P FP64)));
  check Alcotest.string "uint32 + int64 = int64" "int64_t"
    (name_of (Dtype.promote (P UInt32) (P Int64)));
  check Alcotest.string "bool + bool = bool" "bool"
    (name_of (Dtype.promote (P Bool) (P Bool)));
  check Alcotest.string "promote is symmetric in rank" "float"
    (name_of (Dtype.promote (P FP32) (P UInt8)))

let test_wrapping () =
  check Alcotest.int "int8 wraps at 127+1" (-128)
    (Dtype.normalize Int8 128);
  check Alcotest.int "uint8 wraps at 255+1" 0 (Dtype.normalize UInt8 256);
  check Alcotest.int "int16 wraps" (-32768) (Dtype.normalize Int16 32768);
  check Alcotest.int "uint16 wraps" 1 (Dtype.normalize UInt16 65537);
  check Alcotest.int "int32 wraps" (-2147483648)
    (Dtype.normalize Int32 2147483648);
  check Alcotest.int "negative uint8 wraps" 255 (Dtype.normalize UInt8 (-1))

let test_fp32_rounding () =
  let x = Dtype.normalize FP32 0.1 in
  Alcotest.check (Alcotest.float 1e-9) "fp32 rounding of 0.1"
    0.100000001490116119 x;
  check Alcotest.bool "fp32 idempotent" true
    (Dtype.normalize FP32 x = x)

let test_casts () =
  check Alcotest.int "double -> int32 truncates" 3
    (Dtype.cast ~from:FP64 ~into:Int32 3.99);
  check Alcotest.int "double -> int8 wraps" (-126)
    (Dtype.cast ~from:FP64 ~into:Int8 130.0);
  check Alcotest.bool "int -> bool truthiness" true
    (Dtype.cast ~from:Int64 ~into:Bool 42);
  check Alcotest.int "bool -> int" 1 (Dtype.cast ~from:Bool ~into:Int32 true);
  check (Alcotest.float 0.0) "int64 -> double" 42.0
    (Dtype.cast ~from:Int64 ~into:FP64 42);
  check Alcotest.int "uint8 255 -> int8 = -1" (-1)
    (Dtype.cast ~from:UInt8 ~into:Int8 255)

let test_uint64 () =
  let max_u64 = Dtype.max_value Dtype.UInt64 in
  check Alcotest.string "uint64 max prints unsigned" "18446744073709551615"
    (Dtype.to_string UInt64 max_u64);
  check Alcotest.int "uint64 compare unsigned" 1
    (Dtype.compare_values UInt64 max_u64 1L);
  check Alcotest.bool "uint64 roundtrip via float is max" true
    (Dtype.equal_values UInt64 max_u64
       (Dtype.of_float UInt64 (Dtype.to_float UInt64 max_u64)))

let test_bounds () =
  check Alcotest.int "int8 range" 127 (Dtype.max_value Dtype.Int8);
  check Alcotest.int "uint32 max" 4294967295 (Dtype.max_value Dtype.UInt32);
  check (Alcotest.float 0.0) "fp64 min is -inf" neg_infinity
    (Dtype.min_value Dtype.FP64);
  List.iter
    (fun (Dtype.P dt) ->
      Alcotest.check Alcotest.bool
        (Dtype.name dt ^ " zero is falsy")
        false
        (Dtype.to_bool dt (Dtype.zero dt));
      Alcotest.check Alcotest.bool
        (Dtype.name dt ^ " one is truthy")
        true
        (Dtype.to_bool dt (Dtype.one dt)))
    Dtype.all

let test_equal_witness () =
  check Alcotest.bool "same dtype" true (Dtype.equal_packed (P Int32) (P Int32));
  check Alcotest.bool "same repr, different dtype" false
    (Dtype.equal_packed (P Int32) (P Int64));
  check Alcotest.bool "different repr" false
    (Dtype.equal_packed (P Bool) (P FP64))

let qcheck_cast_roundtrip =
  Helpers.qtest "int values survive int64 roundtrip for every dtype"
    (QCheck.make QCheck.Gen.(int_range (-100) 100) ~print:string_of_int)
    (fun i ->
      List.for_all
        (fun (Dtype.P dt) ->
          (* casting a small int into a dtype and back through float is
             the identity whenever the value fits *)
          let fits =
            Dtype.to_float dt (Dtype.max_value dt) >= float_of_int (abs i)
            && (Dtype.is_signed dt || i >= 0)
          in
          (not fits)
          || Dtype.to_float dt (Dtype.of_int dt i) = float_of_int i)
        Dtype.all)


(* ---- conversions and operators resolved once per call ---- *)

(* Bitwise equality within one dtype: floats compare by their bits, so
   NaN, -0.0 and FP32 rounding are pinned exactly. *)
let same : type a. a Dtype.t -> a -> a -> bool =
 fun dt x y ->
  let bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  match dt with
  | Bool -> Bool.equal x y
  | Int8 -> Int.equal x y
  | Int16 -> Int.equal x y
  | Int32 -> Int.equal x y
  | Int64 -> Int.equal x y
  | UInt8 -> Int.equal x y
  | UInt16 -> Int.equal x y
  | UInt32 -> Int.equal x y
  | UInt64 -> Int64.equal x y
  | FP32 -> bits x y
  | FP64 -> bits x y

(* The route [Dtype.cast] took one value at a time before the table:
   through floats when either side is one, else through the exact int64
   view. *)
let two_step : type a b. from:a Dtype.t -> into:b Dtype.t -> a -> b =
 fun ~from ~into v ->
  match Dtype.equal_witness from into with
  | Some Dtype.Equal -> v
  | None ->
    if Dtype.is_float into || Dtype.is_float from then
      Dtype.of_float into (Dtype.to_float from v)
    else Dtype.of_int64 into (Dtype.to_int64 from v)

(* One raw value per representation; [value_of] reads a dtype's value
   out of it, unnormalized, so out-of-range inputs are covered too. *)
type sample = { i : int; u : int64; f : float }

let value_of : type a. a Dtype.t -> sample -> a =
 fun dt s ->
  match dt with
  | Bool -> s.i land 1 = 1
  | Int8 -> s.i
  | Int16 -> s.i
  | Int32 -> s.i
  | Int64 -> s.i
  | UInt8 -> s.i
  | UInt16 -> s.i
  | UInt32 -> s.i
  | UInt64 -> s.u
  | FP32 -> s.f
  | FP64 -> s.f

let print_sample s = Printf.sprintf "{i=%d; u=%Lu; f=%h}" s.i s.u s.f

(* Width boundaries of Int8..UInt32, the native int's ends, UInt64 with
   the high bit set, and the float specials. *)
let edge_samples =
  let ints =
    [ 0; 1; -1; 127; 128; -128; -129; 255; 256; 32767; 32768; -32768;
      -32769; 65535; 65536; 2147483647; 2147483648; -2147483648;
      -2147483649; 4294967295; 4294967296; max_int; min_int ]
  and u64s =
    [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x8000_0000_0000_0001L;
      0x0020_0000_0000_0001L; 0x4000_0000_0000_0000L ]
  and floats =
    [ nan; -.nan; infinity; neg_infinity; 0.0; -0.0; 0.5; -0.5; 1.0; -1.0;
      0.1; 127.5; -128.5; 255.9; 65535.5; 2147483647.5; -2147483648.5;
      4294967295.5; 9007199254740993.0; 9.2233720368547758e18;
      -9.2233720368547758e18; 1.8446744073709552e19; 3.4028235677973366e38;
      1e300; -1e300; max_float; min_float; 5e-324; 1e-40 ]
  in
  List.map (fun i -> { i; u = Int64.of_int i; f = float_of_int i }) ints
  @ List.map (fun u -> { i = Int64.to_int u; u; f = Int64.to_float u }) u64s
  @ List.map (fun f -> { i = 0; u = 0L; f }) floats

let sample_gen =
  let open QCheck.Gen in
  let float =
    oneof
      [ float; map float_of_int small_signed_int;
        map (fun x -> x /. 7.0) (map float_of_int int) ]
  in
  oneof
    [ oneofl edge_samples;
      map3 (fun i u f -> { i; u; f }) (oneof [ int; small_signed_int ]) int64
        float ]

(* Every (from, into) pair where the table and the two-step route
   disagree on [s]. *)
let cast_mismatches s =
  List.concat_map
    (fun (Dtype.P from) ->
      let v = value_of from s in
      List.filter_map
        (fun (Dtype.P into) ->
          if same into (Dtype.caster ~from ~into v) (two_step ~from ~into v)
          then None
          else Some (Dtype.short_name from ^ "->" ^ Dtype.short_name into))
        Dtype.all)
    Dtype.all

let test_caster_edges () =
  check Alcotest.int "121 dtype pairs" 121
    (List.length Dtype.all * List.length Dtype.all);
  List.iter
    (fun s ->
      match cast_mismatches s with
      | [] -> ()
      | bad ->
        Alcotest.failf "caster differs on %s: %s" (print_sample s)
          (String.concat ", " bad))
    edge_samples

let qcheck_caster =
  Helpers.qtest ~count:500 "caster ≡ two-step cast over all 121 pairs"
    (QCheck.make sample_gen ~print:print_sample)
    (fun s -> cast_mismatches s = [])

(* [Smatrix.cast]/[Svector.cast] against the per-element cast, on
   containers whose arrays run past [nvals] and on empty ones. *)
let container_cast_mismatches samples =
  let n = List.length samples in
  List.concat_map
    (fun (Dtype.P from) ->
      let vals = List.map (value_of from) samples in
      let triples = List.mapi (fun k x -> (k / 3, (k * 5) mod 7, x)) vals in
      let nrows = (n / 3) + 2 in
      let m =
        Helpers.with_slack (Smatrix.of_coo ~dup:(Binop.second from) from nrows 7
           triples)
      and empty = Helpers.with_slack (Smatrix.create from 3 4) in
      let sparse =
        let alist = List.mapi (fun k x -> (2 * k, x)) vals in
        let idx = Array.of_list (List.map fst alist @ [ 0; 0 ])
        and vs = Array.of_list (List.map snd alist @ [ Dtype.one from ]) in
        Svector.of_sparse_unsafe from ((2 * n) + 1) ~idx
          ~vals:(Array.append vs [| Dtype.one from |]) ~nvals:n
      in
      let dense = Svector.dup sparse in
      Svector.densify dense;
      List.filter_map
        (fun (Dtype.P into) ->
          let conv = Dtype.cast ~from ~into in
          let want_m = List.map (fun (r, c, x) -> (r, c, conv x)) in
          let want_v = List.map (fun (i, x) -> (i, conv x)) in
          let matrices_ok =
            List.for_all
              (fun m ->
                let got = Smatrix.cast ~into m in
                let g = Smatrix.to_coo got and w = want_m (Smatrix.to_coo m) in
                Smatrix.nvals got = Smatrix.nvals m
                && Array.length (Smatrix.unsafe_values got) = Smatrix.nvals m
                && List.for_all2
                     (fun (r, c, x) (r', c', y) -> r = r' && c = c' && same into x y)
                     g w)
              [ m; empty ]
          and vectors_ok =
            List.for_all
              (fun v ->
                let g = Svector.to_alist (Svector.cast ~into v)
                and w = want_v (Svector.to_alist v) in
                List.length g = List.length w
                && List.for_all2 (fun (i, x) (j, y) -> i = j && same into x y) g w)
              [ sparse; dense; Svector.create from 5 ]
          in
          if matrices_ok && vectors_ok then None
          else Some (Dtype.short_name from ^ "->" ^ Dtype.short_name into))
        Dtype.all)
    Dtype.all

let qcheck_container_cast =
  Helpers.qtest ~count:100 "Smatrix/Svector.cast ≡ per-element cast (slack, empty)"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 12) sample_gen)
       ~print:(fun l -> String.concat "; " (List.map print_sample l)))
    (fun samples -> container_cast_mismatches samples = [])

(* The raw operator per representation; [Arith] must equal its
   normalization. *)
type 'a raw = {
  add : 'a -> 'a -> 'a;
  sub : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  div : 'a -> 'a -> 'a;
  neg : 'a -> 'a;
}

let int_raw =
  { add = ( + ); sub = ( - ); mul = ( * );
    div = (fun a b -> if b = 0 then 0 else a / b); neg = ( ~- ) }

let float_raw =
  { add = ( +. ); sub = ( -. ); mul = ( *. ); div = ( /. ); neg = ( ~-. ) }

let raw : type a. a Dtype.t -> a raw = function
  | Bool ->
    { add = ( || ); sub = ( <> ); mul = ( && ); div = (fun a _ -> a);
      neg = Fun.id }
  | Int8 -> int_raw
  | Int16 -> int_raw
  | Int32 -> int_raw
  | Int64 -> int_raw
  | UInt8 -> int_raw
  | UInt16 -> int_raw
  | UInt32 -> int_raw
  | UInt64 ->
    { add = Int64.add; sub = Int64.sub; mul = Int64.mul;
      div = (fun a b -> if b = 0L then 0L else Int64.unsigned_div a b);
      neg = Int64.neg }
  | FP32 -> float_raw
  | FP64 -> float_raw

let arith_mismatches (s, t) =
  List.concat_map
    (fun (Dtype.P dt) ->
      let a = Arith.make dt and r = raw dt and n = Dtype.normalize dt in
      let x = n (value_of dt s) and y = n (value_of dt t) in
      let bin name op rop =
        if same dt (op x y) (n (rop x y)) then [] else [ Dtype.short_name dt ^ "." ^ name ]
      in
      bin "add" a.add r.add @ bin "sub" a.sub r.sub @ bin "mul" a.mul r.mul
      @ bin "div" a.div r.div
      @ if same dt (a.neg x) (n (r.neg x)) then [] else [ Dtype.short_name dt ^ ".neg" ])
    Dtype.all

let qcheck_arith =
  Helpers.qtest ~count:500 "Arith operators ≡ normalize (raw op) for all 11 dtypes"
    (QCheck.make
       QCheck.Gen.(pair sample_gen sample_gen)
       ~print:(fun (s, t) -> print_sample s ^ " " ^ print_sample t))
    (fun st -> arith_mismatches st = [])

(* [Select.accepts] and the mask truthiness against the per-value
   [Dtype.to_float]/[Dtype.to_bool] spelling. *)
let per_value (type a) (dt : a Dtype.t) pred r c (x : a) =
  match pred with
  | Select.Tril k -> c - r <= k
  | Triu k -> c - r >= k
  | Diag -> r = c
  | Offdiag -> r <> c
  | Nonzero -> Dtype.to_bool dt x
  | Value_gt v -> Dtype.to_float dt x > v
  | Value_ge v -> Dtype.to_float dt x >= v
  | Value_lt v -> Dtype.to_float dt x < v
  | Value_le v -> Dtype.to_float dt x <= v
  | Value_eq v -> Dtype.to_float dt x = v
  | Value_ne v -> Dtype.to_float dt x <> v

let predicates v k =
  Select.
    [ Tril k; Triu k; Diag; Offdiag; Nonzero; Value_gt v; Value_ge v;
      Value_lt v; Value_le v; Value_eq v; Value_ne v ]

let predicate_mismatches (samples, v, k) =
  List.concat_map
    (fun (Dtype.P dt) ->
      let values = List.map (value_of dt) samples in
      let select_bad =
        List.exists
          (fun pred ->
            let keep = Select.accepts dt pred in
            List.exists
              (fun x ->
                List.exists
                  (fun (r, c) -> keep r c x <> per_value dt pred r c x)
                  [ (0, 0); (1, 0); (0, 1); (3, 5); (5, 3) ])
              values)
          (predicates v k)
      in
      (* a low-fill vector of 64+ elements takes the sparse mask layout,
         a filled one the dense layout *)
      let mask_bad =
        List.exists
          (fun stride ->
            let size = max 64 (stride * List.length values) in
            let u =
              Svector.of_coo ~dup:(Binop.second dt) dt size
                (List.mapi (fun k x -> (stride * k, x)) values)
            in
            let mask = Mask.vmask u and dense = Svector.to_bool_dense u in
            List.exists
              (fun i ->
                let want =
                  match Svector.get u i with
                  | Some x -> Dtype.to_bool dt x
                  | None -> false
                in
                Mask.v_allowed mask i <> want || dense.(i) <> want)
              (List.init size Fun.id))
          [ 1; 9 ]
      in
      (if select_bad then [ Dtype.short_name dt ^ " select" ] else [])
      @ if mask_bad then [ Dtype.short_name dt ^ " mask" ] else [])
    Dtype.all

let qcheck_predicates =
  Helpers.qtest ~count:200 "select predicates and mask truthiness ≡ per-value spelling"
    (QCheck.make
       QCheck.Gen.(
         triple
           (list_size (int_range 0 10) sample_gen)
           (oneof [ map (fun s -> s.f) sample_gen; oneofl [ nan; 0.0; 1.0 ] ])
           (int_range (-3) 3))
       ~print:(fun (l, v, k) ->
         Printf.sprintf "[%s] v=%h k=%d"
           (String.concat "; " (List.map print_sample l))
           v k))
    (fun case -> predicate_mismatches case = [])

(* [Dtype.truths], the one pass behind a non-Bool matrix mask, against
   the per-value [Dtype.to_bool]; and read back through [Mask.mmask]. *)
let truths_mismatches samples =
  List.filter_map
    (fun (Dtype.P dt) ->
      let values = Array.of_list (List.map (value_of dt) samples) in
      let n = Array.length values in
      let want = Array.map (Dtype.to_bool dt) values in
      let m =
        Smatrix.of_csr_unsafe dt ~nrows:1 ~ncols:n ~rowptr:[| 0; n |]
          ~colidx:(Array.init n Fun.id) ~values
      in
      let allowed = Mask.m_row_cursor (Mask.mmask m) 0 in
      if
        Dtype.truths dt values n = want
        && List.for_all (fun k -> allowed k = want.(k)) (List.init n Fun.id)
      then None
      else Some (Dtype.short_name dt))
    Dtype.all

let qcheck_truths =
  Helpers.qtest ~count:200 "Dtype.truths and matrix mask truthiness ≡ to_bool"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 10) sample_gen)
       ~print:(fun l -> String.concat "; " (List.map print_sample l)))
    (fun samples -> truths_mismatches samples = [])

let suite =
  [ Alcotest.test_case "name roundtrips" `Quick test_names;
    Alcotest.test_case "unknown name rejected" `Quick test_unknown_name;
    Alcotest.test_case "rank order" `Quick test_rank_order;
    Alcotest.test_case "promotion" `Quick test_promote;
    Alcotest.test_case "integer wrapping" `Quick test_wrapping;
    Alcotest.test_case "fp32 rounding" `Quick test_fp32_rounding;
    Alcotest.test_case "casts" `Quick test_casts;
    Alcotest.test_case "uint64 semantics" `Quick test_uint64;
    Alcotest.test_case "bounds and truthiness" `Quick test_bounds;
    Alcotest.test_case "equality witness" `Quick test_equal_witness;
    Helpers.to_alcotest qcheck_cast_roundtrip;
    Alcotest.test_case "caster ≡ two-step cast on edge values" `Quick
      test_caster_edges;
    Helpers.to_alcotest qcheck_caster;
    Helpers.to_alcotest qcheck_container_cast;
    Helpers.to_alcotest qcheck_arith;
    Helpers.to_alcotest qcheck_predicates;
    Helpers.to_alcotest qcheck_truths;
  ]
