type _ t =
  | Bool : bool t
  | Int8 : int t
  | Int16 : int t
  | Int32 : int t
  | Int64 : int t
  | UInt8 : int t
  | UInt16 : int t
  | UInt32 : int t
  | UInt64 : int64 t
  | FP32 : float t
  | FP64 : float t

type packed = P : 'a t -> packed

type (_, _) eq = Equal : ('a, 'a) eq

(* Representation classifier: matching on it refines the element type,
   which or-patterns over GADT constructors cannot do. *)
type _ repr =
  | RBool : bool repr
  | RInt : int t -> int repr
  | RInt64 : int64 repr
  | RFloat : float t -> float repr

let repr : type a. a t -> a repr = function
  | Bool -> RBool
  | Int8 -> RInt Int8
  | Int16 -> RInt Int16
  | Int32 -> RInt Int32
  | Int64 -> RInt Int64
  | UInt8 -> RInt UInt8
  | UInt16 -> RInt UInt16
  | UInt32 -> RInt UInt32
  | UInt64 -> RInt64
  | FP32 -> RFloat FP32
  | FP64 -> RFloat FP64

let name : type a. a t -> string = function
  | Bool -> "bool"
  | Int8 -> "int8_t"
  | Int16 -> "int16_t"
  | Int32 -> "int32_t"
  | Int64 -> "int64_t"
  | UInt8 -> "uint8_t"
  | UInt16 -> "uint16_t"
  | UInt32 -> "uint32_t"
  | UInt64 -> "uint64_t"
  | FP32 -> "float"
  | FP64 -> "double"

let short_name : type a. a t -> string = function
  | Bool -> "b"
  | Int8 -> "i8"
  | Int16 -> "i16"
  | Int32 -> "i32"
  | Int64 -> "i64"
  | UInt8 -> "u8"
  | UInt16 -> "u16"
  | UInt32 -> "u32"
  | UInt64 -> "u64"
  | FP32 -> "f32"
  | FP64 -> "f64"

let all =
  [ P Bool; P Int8; P UInt8; P Int16; P UInt16; P Int32; P UInt32;
    P Int64; P UInt64; P FP32; P FP64 ]

let of_name s =
  match s with
  | "bool" | "b" -> P Bool
  | "int8_t" | "i8" -> P Int8
  | "int16_t" | "i16" -> P Int16
  | "int32_t" | "i32" -> P Int32
  | "int64_t" | "i64" -> P Int64
  | "uint8_t" | "u8" -> P UInt8
  | "uint16_t" | "u16" -> P UInt16
  | "uint32_t" | "u32" -> P UInt32
  | "uint64_t" | "u64" -> P UInt64
  | "float" | "f32" -> P FP32
  | "double" | "f64" -> P FP64
  | _ -> invalid_arg ("Dtype.of_name: unknown dtype " ^ s)

let rank : type a. a t -> int = function
  | Bool -> 0
  | Int8 -> 1
  | UInt8 -> 2
  | Int16 -> 3
  | UInt16 -> 4
  | Int32 -> 5
  | UInt32 -> 6
  | Int64 -> 7
  | UInt64 -> 8
  | FP32 -> 9
  | FP64 -> 10

let size_bits : type a. a t -> int = function
  | Bool -> 1
  | Int8 | UInt8 -> 8
  | Int16 | UInt16 -> 16
  | Int32 | UInt32 | FP32 -> 32
  | Int64 | UInt64 | FP64 -> 64

let is_integral : type a. a t -> bool = function
  | FP32 | FP64 -> false
  | Bool | Int8 | Int16 | Int32 | Int64 | UInt8 | UInt16 | UInt32 | UInt64 ->
    true

let is_signed : type a. a t -> bool = function
  | Int8 | Int16 | Int32 | Int64 | FP32 | FP64 -> true
  | Bool | UInt8 | UInt16 | UInt32 | UInt64 -> false

let is_float : type a. a t -> bool = function
  | FP32 | FP64 -> true
  | Bool | Int8 | Int16 | Int32 | Int64 | UInt8 | UInt16 | UInt32 | UInt64 ->
    false

let equal_witness : type a b. a t -> b t -> (a, b) eq option =
 fun a b ->
  match a, b with
  | Bool, Bool -> Some Equal
  | Int8, Int8 -> Some Equal
  | Int16, Int16 -> Some Equal
  | Int32, Int32 -> Some Equal
  | Int64, Int64 -> Some Equal
  | UInt8, UInt8 -> Some Equal
  | UInt16, UInt16 -> Some Equal
  | UInt32, UInt32 -> Some Equal
  | UInt64, UInt64 -> Some Equal
  | FP32, FP32 -> Some Equal
  | FP64, FP64 -> Some Equal
  | ( ( Bool | Int8 | Int16 | Int32 | Int64 | UInt8 | UInt16 | UInt32
      | UInt64 | FP32 | FP64 ),
      _ ) ->
    None

let equal_packed (P a) (P b) =
  match equal_witness a b with Some Equal -> true | None -> false

let promote (P a as pa) (P b as pb) = if rank a >= rank b then pa else pb

(* Sign-extending wrap of a native int to [bits] width. *)
let wrap_signed bits v =
  let mask = (1 lsl bits) - 1 in
  let sign = 1 lsl (bits - 1) in
  ((v land mask) lxor sign) - sign

let wrap_unsigned bits v = v land ((1 lsl bits) - 1)

(* The per-width wraps as named functions, so a dtype's wrap is picked
   once and then called directly. *)
let wrap_int8 v = wrap_signed 8 v
let wrap_int16 v = wrap_signed 16 v
let wrap_int32 v = wrap_signed 32 v
let wrap_uint8 v = wrap_unsigned 8 v
let wrap_uint16 v = wrap_unsigned 16 v
let wrap_uint32 v = wrap_unsigned 32 v

let wrapper (it : int t) : int -> int =
  match it with
  | Int8 -> wrap_int8
  | Int16 -> wrap_int16
  | Int32 -> wrap_int32
  | Int64 -> Fun.id
  | UInt8 -> wrap_uint8
  | UInt16 -> wrap_uint16
  | UInt32 -> wrap_uint32

let wrap_int it v = wrapper it v

let round_fp32 (v : float) = Int32.float_of_bits (Int32.bits_of_float v)

let normalizer : type a. a t -> a -> a =
 fun dt ->
  match repr dt with
  | RBool -> Fun.id
  | RInt it -> wrapper it
  | RInt64 -> Fun.id
  | RFloat FP32 -> round_fp32
  | RFloat _ -> Fun.id

let normalize dt v = normalizer dt v

let zero : type a. a t -> a =
 fun dt ->
  match repr dt with
  | RBool -> false
  | RInt _ -> 0
  | RInt64 -> 0L
  | RFloat _ -> 0.0

let one : type a. a t -> a =
 fun dt ->
  match repr dt with
  | RBool -> true
  | RInt _ -> 1
  | RInt64 -> 1L
  | RFloat _ -> 1.0

let min_value : type a. a t -> a =
 fun dt ->
  match repr dt with
  | RBool -> false
  | RInt Int8 -> -128
  | RInt Int16 -> -32768
  | RInt Int32 -> -2147483648
  | RInt Int64 -> min_int
  | RInt _ -> 0
  | RInt64 -> 0L
  | RFloat _ -> neg_infinity

let max_value : type a. a t -> a =
 fun dt ->
  match repr dt with
  | RBool -> true
  | RInt Int8 -> 127
  | RInt Int16 -> 32767
  | RInt Int32 -> 2147483647
  | RInt Int64 -> max_int
  | RInt UInt8 -> 255
  | RInt UInt16 -> 65535
  | RInt UInt32 -> 4294967295
  | RInt64 -> -1L (* all bits set: unsigned max *)
  | RFloat _ -> infinity

(* Unsigned interpretation of an int64 as float; exact only below 2^53 but
   GraphBLAS casts of huge uint64 values are inherently lossy in C too. *)
let uint64_to_float (v : int64) =
  if Int64.compare v 0L >= 0 then Int64.to_float v
  else
    (Int64.to_float (Int64.shift_right_logical v 1) *. 2.0)
    +. Int64.to_float (Int64.logand v 1L)

let float_to_uint64 (f : float) =
  if f <= 0.0 then 0L
  else if f >= 18446744073709551615.0 then -1L
  else if f < 9223372036854775808.0 then Int64.of_float f
  else Int64.add Int64.min_int (Int64.of_float (f -. 9223372036854775808.0))

let to_float : type a. a t -> a -> float =
 fun dt v ->
  match repr dt with
  | RBool -> if v then 1.0 else 0.0
  | RInt _ -> float_of_int v
  | RInt64 -> uint64_to_float v
  | RFloat _ -> v

let of_float : type a. a t -> float -> a =
 fun dt f ->
  match repr dt with
  | RBool -> f <> 0.0
  | RInt it -> wrap_int it (int_of_float f)
  | RInt64 -> float_to_uint64 f
  | RFloat FP32 -> round_fp32 f
  | RFloat _ -> f

let of_int : type a. a t -> int -> a =
 fun dt i ->
  match repr dt with
  | RBool -> i <> 0
  | RInt it -> wrap_int it i
  | RInt64 -> Int64.of_int i
  | RFloat FP32 -> round_fp32 (float_of_int i)
  | RFloat _ -> float_of_int i

(* Exact integer view used for integer-to-integer casts. *)
let to_int64 : type a. a t -> a -> int64 =
 fun dt v ->
  match repr dt with
  | RBool -> if v then 1L else 0L
  | RInt _ -> Int64.of_int v
  | RInt64 -> v
  | RFloat _ -> Int64.of_float v

let of_int64 : type a. a t -> int64 -> a =
 fun dt v ->
  match repr dt with
  | RBool -> v <> 0L
  | RInt it -> wrap_int it (Int64.to_int v)
  | RInt64 -> v
  | RFloat FP32 -> round_fp32 (Int64.to_float v)
  | RFloat _ -> Int64.to_float v

let bool_to_int b = if b then 1 else 0
let bool_to_int64 b = if b then 1L else 0L
let bool_to_float b = if b then 1.0 else 0.0
let int_to_bool v = v <> 0
let int64_to_bool v = v <> 0L
let float_to_bool v = v <> 0.0
let round_int_to_fp32 v = round_fp32 (float_of_int v)
let round_uint64_to_fp32 v = round_fp32 (uint64_to_float v)

(* The one conversion table: the pair is matched here, once, and the
   returned function does only the conversion.  Each entry is what
   C conversion gives — through [to_float]/[of_float] when either side
   is a float, through the exact [to_int64]/[of_int64] view otherwise. *)
let caster : type a b. from:a t -> into:b t -> a -> b =
 fun ~from ~into ->
  match equal_witness from into with
  | Some Equal -> Fun.id
  | None -> (
    match repr from, repr into with
    | RBool, RBool -> Fun.id
    | RBool, RInt _ -> bool_to_int
    | RBool, RInt64 -> bool_to_int64
    | RBool, RFloat _ -> bool_to_float
    | RInt _, RBool -> int_to_bool
    | RInt _, RInt it -> wrapper it
    | RInt _, RInt64 -> Int64.of_int
    | RInt _, RFloat FP32 -> round_int_to_fp32
    | RInt _, RFloat _ -> float_of_int
    | RInt64, RBool -> int64_to_bool
    | RInt64, RInt it ->
      let w = wrapper it in
      fun v -> w (Int64.to_int v)
    | RInt64, RInt64 -> Fun.id
    | RInt64, RFloat FP32 -> round_uint64_to_fp32
    | RInt64, RFloat _ -> uint64_to_float
    | RFloat _, RBool -> float_to_bool
    | RFloat _, RInt it ->
      let w = wrapper it in
      fun v -> w (int_of_float v)
    | RFloat _, RInt64 -> float_to_uint64
    | RFloat _, RFloat FP32 -> round_fp32
    | RFloat _, RFloat _ -> Fun.id)

let cast ~from ~into v = caster ~from ~into v

let to_bool : type a. a t -> a -> bool =
 fun dt v ->
  match repr dt with
  | RBool -> v
  | RInt _ -> v <> 0
  | RInt64 -> v <> 0L
  | RFloat _ -> v <> 0.0

(* One typed pass: the dtype is matched once, outside the loop. *)
let truths : type a. a t -> a array -> int -> bool array =
 fun dt vs n ->
  let t = Array.make n false in
  (match repr dt with
  | RBool -> Array.blit vs 0 t 0 n
  | RInt _ ->
    for p = 0 to n - 1 do
      t.(p) <- vs.(p) <> 0
    done
  | RInt64 ->
    for p = 0 to n - 1 do
      t.(p) <- vs.(p) <> 0L
    done
  | RFloat _ ->
    for p = 0 to n - 1 do
      t.(p) <- vs.(p) <> 0.0
    done);
  t

let of_bool : type a. a t -> bool -> a =
 fun dt b ->
  match repr dt with
  | RBool -> b
  | RInt _ -> if b then 1 else 0
  | RInt64 -> if b then 1L else 0L
  | RFloat _ -> if b then 1.0 else 0.0

let to_string : type a. a t -> a -> string =
 fun dt v ->
  match repr dt with
  | RBool -> if v then "true" else "false"
  | RInt _ -> string_of_int v
  | RInt64 -> Printf.sprintf "%Lu" v
  | RFloat _ -> Printf.sprintf "%.9g" v

let pp_value dt fmt v = Format.pp_print_string fmt (to_string dt v)

let compare_values : type a. a t -> a -> a -> int =
 fun dt x y ->
  match repr dt with
  | RBool -> Bool.compare x y
  | RInt _ -> Int.compare x y
  | RInt64 -> Int64.unsigned_compare x y
  | RFloat _ -> Float.compare x y

let equal_values dt x y = compare_values dt x y = 0
