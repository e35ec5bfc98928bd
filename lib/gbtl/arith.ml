type 'a t = {
  dtype : 'a Dtype.t;
  add : 'a -> 'a -> 'a;
  sub : 'a -> 'a -> 'a;
  mul : 'a -> 'a -> 'a;
  div : 'a -> 'a -> 'a;
  neg : 'a -> 'a;
  min : 'a -> 'a -> 'a;
  max : 'a -> 'a -> 'a;
  eq : 'a -> 'a -> bool;
  lt : 'a -> 'a -> bool;
  to_bool : 'a -> bool;
  of_bool : bool -> 'a;
  zero : 'a;
  one : 'a;
  min_value : 'a;
  max_value : 'a;
}

let bool_arith : bool t =
  {
    dtype = Bool;
    (* Bool arithmetic follows GraphBLAS convention: plus = lor,
       times = land, as in C++ bool promotion collapsed back to bool. *)
    add = ( || );
    sub = ( <> );
    mul = ( && );
    div = (fun a _ -> a);
    neg = Fun.id;
    min = ( && );
    max = ( || );
    eq = Bool.equal;
    lt = (fun a b -> (not a) && b);
    to_bool = Fun.id;
    of_bool = Fun.id;
    zero = false;
    one = true;
    min_value = false;
    max_value = true;
  }

(* Values of widths <= 32 are kept normalized (signed ones sign-extended,
   unsigned ones in [0, 2^w)), so native [int] comparison is correct for
   both signed and unsigned dtypes.  [Int64] is the native [int], whose
   normalization is the identity: it gets the plain operators, the
   narrower widths their wrap picked once here. *)
let int_arith (dt : int Dtype.t) : int t =
  let add, sub, mul, div, neg =
    match dt with
    | Int64 ->
      (( + ), ( - ), ( * ), (fun a b -> if b = 0 then 0 else a / b), ( ~- ))
    | Int8 | Int16 | Int32 | UInt8 | UInt16 | UInt32 ->
      let n = Dtype.normalizer dt in
      ( (fun a b -> n (a + b)),
        (fun a b -> n (a - b)),
        (fun a b -> n (a * b)),
        (fun a b -> if b = 0 then 0 else n (a / b)),
        fun a -> n (-a) )
  in
  {
    dtype = dt;
    add;
    sub;
    mul;
    div;
    neg;
    min = (fun a b -> if a <= b then a else b);
    max = (fun a b -> if a >= b then a else b);
    eq = Int.equal;
    lt = ( < );
    to_bool = (fun a -> a <> 0);
    of_bool = (fun b -> if b then 1 else 0);
    zero = 0;
    one = 1;
    min_value = Dtype.min_value dt;
    max_value = Dtype.max_value dt;
  }

let uint64_arith : int64 t =
  {
    dtype = UInt64;
    add = Int64.add;
    sub = Int64.sub;
    mul = Int64.mul;
    div = (fun a b -> if b = 0L then 0L else Int64.unsigned_div a b);
    neg = Int64.neg;
    min = (fun a b -> if Int64.unsigned_compare a b <= 0 then a else b);
    max = (fun a b -> if Int64.unsigned_compare a b >= 0 then a else b);
    eq = Int64.equal;
    lt = (fun a b -> Int64.unsigned_compare a b < 0);
    to_bool = (fun a -> a <> 0L);
    of_bool = (fun b -> if b then 1L else 0L);
    zero = 0L;
    one = 1L;
    min_value = 0L;
    max_value = -1L;
  }

(* [FP64] gets the plain operators; [FP32] rounds every result to
   single precision. *)
let float_arith (dt : float Dtype.t) : float t =
  let add, sub, mul, div =
    match dt with
    | FP64 -> (( +. ), ( -. ), ( *. ), ( /. ))
    | FP32 ->
      let n = Dtype.normalizer dt in
      ( (fun a b -> n (a +. b)),
        (fun a b -> n (a -. b)),
        (fun a b -> n (a *. b)),
        fun a b -> n (a /. b) )
  in
  {
    dtype = dt;
    add;
    sub;
    mul;
    div;
    neg = (fun a -> -.a);
    min = (fun a b -> if a <= b then a else b);
    max = (fun a b -> if a >= b then a else b);
    eq = (fun a b -> a = b);
    lt = (fun a b -> a < b);
    to_bool = (fun a -> a <> 0.0);
    of_bool = (fun b -> if b then 1.0 else 0.0);
    zero = 0.0;
    one = 1.0;
    min_value = neg_infinity;
    max_value = infinity;
  }

let make : type a. a Dtype.t -> a t = function
  | Bool -> bool_arith
  | Int8 -> int_arith Int8
  | Int16 -> int_arith Int16
  | Int32 -> int_arith Int32
  | Int64 -> int_arith Int64
  | UInt8 -> int_arith UInt8
  | UInt16 -> int_arith UInt16
  | UInt32 -> int_arith UInt32
  | UInt64 -> uint64_arith
  | FP32 -> float_arith FP32
  | FP64 -> float_arith FP64
