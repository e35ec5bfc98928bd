type 'a t = { name : string; f : 'a -> 'a -> 'a }

exception Unknown_operator of string

let names =
  [ "LogicalOr"; "LogicalAnd"; "LogicalXor"; "Equal"; "NotEqual";
    "GreaterThan"; "LessThan"; "GreaterEqual"; "LessEqual"; "Times";
    "Div"; "Minus"; "First"; "Second"; "Min"; "Max"; "Plus" ]

let is_known n = List.mem n names

let user_table : (string, float -> float -> float) Hashtbl.t =
  Hashtbl.create 8

let register_user name f = Hashtbl.replace user_table name f

let user_registered name = Hashtbl.mem user_table name

let user_prefix = "user:"

let lookup_user name =
  let n = String.length user_prefix in
  if String.length name > n && String.sub name 0 n = user_prefix then
    Hashtbl.find_opt user_table (String.sub name n (String.length name - n))
  else None

let of_name (type a) name (dt : a Dtype.t) : a t =
  let a = Arith.make dt in
  let cmp op = fun x y -> a.of_bool (op x y) in
  let f =
    match name with
    | "Plus" -> a.add
    | "Minus" -> a.sub
    | "Times" -> a.mul
    | "Div" -> a.div
    | "Min" -> a.min
    | "Max" -> a.max
    | "First" -> fun x _ -> x
    | "Second" -> fun _ y -> y
    | "LogicalOr" -> fun x y -> a.of_bool (a.to_bool x || a.to_bool y)
    | "LogicalAnd" -> fun x y -> a.of_bool (a.to_bool x && a.to_bool y)
    | "LogicalXor" -> fun x y -> a.of_bool (a.to_bool x <> a.to_bool y)
    | "Equal" -> cmp a.eq
    | "NotEqual" -> cmp (fun x y -> not (a.eq x y))
    | "LessThan" -> cmp a.lt
    | "GreaterThan" -> cmp (fun x y -> a.lt y x)
    | "LessEqual" -> cmp (fun x y -> not (a.lt y x))
    | "GreaterEqual" -> cmp (fun x y -> not (a.lt x y))
    | other -> (
      match lookup_user other with
      | Some g ->
        let to_float = Dtype.caster ~from:dt ~into:Dtype.FP64
        and of_float = Dtype.caster ~from:Dtype.FP64 ~into:dt in
        fun x y -> of_float (g (to_float x) (to_float y))
      | None -> raise (Unknown_operator other))
  in
  { name; f }

let make name f = { name = "user:" ^ name; f }

let apply op x y = op.f x y

let plus dt = of_name "Plus" dt
let minus dt = of_name "Minus" dt
let times dt = of_name "Times" dt
let div dt = of_name "Div" dt
let min dt = of_name "Min" dt
let max dt = of_name "Max" dt
let first dt = of_name "First" dt
let second dt = of_name "Second" dt
let logical_or dt = of_name "LogicalOr" dt
let logical_and dt = of_name "LogicalAnd" dt
let logical_xor dt = of_name "LogicalXor" dt
let equal dt = of_name "Equal" dt
let not_equal dt = of_name "NotEqual" dt
let greater_than dt = of_name "GreaterThan" dt
let less_than dt = of_name "LessThan" dt
let greater_equal dt = of_name "GreaterEqual" dt
let less_equal dt = of_name "LessEqual" dt
