type 'a t = { name : string; f : 'a -> 'a }

exception Unknown_operator of string

let names =
  [ "Identity"; "AdditiveInverse"; "LogicalNot"; "MultiplicativeInverse" ]

let is_known n = List.mem n names

let user_table : (string, float -> float) Hashtbl.t = Hashtbl.create 8

let register_user name f = Hashtbl.replace user_table name f

let user_registered name = Hashtbl.mem user_table name

let lookup_user name =
  let prefix = "user:" in
  let n = String.length prefix in
  if String.length name > n && String.sub name 0 n = prefix then
    Hashtbl.find_opt user_table (String.sub name n (String.length name - n))
  else None

let of_name (type a) name (dt : a Dtype.t) : a t =
  let a = Arith.make dt in
  let f =
    match name with
    | "Identity" -> Fun.id
    | "AdditiveInverse" -> a.neg
    | "LogicalNot" -> fun x -> a.of_bool (not (a.to_bool x))
    | "MultiplicativeInverse" -> fun x -> a.div a.one x
    | other -> (
      match lookup_user other with
      | Some g ->
        let to_float = Dtype.caster ~from:dt ~into:Dtype.FP64
        and of_float = Dtype.caster ~from:Dtype.FP64 ~into:dt in
        fun x -> of_float (g (to_float x))
      | None -> raise (Unknown_operator other))
  in
  { name; f }

let bind1st dt (op : 'a Binop.t) k =
  let name = Printf.sprintf "%s$bind1st:%s" op.name (Dtype.to_string dt k) in
  { name; f = (fun x -> op.f k x) }

let bind2nd dt (op : 'a Binop.t) k =
  let name = Printf.sprintf "%s$bind2nd:%s" op.name (Dtype.to_string dt k) in
  { name; f = (fun x -> op.f x k) }

let make name f = { name = "user:" ^ name; f }

let apply op x = op.f x

let identity dt = of_name "Identity" dt
let additive_inverse dt = of_name "AdditiveInverse" dt
let logical_not dt = of_name "LogicalNot" dt
let multiplicative_inverse dt = of_name "MultiplicativeInverse" dt
