type 'a t = { name : string; add : 'a Monoid.t; mul : 'a Binop.t }

exception Unknown_semiring of string

let names =
  [ "Arithmetic"; "Logical"; "MinPlus"; "MaxPlus"; "MinTimes"; "MaxTimes";
    "MinSelect1st"; "MinSelect2nd"; "MaxSelect1st"; "MaxSelect2nd" ]

let of_name name dt =
  let m mon op = { name; add = mon dt; mul = Binop.of_name op dt } in
  match name with
  | "Arithmetic" -> m Monoid.plus "Times"
  | "Logical" -> m Monoid.logical_or "LogicalAnd"
  | "MinPlus" -> m Monoid.min "Plus"
  | "MaxPlus" -> m Monoid.max "Plus"
  | "MinTimes" -> m Monoid.min "Times"
  | "MaxTimes" -> m Monoid.max "Times"
  | "MinSelect1st" -> m Monoid.min "First"
  | "MinSelect2nd" -> m Monoid.min "Second"
  | "MaxSelect1st" -> m Monoid.max "First"
  | "MaxSelect2nd" -> m Monoid.max "Second"
  | other -> raise (Unknown_semiring other)

let make (add : 'a Monoid.t) (mul : 'a Binop.t) =
  let name =
    Printf.sprintf "Semiring(%s/%s,%s)" add.Monoid.op.Binop.name
      add.Monoid.identity_name mul.Binop.name
  in
  { name; add; mul }

let arithmetic dt = of_name "Arithmetic" dt
let logical dt = of_name "Logical" dt
let min_plus dt = of_name "MinPlus" dt
let max_plus dt = of_name "MaxPlus" dt
let min_times dt = of_name "MinTimes" dt
let max_times dt = of_name "MaxTimes" dt
let min_select1st dt = of_name "MinSelect1st" dt
let min_select2nd dt = of_name "MinSelect2nd" dt
let max_select1st dt = of_name "MaxSelect1st" dt
let max_select2nd dt = of_name "MaxSelect2nd" dt

let zero sr = sr.add.Monoid.identity
(* Return the stored closures, not a partial application: kernels hoist
   [let add = Semiring.add sr], so each term costs one indirect call. *)
let add sr = sr.add.Monoid.op.Binop.f
let mul sr = sr.mul.Binop.f
let pp fmt sr = Format.pp_print_string fmt sr.name
