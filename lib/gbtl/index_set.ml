type t =
  | All
  | List of int array
  | Range of { start : int; stop : int }

exception Invalid_index of string

let length t dim =
  match t with
  | All -> dim
  | List a -> Array.length a
  | Range { start; stop } -> max 0 (stop - start)

let resolve t dim =
  match t with
  | All -> Array.init dim Fun.id
  | List a ->
    Array.iter
      (fun i ->
        if i < 0 || i >= dim then
          raise
            (Invalid_index
               (Printf.sprintf "index %d outside [0, %d)" i dim)))
      a;
    Array.copy a
  | Range { start; stop } ->
    if start < 0 || stop > dim || start > stop then
      raise
        (Invalid_index
           (Printf.sprintf "range [%d, %d) invalid for dimension %d" start
              stop dim));
    Array.init (stop - start) (fun k -> start + k)

let check_no_duplicates a =
  let seen = Array.make (1 + Array.fold_left max (-1) a) false in
  Array.iter
    (fun i ->
      if seen.(i) then
        raise (Invalid_index (Printf.sprintf "duplicate index %d in assign" i));
      seen.(i) <- true)
    a

let resolve_unique t dim =
  let a = resolve t dim in
  (match t with List _ -> check_no_duplicates a | All | Range _ -> ());
  a

let pp fmt = function
  | All -> Format.pp_print_string fmt "All"
  | List a ->
    Format.fprintf fmt "[%s]"
      (String.concat "; " (Array.to_list (Array.map string_of_int a)))
  | Range { start; stop } -> Format.fprintf fmt "%d:%d" start stop
