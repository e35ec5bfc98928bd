type t = {
  op : string;
  dtypes : (string * string) list;
  operators : (string * string) list;
  formats : (string * string) list;
  flags : string list;
}

let sort_pairs = List.sort (fun (a, _) (b, _) -> String.compare a b)

let make ~op ?(dtypes = []) ?(operators = []) ?(formats = []) ?(flags = []) ()
    =
  { op;
    dtypes = sort_pairs dtypes;
    operators = sort_pairs operators;
    formats = sort_pairs formats;
    flags = List.sort_uniq String.compare flags }

let key t =
  let pairs l = String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ v) l) in
  Printf.sprintf "%s|%s|%s|%s|%s" t.op (pairs t.dtypes) (pairs t.operators)
    (pairs t.formats)
    (String.concat "," t.flags)

(* Field 4 of a [key] string — the per-signature format column the CLI
   cache table shows. *)
let formats_of_key k =
  match String.split_on_char '|' k with
  | _ :: _ :: _ :: f :: _ -> if f = "" then "-" else f
  | _ -> "-"

(* FNV-1a, 64-bit. *)
let fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let sanitize op =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    op

(* Bump whenever the generated source for an existing key changes shape:
   disk artifacts are addressed by hash, so without the salt a warm
   cache would keep loading the stale module. *)
let codegen_rev = 6

let hash_key t =
  Printf.sprintf "%s_%016Lx" (sanitize t.op)
    (fnv1a (Printf.sprintf "r%d|%s" codegen_rev (key t)))

let pp fmt t = Format.pp_print_string fmt (key t)
