type layout_choice = Auto | Pull | Push

type t = { rules : (string * bool) list; layout : layout_choice }

(* The three fuse=... rules are the multi-op fusions PR 1 gates behind
   Expr.fusion; sink_transpose and push_mask are the structural
   rewrites.  Names match Rewrite's pass/event names. *)
let fusion_rules = [ "apply_chain"; "apply_ewise"; "mult_reduce" ]
let rule_names = "sink_transpose" :: fusion_rules @ [ "push_mask" ]

let default = { rules = []; layout = Auto }

(* keep only rule overrides that differ from the default (disabled
   rules), sorted — the canonical form to_string/equal use *)
let canonical t =
  { t with
    rules = List.sort compare (List.filter (fun (_, on) -> not on) t.rules) }

let is_default t =
  let t = canonical t in
  t.rules = [] && t.layout = Auto

let rule_enabled t r =
  match List.assoc_opt r t.rules with Some on -> on | None -> true

let with_rule t r on =
  { t with rules = (r, on) :: List.remove_assoc r t.rules }

let layout_to_string = function
  | Auto -> "auto"
  | Pull -> "pull"
  | Push -> "push"

let layout_of_string = function
  | "auto" -> Ok Auto
  | "pull" -> Ok Pull
  | "push" | "csr" -> Ok Push
  | s -> Error (Printf.sprintf "unknown layout %S" s)

let to_string t =
  let t = canonical t in
  let parts =
    List.map (fun (r, _) -> r ^ "=off") t.rules
    @ (if t.layout = Auto then []
       else [ "layout=" ^ layout_to_string t.layout ])
  in
  if parts = [] then "default" else String.concat "," parts

let equal a b =
  let a = canonical a and b = canonical b in
  a.rules = b.rules && a.layout = b.layout

let parse s =
  let s = String.trim s in
  if s = "" || s = "default" then Ok default
  else
    let entries =
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun e -> e <> "")
    in
    let bool_of = function
      | "on" -> Ok true
      | "off" -> Ok false
      | v -> Error (Printf.sprintf "expected on/off, got %S" v)
    in
    let rec go acc = function
      | [] -> Ok (canonical acc)
      | entry :: rest -> (
        match String.index_opt entry '=' with
        | None ->
          Error (Printf.sprintf "malformed entry %S (expected key=value)" entry)
        | Some i -> (
          let k = String.sub entry 0 i in
          let v = String.sub entry (i + 1) (String.length entry - i - 1) in
          match k with
          | "fuse" -> (
            match bool_of v with
            | Ok on ->
              go
                (List.fold_left (fun t r -> with_rule t r on) acc fusion_rules)
                rest
            | Error e -> Error e)
          | "layout" -> (
            match layout_of_string v with
            | Ok l -> go { acc with layout = l } rest
            | Error e -> Error e)
          | _ when List.mem k rule_names -> (
            match bool_of v with
            | Ok on -> go (with_rule acc k on) rest
            | Error e -> Error e)
          | _ -> Error (Printf.sprintf "unknown schedule key %S" k)))
    in
    go default entries

let of_env () =
  match Sys.getenv_opt "OGB_SCHEDULE" with
  | None | Some "" -> None
  | Some spec -> (
    match parse spec with
    | Ok t -> Some t
    | Error e ->
      Printf.eprintf "OGB_SCHEDULE ignored: %s\n%!" e;
      None)
