(** Dependency-free JSON for the wire protocol, also the reader of the
    bench artifacts ([check_regress] and the perf history): a minimal
    value model, a printer and the accessors the request handlers need.  One request or response is
    one JSON object on one line (LF-terminated), so the printer never
    emits newlines. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input. *)

val to_string : t -> string
(** Single-line rendering; strings are escaped, integral floats print
    without a fractional part. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing field or non-object. *)

val str : t -> string option
val num : t -> float option
val int_ : t -> int option
val bool_ : t -> bool option
val list_ : t -> t list option

val str_field : string -> t -> string option
val int_field : string -> t -> int option
val bool_field : ?default:bool -> string -> t -> bool
