(** Kernel signatures: the cache key of the dynamic-compilation pipeline
    (paper Fig. 9, where the kwargs of [operate] — operation name, operand
    dtypes, operator names, flags — select or build the compiled module). *)

type t = private {
  op : string;  (** operation name, e.g. ["mxv"], or ["algo:bfs"] *)
  dtypes : (string * string) list;  (** role -> dtype name, sorted by role *)
  operators : (string * string) list;  (** role -> operator name, sorted *)
  formats : (string * string) list;
      (** role -> storage format, sorted, e.g. [("a", "csc")] or
          [("u", "dense")].  Empty means the default layout (CSR
          matrices, sparse vectors). *)
  flags : string list;  (** set flags, sorted, e.g. ["transpose_a"] *)
}

val make :
  op:string ->
  ?dtypes:(string * string) list ->
  ?operators:(string * string) list ->
  ?formats:(string * string) list ->
  ?flags:string list ->
  unit ->
  t

val key : t -> string
(** Canonical human-readable key, stable across runs.  Five
    [|]-separated fields: op, dtypes, operators, formats, flags — keys
    (and thus disk-cache hashes) from the four-field era do not
    collide with these. *)

val formats_of_key : string -> string
(** The formats field of a {!key} string, or ["-"] when empty /
    unparsable (the per-signature format column in [ogb_cli jit
    status]). *)

val hash_key : t -> string
(** [op ^ "_" ^ 16-hex FNV-1a of key] — filesystem- and module-name-safe
    (used as [Kern_<hash_key>]). *)

val pp : Format.formatter -> t -> unit
