(** Serialized execution schedules: which rewrite rules fire and which
    direction transposed Mat×Vec nodes take.

    Plans take the greedy {!default} unless [OGB_SCHEDULE] / [--schedule]
    pins another schedule for A/B benching.  Grammar (comma-separated,
    order-free):

    {v
    fuse=on|off                   all three fusion rules at once
    sink_transpose=on|off         individual rewrite rules
    apply_chain=on|off
    apply_ewise=on|off
    mult_reduce=on|off
    push_mask=on|off
    layout=auto|pull|push|csr     direction policy for transposed mxv
                                  (csr is an alias for push: stay on the
                                  CSR scatter kernel, build no CSC)
    v}

    An empty string or "default" is the all-on, auto-layout schedule. *)

type layout_choice = Auto | Pull | Push

type t = {
  rules : (string * bool) list;  (** rule overrides; missing = enabled *)
  layout : layout_choice;  (** direction policy *)
}

val rule_names : string list
val fusion_rules : string list
(** The three producer-into-consumer fusion rules [fuse=] toggles
    (subset of {!rule_names}). *)

val default : t
val is_default : t -> bool
val rule_enabled : t -> string -> bool
val with_rule : t -> string -> bool -> t

val canonical : t -> t
(** Drop redundant overrides (enabled rules) and sort, so structurally
    equal schedules serialize identically. *)

val parse : string -> (t, string) result
val to_string : t -> string
(** Canonical serialization ("default" for {!default}); [parse] and
    [to_string] round-trip. *)

val equal : t -> t -> bool

val of_env : unit -> t option
(** The schedule pinned by [OGB_SCHEDULE], if any.  A malformed value
    is a loud no-op on stderr (like [OGB_FAULTS]). *)
