(** Pool counter readers, kept only because the bench/e2e probes call
    them (ROADMAP item 10 drops them).  Plans run on the caller's
    domain, so both always read zero. *)

val counters : unit -> (string * int) list
(** [par_jobs], [seq_jobs] and [chunks], all 0. *)

val busy_seconds : unit -> float
(** Always 0. *)
