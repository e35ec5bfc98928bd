(** Execution trace for one nonblocking run: per-node timings, the
    rewrites that fired, and the kernel-cache activity (lookup/hit/
    compile deltas) attributable to the run. *)

type node_event = { id : int; label : string; seconds : float; nvals : int }
(** [nvals] is the stored-entry count of the node's result container
    (1 for scalar results) — the frontier-size data behind push/pull
    direction choices. *)

type t = {
  total_seconds : float;
  nodes : node_event list;  (** sorted by node id *)
  rewrites : (string * int) list;
  cse_merged : int;
  schedule : string;
      (** serialized schedule the planner applied ("" when the plan
          bypassed the planner) *)
  lookups : int;
  cache_hits : int;  (** memory + disk hits during this run *)
  compiles : int;
}

val make :
  total_seconds:float ->
  nodes:node_event list ->
  rewrites:(string * int) list ->
  cse_merged:int ->
  schedule:string ->
  before:Jit.Jit_stats.snapshot ->
  after:Jit.Jit_stats.snapshot ->
  t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
