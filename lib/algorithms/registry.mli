(** The algorithm × tier table.  One entry per algorithm names the
    tiers it runs at and how to run each one on a loaded graph; [ogb
    run], the daemon's [run] op and the tests all look algorithms up
    here rather than spelling the mapping out themselves.

    Every tier of an entry computes the same answer: the native tier of
    [bc] is single-source betweenness from [src], like the other three. *)

open Gbtl

type tier = Native | Dsl | Nonblocking | Vm

val tiers : (string * tier) list
(** Every tier with its CLI and wire spelling, native first. *)

val tier_name : tier -> string

type result =
  | Entries of { entries : (int * float) list; iters : int option }
      (** Per-vertex values, ascending by vertex; ranked (largest first,
          ties ascending by vertex) for [pagerank] and [bc].  [iters] is
          the iteration count, where the tier reports one. *)
  | Count of int
      (** Triangles, components, communities, 4-truss edges or
          independent-set size. *)

type outcome = { result : result; ms : float }
(** [ms] is the algorithm's wall time on the monotonic clock; deriving
    its input from the graph and decoding its output are not counted. *)

type entry = {
  name : string;  (** the CLI and wire name *)
  tiers : tier list;
  run : tier -> float Smatrix.t -> src:int -> outcome;
      (** [src] is ignored by algorithms without a source vertex.
          @raise Invalid_argument for a tier not in [tiers]. *)
  label : int -> string;
      (** the summary of a result of that many entries, or that count *)
}

val all : entry list
(** [bfs], [sssp], [pagerank], [tc], [cc], [labelprop], [ktruss] and
    [bc] at all four tiers; [mis] at native only. *)

val find : string -> entry option

val lookup : algo:string -> tier:string -> (entry * tier) option
(** [None] for an unknown algorithm or tier name, or a tier the
    algorithm does not run at. *)

val summary : entry -> result -> string
(** One line, e.g. ["triangles: 12"] or
    ["ranks of 64 vertices, converged in 9 iterations"]. *)
