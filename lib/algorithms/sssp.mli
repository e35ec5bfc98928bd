(** Single-source shortest paths by Bellman–Ford relaxation over the
    min-plus semiring (paper Fig. 4): sweeps of
    [path[None] += graphᵀ min.+ path].

    {!generic} is Fig. 4b verbatim and runs all n sweeps.  Every other
    tier stops after a sweep that leaves [path] unchanged, with n sweeps
    as the cap; the sweep is a pure function of [path], so the distances
    are bit-identical to {!generic}'s.  On a graph with a negative cycle
    reachable from the source no sweep settles and the cap applies.

    [path] carries current distances (source seeded with 0); vertices
    with no entry are unreached. *)

open Gbtl

val native : float Smatrix.t -> src:int -> float Svector.t
(** Tier 3: the DSL statement's kernel calls ([Jit.Kernels.Vector.mxv]
    and the Min-accumulated write), made directly on the vectors. *)

val native_sweeps : float Smatrix.t -> src:int -> float Svector.t * int
(** {!native} and the number of sweeps it ran (the settling sweeps plus
    the one that confirms the fixpoint, at most [nrows]). *)

val generic : float Smatrix.t -> src:int -> float Svector.t
(** Fig. 4b against the polymorphic library — correctness reference. *)

val generic_inplace : float Smatrix.t -> path:float Svector.t -> unit
(** The paper's exact signature: relax [nrows] times into [path]. *)

val dsl : Ogb.Container.t -> src:int -> Ogb.Container.t
(** The deferred-expression program; under [Exec.Nonblocking] it is the
    nonblocking tier. *)

val dsl_sweeps : Ogb.Container.t -> src:int -> Ogb.Container.t * int
(** {!dsl} and the number of sweeps it ran. *)

val vm_program : Minivm.Ast.block
(** The MiniVM script: Fig. 4a plus the fixpoint check
    ([before = path.dup()] … [if path.isequal(before): break]). *)

val vm_loops : Ogb.Container.t -> src:int -> Ogb.Container.t
val vm_whole : Ogb.Container.t -> src:int -> Ogb.Container.t

val distances_of_container : Ogb.Container.t -> (int * float) list
