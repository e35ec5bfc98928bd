(** Betweenness centrality (Brandes' algorithm in GraphBLAS form, the
    companion algorithm GBTL ships alongside the paper's four): a forward
    sweep of masked [vxm] frontier expansions recording per-depth
    frontiers and shortest-path counts, then a backward dependency
    accumulation of masked [mxv] / element-wise updates.

    Unweighted directed graphs; BC(v) = Σ_{s≠v≠t} σ_st(v) / σ_st. *)

open Gbtl

val native : ?sources:int list -> bool Smatrix.t -> float Svector.t
(** Dense centrality vector.  [sources] selects a batch (default: every
    vertex, i.e. exact BC).  Each source runs {!single_source}'s kernel
    calls; its contribution is added as [(c +. x) -. 1.0]. *)

(** {2 Single-source tiers (the eighth tier-1 workload)}

    One source's dependency contribution: the partial centrality
    [delta_s(v) = sum_t sigma_st(v) / sigma_st].  The forward sweep
    starts from the unit vector [e_src] and expands through the masked
    [vxm] uniformly, so a self-loop at the source is dropped (it is
    never on a shortest path). *)

val single_source : bool Smatrix.t -> src:int -> float Svector.t
(** Tier 3: the DSL program's kernel calls ([Jit.Kernels.Vector.vxm],
    [mxv], [ewise], [apply] and the masked writes), made directly on the
    vectors with no container, context or expression.  Equal to
    [native ~sources:[src]]. *)

val dsl : Ogb.Container.t -> src:int -> Ogb.Container.t
(** The deferred-expression program (blocking evaluator): forward
    masked [vxm] wavefronts accumulating path counts, backward [mxv] /
    eWiseMult dependency flow over Plus/Times. *)

val nonblocking : Ogb.Container.t -> src:int -> Ogb.Container.t
(** {!dsl} under the nonblocking engine. *)

val vm_program : Minivm.Ast.block
(** The MiniVM script: the forward sweep stamps a levels vector (the
    BFS idiom) and the backward sweep recovers wave [i] as
    [select("eq", i, levels)]. *)

val vm_loops : Ogb.Container.t -> src:int -> Ogb.Container.t
(** Run {!vm_program} through the VM bridge. *)
