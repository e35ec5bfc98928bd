(** Triangle counting (paper Fig. 5): with [L] the strict lower triangle
    of an undirected adjacency matrix,

    {v B<L> = L ⊕.⊗ Lᵀ;  triangles = reduce(B) v}

    Each triangle {i, j, k} is counted exactly once.  The masked
    [mxm]-with-transposed-B form hits {!Gbtl.Matmul}'s marker dot kernel,
    which evaluates only mask-allowed output cells and whose result is
    installed in [B] without a separate write step. *)

open Gbtl

val native : int Smatrix.t -> int
(** [native l] — [l] must be strictly lower triangular with unit
    entries. *)

val generic : int Smatrix.t -> int
(** Alias of {!native}: the library's masked [mxm] is the only kernel
    for this product (every tier reaches it, through
    {!Jit.Kernels.mxm} above the library), so the library tier and the
    specialized tier coincide for this algorithm. *)

val of_undirected : 'a Smatrix.t -> int Smatrix.t
(** Extract the strict lower triangle as an int64 matrix of ones: every
    stored entry below the diagonal becomes 1, whatever its value. *)

val dsl : Ogb.Container.t -> float

val nonblocking : Ogb.Container.t -> float
(** {!dsl} under the nonblocking engine: the plan rewrites sink the
    [L.T] transpose into the mxm flag and push the sink mask into the
    kernel before the domain pool executes the DAG. *)

val vm_program : Minivm.Ast.block
val vm_loops : Ogb.Container.t -> float
val vm_whole : Ogb.Container.t -> float
