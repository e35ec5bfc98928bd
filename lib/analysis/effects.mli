(** Static effect system over {!Exec.Plan} DAGs: per-node read/write
    footprints over every location class execution can touch, and the
    scheduler hazards that follow from footprint overlap between
    unordered nodes.

    Two location classes are mutable behind the scheduler's back, both
    lazily converted storage sides:

    - a matrix's CSC cache, built on first transposed dispatch
      ([Csc_cache]);
    - a vector's sparse/dense representation ([Rep_switch]).  Kernel
      reads never convert a vector ([Svector.sparse_view]/
      [dense_view]), so the class is a conservative model in which
      every kernel consumer of a dense vector writes its
      representation.

    Locations are canonical by {e physical} backing storage: distinct
    containers (or a vector [Transpose], the identity on its container)
    wrapping one [Svector]/[Smatrix] collapse to a single location, so
    aliased operands that CSE cannot merge are still analyzed as one. *)

type access = Read | Write

type resource =
  | Mat_entries of int  (** CSR entries of the matrix canonical at id *)
  | Mat_csc of int  (** its lazily built CSC side-cache *)
  | Vec_entries of int  (** stored entries of the vector canonical at id *)
  | Vec_rep of int  (** its sparse/dense representation switch *)
  | Node_out of int  (** a node's own (single-writer) result slot *)
  | Accum_sink  (** the assignment sink, written after the plan runs *)
  | Op_context  (** operator-context stack (read-only during execution) *)

type footprint = { node : int; effects : (resource * access) list }

type kind = Write_write | Read_write

type cls = Csc_cache | Rep_switch

type hazard = {
  a : int;  (** the topo-smaller endpoint *)
  b : int;
  owner : int;  (** canonical owner node of the contended location *)
  cls : cls;
  kind : kind;
  container : Ogb.Container.t option;
      (** the physical container when the owner is a leaf (remediable in
          place); [None] for intermediates (edge remedy only) *)
}

type strategy = Prebuild | Edge

exception Effect_hazard of { stage : string; hazards : hazard list }
(** Raised by the analysis hook when hazards survive remediation. *)

val footprints : ?assume_formats:bool -> Exec.Plan.t -> footprint list
(** Per-node effect lists in topological order.  With [assume_formats]
    the format layer is treated as on regardless of the runtime toggle
    (the plan is analyzed as it would run, not under the current
    environment). *)

val find :
  ?assume_formats:bool ->
  ?infos:(int, Verify.info) Hashtbl.t ->
  Exec.Plan.t ->
  hazard list
(** Hazards between scheduler-unordered node pairs, write-write first
    per location, sorted by [(a, b, owner)].  CSC hazards require
    format-aware dispatch ([assume_formats] or the runtime toggle);
    dense-operand sparsification does not — the array ABI flips a dense
    vector regardless.  [infos] is the plan's {!Verify.infer} result
    when the caller already has it; without it the shapes are inferred
    here. *)

val remedy :
  ?infos:(int, Verify.info) Hashtbl.t -> strategy:strategy -> Exec.Plan.t ->
  hazard list
(** Find and repair: [Prebuild] performs the lazy conversion eagerly
    ([ensure_csc] / [sparsify] — value-preserving) and falls back to a
    dependency edge for intermediates; [Edge] serializes each pair.
    Returns the hazards that were found (before repair). *)

val describe : hazard -> string

val report : ?assume_formats:bool -> Exec.Plan.t -> string
(** Per-node footprint listing ([R{...} W{...}] per node, topo order)
    for [ogb analyze --effects]. *)

val message : exn -> string option
(** [Some rendered] for {!Effect_hazard}, [None] otherwise. *)
