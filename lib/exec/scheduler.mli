(** Plan execution: every node runs on the caller's domain, in
    topological order.  Each node is a pure function of its dependency
    values, so the result equals the blocking evaluator's.

    A node failure surfaces as a located {!Node_error}; {!Exec} falls
    back to the blocking evaluator unless containment is off. *)

exception Node_error of { id : int; label : string; error : exn }
(** A node failure located by plan-node id and operator label. *)

val run : Plan.t -> Plan.value * Trace.t
(** Execute the (already-optimized) plan and return the root value plus
    the execution trace. *)
