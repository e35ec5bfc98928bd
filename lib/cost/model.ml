type node_desc = {
  family : string;
  items : int;
  csc_items : int;
  fresh_compile : bool;
}

(* Built-in ns/item fallbacks.  Absolute values only matter relative to
   each other (the planner compares candidate sums): mxv_pull/mxv_push
   are pinned at ratio 1/4 so the uncalibrated crossover fill matches
   the PR 2 runtime heuristic (pull when 4·nvals ≥ size), and
   csc.build is priced high enough that a one-shot pull never looks
   free when the CSC side must be built first. *)
let defaults =
  [ ("mxv_push", 12.0);
    ("mxv_pull", 3.0);
    ("mxv", 6.0);
    ("vxm", 6.0);
    ("mxm", 8.0);
    ("ewise_v", 4.0);
    ("ewise_m", 4.0);
    ("apply_v", 3.0);
    ("apply_m", 3.0);
    ("apply_chain", 3.5);
    ("ewise_apply", 4.5);
    ("mult_reduce", 5.0);
    ("reduce", 2.5);
    ("extract", 2.0);
    ("select", 3.0);
    ("transpose", 6.0);
    ("leaf", 0.0);
    ("csc.build", 10.0);
    ("compile", 15e6) ]

let families = List.map fst defaults

let default_ns_per_item family =
  match List.assoc_opt family defaults with
  | Some ns -> ns
  | None -> 5.0 (* unknown family: a middling guess *)

let ns_per_item family =
  match Calibration.ns_per_item family with
  | Some ns when ns > 0.0 -> ns
  | _ -> default_ns_per_item family

let node_ns d =
  let items = float_of_int (max 0 d.items) in
  let base = items *. ns_per_item d.family in
  let csc =
    if d.csc_items > 0 then
      float_of_int d.csc_items *. ns_per_item "csc.build"
    else 0.0
  in
  let compile = if d.fresh_compile then ns_per_item "compile" else 0.0 in
  base +. csc +. compile
