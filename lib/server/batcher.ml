open Gbtl

type key = {
  op : [ `Mxv | `Vxm ];
  graph : string;
  transpose : bool;
  semiring : string;
  size : int;
  dense : bool;  (* the fill class mxv's layout pass keys pull/push on *)
}

let key_of ~op ~graph ~transpose ~(sr : Jit.Op_spec.semiring) ~u =
  let size = Svector.size u in
  let nv = Svector.nvals u in
  { op;
    graph;
    transpose;
    semiring =
      Printf.sprintf "%s|%s|%s" sr.Jit.Op_spec.add_op
        sr.Jit.Op_spec.add_identity sr.Jit.Op_spec.mul_op;
    size;
    dense = 4 * nv >= size && size >= 32 }

type result_ = ((int * float) list, string) result

type member = { u : float Svector.t; mutable result : result_ option }

type group = {
  g_lock : Mutex.t;
  g_done : Condition.t;
  mutable members : member list;  (* reverse arrival order *)
  mutable accepting : bool;
}

type t = {
  lock : Mutex.t;
  groups : (key, group) Hashtbl.t;
  mutable window_s : float;
  mutable batches : int;
  mutable batched : int;
  mutable singles : int;
  mutable partial_failures : int;
}

let create ?(window_s = 0.001) () =
  { lock = Mutex.create ();
    groups = Hashtbl.create 16;
    window_s;
    batches = 0;
    batched = 0;
    singles = 0;
    partial_failures = 0 }

let set_window t w = Mutex.protect t.lock (fun () -> t.window_s <- max 0.0 w)

let counters t =
  Mutex.protect t.lock (fun () ->
      [ ("batches", t.batches);
        ("batched", t.batched);
        ("singles", t.singles);
        ("partial_failures", t.partial_failures) ])

let run_single key ~sr ~m u : result_ =
  try
    Ok
      (Entries.to_alist
         (match key.op with
         | `Mxv -> Jit.Kernels.mxv Dtype.FP64 sr ~transpose:key.transpose m u
         | `Vxm -> Jit.Kernels.vxm Dtype.FP64 sr ~transpose:key.transpose u m))
  with e -> Error (Printexc.to_string e)

let run_fused key ~sr ~m us =
  List.map Entries.to_alist
    (match key.op with
    | `Mxv -> Jit.Kernels.mxv_batch Dtype.FP64 sr ~transpose:key.transpose m us
    | `Vxm -> Jit.Kernels.vxm_batch Dtype.FP64 sr ~transpose:key.transpose m us)

(* Execute a closed batch, yielding one result per member in order.
   The injection point (or a genuine per-member failure) costs exactly
   one member its request; a failure of the fused call itself retries
   every member individually — correctness never depends on the
   coalescing. *)
let execute t key ~sr ~m members =
  let n = List.length members in
  let partial = n >= 2 && Fault.fire "serve.batch.partial" in
  let results =
    if n = 1 then begin
      Mutex.protect t.lock (fun () -> t.singles <- t.singles + 1);
      List.map (fun mem -> run_single key ~sr ~m mem.u) members
    end
    else begin
      Mutex.protect t.lock (fun () ->
          t.batches <- t.batches + 1;
          t.batched <- t.batched + n;
          if partial then t.partial_failures <- t.partial_failures + 1);
      let live, failed =
        if partial then
          ( List.filteri (fun i _ -> i < n - 1) members,
            List.filteri (fun i _ -> i = n - 1) members )
        else (members, [])
      in
      let live_results =
        match run_fused key ~sr ~m (List.map (fun mem -> mem.u) live) with
        | rs -> List.map (fun r -> Ok r) rs
        | exception _ ->
          List.map (fun mem -> run_single key ~sr ~m mem.u) live
      in
      live_results
      @ List.map
          (fun _ -> Error "injected fault: serve.batch.partial")
          failed
    end
  in
  results

let run t key ~sr ~m u =
  let joined =
    Mutex.protect t.lock (fun () ->
        match Hashtbl.find_opt t.groups key with
        | Some g ->
          Mutex.protect g.g_lock (fun () ->
              if g.accepting then begin
                let mem = { u; result = None } in
                g.members <- mem :: g.members;
                Some (g, mem)
              end
              else None)
        | None -> None)
  in
  match joined with
  | Some (g, mem) ->
    (* follower: the leader executes and signals *)
    Mutex.protect g.g_lock (fun () ->
        let rec wait () =
          match mem.result with
          | Some r -> r
          | None ->
            Condition.wait g.g_done g.g_lock;
            wait ()
        in
        wait ())
  | None ->
    (* leader: open a group, hold the window, close, execute *)
    let mem = { u; result = None } in
    let g =
      { g_lock = Mutex.create ();
        g_done = Condition.create ();
        members = [ mem ];
        accepting = true }
    in
    let window =
      Mutex.protect t.lock (fun () ->
          Hashtbl.replace t.groups key g;
          t.window_s)
    in
    if window > 0.0 then Unix.sleepf window;
    let members =
      Mutex.protect t.lock (fun () ->
          (match Hashtbl.find_opt t.groups key with
          | Some g' when g' == g -> Hashtbl.remove t.groups key
          | _ -> ());
          Mutex.protect g.g_lock (fun () ->
              g.accepting <- false;
              List.rev g.members))
    in
    let results =
      (* a raise here would strand the followers mid-wait; degrade every
         member to an error instead *)
      try execute t key ~sr ~m members
      with e ->
        List.map (fun _ -> Error (Printexc.to_string e)) members
    in
    Mutex.protect g.g_lock (fun () ->
        List.iter2 (fun m r -> m.result <- Some r) members results;
        Condition.broadcast g.g_done);
    match mem.result with
    | Some r -> r
    | None -> Error "batch leader lost its own result"
