(* In-memory span recorder for traced runs.  The harness opens a span
   around each tier call, layer probe and request; nothing inside lib/
   records spans.  Disabled (the default), [with_] is a direct call.
   Spans are kept in memory and written out once, when the run ends. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  req : int;  (** request or operation id, -1 when none *)
  t0 : int64;
  t1 : int64;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 0

let fresh_id () =
  Mutex.protect lock (fun () ->
      incr next_id;
      !next_id)

(* [with_ name f] runs [f id], where [id] is the parent for spans [f]
   opens. *)
let with_ ?(parent = -1) ?(req = -1) name f =
  if not !enabled then f (-1)
  else begin
    let id = fresh_id () in
    let t0 = Stats.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let s = { id; name; parent; req; t0; t1 = Stats.now_ns () } in
        Mutex.protect lock (fun () -> recorded := s :: !recorded))
      (fun () -> f id)
  end

let all () = List.rev !recorded
let dur_ms s = Int64.to_float (Int64.sub s.t1 s.t0) /. 1e6

(* A span's self time: its duration minus the part its children cover
   (children of one parent never overlap, they run one after another). *)
let self_ms spans =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ms s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map
    (fun s -> (s, dur_ms s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    spans

(* Self time summed per span name, largest first: where the traced run
   spent its time, at the granularity of the harness's spans. *)
let print_self_table spans =
  let top = 12 in
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, total = Option.value ~default:(0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (n + 1, total +. self))
    (self_ms spans);
  let rows =
    List.sort (fun (_, (_, a)) (_, (_, b)) -> Float.compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])
  in
  let all = List.fold_left (fun acc (_, (_, t)) -> acc +. t) 0.0 rows in
  Printf.printf "span self time (top %d of %d names):\n" top (List.length rows);
  List.iteri
    (fun i (name, (n, t)) ->
      if i < top then
        Printf.printf "  %-28s %6d spans %10.1f ms %5.1f%%\n" name n t (100.0 *. t /. all))
    rows

let to_json spans =
  let base = List.fold_left (fun acc s -> min acc s.t0) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t base) /. 1e3 in
  Server.Json.Arr
    (List.map
       (fun s ->
         Server.Json.Obj
           [ ("id", Num (float_of_int s.id));
             ("name", Str s.name);
             ("parent", Num (float_of_int s.parent));
             ("req", Num (float_of_int s.req));
             ("start_us", Num (us s.t0));
             ("end_us", Num (us s.t1)) ])
       spans)
