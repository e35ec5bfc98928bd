(* The serve_mixed workload: [ogb_cli serve --workers 2] as a child
   process on a Unix socket, driven by two closed-loop client
   connections (each waits for its reply before sending the next
   request, as the daemon's callers do) running the seeded mix of
   {!Mix}.  Also the in-process probe of the same request path
   ([Server.Daemon.handle], no socket) that the other workloads use for
   their serve-layer numbers. *)

module J = Server.Json

(* Request/response values kept for the wire-codec probe. *)
type recorder = { lock : Mutex.t; mutable values : J.t list; mutable kept : int }

let recorder () = { lock = Mutex.create (); values = []; kept = 0 }

let record r v =
  Mutex.protect r.lock (fun () ->
      if r.kept < 400 then begin
        r.values <- v :: r.values;
        r.kept <- r.kept + 1
      end)

(* Send one request and check its response.  Latencies are filed per
   kind in [book]; [extra] gets the read / write / compute / overhead
   series. *)
let exchange ~tally ~book ~extra ~rec_ ~send ?(parent = -1) refs (req : Mix.request) =
  Book.attempt tally;
  let label = Mix.label req.Mix.kind in
  let resp, ms =
    Span.with_ ~parent ~req:req.Mix.id label (fun _ ->
        Stats.timed (fun () -> send req.Mix.body))
  in
  match resp with
  | Error e -> Book.fail tally (label ^ ": " ^ e)
  | Ok resp -> (
    record rec_ req.Mix.body;
    record rec_ resp;
    match Mix.check refs req resp with
    | Error why -> Book.fail tally why
    | Ok reported ->
      Book.add book label ms;
      Book.add extra (if Mix.is_write req.Mix.kind then "write" else "read") ms;
      Option.iter
        (fun r ->
          Book.add extra "compute" r;
          Book.add extra "overhead" (ms -. r))
        reported)

let expect_ok ~tally what result =
  Book.attempt tally;
  match result with
  | Ok resp when J.str_field "status" resp = Some "ok" -> resp
  | Ok resp ->
    Book.fail tally (what ^ ": " ^ J.to_string resp);
    resp
  | Error e ->
    Book.fail tally (what ^ ": " ^ e);
    J.Null

let load_graphs ~tally ~send ~n ~seed =
  ignore
    (expect_ok ~tally "load g"
       (send
          (J.Obj
             [ ("op", Str "load"); ("name", Str "g");
               ("graph", Str (Mix.graph_spec ~n ~seed)); ("symmetrize", Bool true) ])));
  List.iter
    (fun client ->
      ignore
        (expect_ok ~tally "load w"
           (send
              (J.Obj
                 [ ("op", Str "load"); ("name", Str (Mix.write_name client));
                   ("graph", Str (Mix.write_spec ~n ~seed ~client)) ]))))
    [ 0; 1 ]

(* One request of every kind, in a fixed order. *)
let one_of_each ~tally ~send refs c =
  let book = Book.create () and extra = Book.create () and rec_ = recorder () in
  List.iter
    (fun kind -> exchange ~tally ~book ~extra ~rec_ ~send refs (Mix.next refs ~kind c))
    Mix.kinds

(* Serve-layer metrics from the latency series and two snapshots of the
   daemon's serve counters. *)
let serve_layer ~extra ~before ~after =
  let p q l = Stats.percentile q (Book.samples extra l) in
  let get l k = Option.value ~default:0.0 (List.assoc_opt k l) in
  let d k = get after k -. get before k in
  let batched = d "batched" and singles = d "singles" in
  [ ("serve.compute_ms.p50", p 50.0 "compute");
    ("serve.overhead_ms.p50", p 50.0 "overhead");
    ("serve.read_ms.p50", p 50.0 "read");
    ("serve.read_ms.p99", p 99.0 "read");
    ("serve.write_ms.p50", p 50.0 "write");
    ("serve.shed", d "shed");
    ("serve.errors", d "errors");
    ("batch.coalesced_ratio", batched /. Float.max 1.0 (batched +. singles)) ]

let wire_metrics rec_ =
  let parse, print = Probes.wire_us rec_.values in
  [ ("wire.parse_us", parse); ("wire.print_us", print) ]

(* ---- the in-process probe ---- *)

let inproc_probe ~tally ~seed ~smoke =
  Span.with_ "probe.serve" @@ fun parent ->
  let n = if smoke then 64 else 256 in
  let refs = Mix.references ~n ~seed in
  let cfg = { (Server.Daemon.default_config ()) with Server.Daemon.warm_n = n } in
  let st = Server.Daemon.create_state cfg in
  let session = Server.Session.create () in
  let send req = Ok (Server.Daemon.handle st session req) in
  load_graphs ~tally ~send ~n ~seed;
  let c = Mix.client ~n ~seed ~index:0 in
  one_of_each ~tally ~send refs c;
  let counters () =
    List.map (fun (k, v) -> (k, float_of_int v)) (Server.Daemon.serve_counters st)
  in
  let before = counters () in
  let book = Book.create () and extra = Book.create () and rec_ = recorder () in
  for _ = 1 to if smoke then 20 else 200 do
    exchange ~tally ~book ~extra ~rec_ ~send ~parent refs (Mix.next refs c)
  done;
  let after = counters () in
  serve_layer ~extra ~before ~after @ wire_metrics rec_

(* ---- the daemon child ---- *)

type daemon = { pid : int; sock : string }

let live : daemon list ref = ref []

let reap d =
  let rec wait () =
    match Unix.waitpid [] d.pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  try Sys.remove d.sock with Sys_error _ -> ()

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap d

let () = at_exit (fun () -> List.iter stop !live)

let child_env ~cache =
  let keep kv =
    not
      (String.starts_with ~prefix:"OGB_JIT_CACHE=" kv
      || String.starts_with ~prefix:"OGB_SERVE_" kv)
  in
  Array.of_list
    (("OGB_JIT_CACHE=" ^ cache) :: List.filter keep (Array.to_list (Unix.environment ())))

(* Start the daemon on [cache] and return it with a connected control
   connection, once the socket accepts. *)
let spawn ~ogb_cli ~sock ~cache =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process_env ogb_cli
          [| ogb_cli; "serve"; "--sock"; sock; "--workers"; "2" |]
          (child_env ~cache) null null Unix.stderr)
  in
  let d = { pid; sock } in
  live := d :: !live;
  let t0 = Stats.now_ns () in
  let rec connect () =
    match Server.Client.connect ~sock () with
    | Ok c -> c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (fun x -> x.pid <> pid) !live;
        failwith "ogb serve exited during start-up"
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      if Stats.ms_since t0 > 60_000.0 then failwith ("ogb serve did not start: " ^ e);
      Thread.delay 0.005;
      connect ()
  in
  (d, connect ())

(* The numeric fields of a JSON object. *)
let numbers = function
  | Some (J.Obj kvs) ->
    List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (J.num v)) kvs
  | _ -> []

let health_section name resp = numbers (Option.bind (J.member "health" resp) (J.member name))

let health ~tally conn =
  expect_ok ~tally "health"
    (Server.Client.request conn (J.Obj [ ("op", Str "health"); ("probe", Bool false) ]))

(* ---- the workload ---- *)

type start = { daemon : daemon; conn : Server.Client.t; c0 : Mix.client }

let run ~ogb_cli ~out ~seed ~seconds ~trace ~smoke =
  let n = if smoke then 64 else 512 in
  let tally = Book.create () in
  let refs = Mix.references ~n ~seed in
  let sock = Filename.concat out (Printf.sprintf "e2e-%d.sock" (Unix.getpid ())) in
  (* Daemon start-ups: cold ones on a new empty cache, disk ones on the
     cache the previous cold start filled; the last one stays up for the
     mix.  Each counts from spawn: set-up until the loads return, first
     result until one request of every kind has been answered. *)
  let setup = ref [] and first = ref [] and disk = ref [] and scales = ref [] in
  let start kind cache =
    let c0 = Mix.client ~n ~seed ~index:0 in
    let (daemon, conn, setup_ms, first_ms), scale =
      Stats.gauged (fun () ->
          let t0 = Stats.now_ns () in
          let daemon, conn = spawn ~ogb_cli ~sock ~cache in
          let send = Server.Client.request conn in
          load_graphs ~tally ~send ~n ~seed;
          let setup_ms = Stats.ms_since t0 in
          one_of_each ~tally ~send refs c0;
          (daemon, conn, setup_ms, Stats.ms_since t0))
    in
    scales := scale :: !scales;
    (match kind with
    | `Cold ->
      setup := (setup_ms *. scale) :: !setup;
      first := (first_ms *. scale) :: !first
    | `Disk -> disk := (first_ms *. scale) :: !disk);
    { daemon; conn; c0 }
  in
  let schedule =
    if smoke then [ `Cold; `Disk ]
    else List.concat (List.init 4 (fun _ -> [ `Cold; `Disk ])) @ [ `Cold ]
  in
  let rec boot cache = function
    | [] -> assert false
    | kind :: rest ->
      let cache = match kind with `Cold -> Jitenv.fresh () | `Disk -> cache in
      let s = start kind cache in
      if rest = [] then s
      else begin
        Server.Client.close s.conn;
        stop s.daemon;
        boot cache rest
      end
  in
  let s = boot "" schedule in
  let clients = [ s.c0; Mix.client ~n ~seed ~index:1 ] in
  (* The mix: two closed-loop connections for [seconds].  Its times are
     not gauged: they are spent in the daemon and in socket round trips,
     and do not follow the in-process gauge (scaling by it widened the
     run-to-run spread of op_ms from about 6% to 13-30%). *)
  let mix ~seconds =
    let book = Book.create () and extra = Book.create () and rec_ = recorder () in
    let drive deadline c =
      match Server.Client.connect ~sock () with
      | Error e ->
        Book.attempt tally;
        Book.fail tally ("connect: " ^ e)
      | Ok conn ->
        let send = Server.Client.request conn in
        Span.with_ (Printf.sprintf "client%d" c.Mix.index) (fun parent ->
            while Stats.now_ns () < deadline do
              exchange ~tally ~book ~extra ~rec_ ~send ~parent refs (Mix.next refs c)
            done);
        Server.Client.close conn
    in
    let (), wall_ms =
      Stats.timed (fun () ->
          let deadline = Int64.add (Stats.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
          List.iter Thread.join (List.map (Thread.create (drive deadline)) clients))
    in
    (book, extra, rec_, wall_ms /. 1000.0)
  in
  let h0 = health ~tally s.conn in
  let half = if trace then seconds /. 2.0 else seconds in
  let book, extra, _, wall_s = mix ~seconds:half in
  let completed = List.length (List.concat_map (Book.samples book) (Book.labels book)) in
  let e2e =
    Book.tier_metrics book
    @ [ ("ops_per_s", float_of_int completed /. wall_s);
        ("first_result_ms", Stats.median !first);
        ("disk_warm_ms", Stats.median !disk);
        ("setup_s", Stats.median !setup /. 1000.0);
        ("peak_rss_mb", Stats.peak_rss_mb ~pid:(string_of_int s.daemon.pid) ()) ]
  in
  let layers =
    if not trace then []
    else begin
      Span.enabled := true;
      let tbook, textra, rec_, _ = mix ~seconds:half in
      let g = Algos.graph (Mix.graph_spec ~n ~seed) in
      let probes = Span.with_ "probes" (fun parent -> Probes.all g ~parent) in
      Span.enabled := false;
      let h1 = health ~tally s.conn in
      let get l k = Option.value ~default:0.0 (List.assoc_opt k l) in
      let delta section k = get (section h1) k -. get (section h0) k in
      let serve h = numbers (J.member "serve" h) and pool = health_section "pool" in
      let stats = get (health_section "stats" h1) in
      Printf.printf "per-layer self time (ms, traced run medians):\n";
      Book.print_layer_table tbook;
      Span.print_self_table (Span.all ());
      let overhead = 100.0 *. (Book.op_ms tbook -. Book.op_ms book) /. Book.op_ms book in
      Printf.printf "tracing overhead: %+.2f%% on op_ms\n" overhead;
      Book.layer_metrics tbook
      @ [ ("jit.lookups", stats "lookups");
          ("jit.memory_hits", stats "memory_hits");
          ("jit.disk_hits", stats "disk_hits");
          ("jit.compiles", stats "compiles");
          ("jit.compile_ms", 1000.0 *. stats "compile_seconds");
          ("exec.planner.searches", delta serve "planner_searches");
          ("exec.planner.cache_hits", delta serve "planner_cache_hits");
          ("pool.par_jobs", delta pool "par_jobs");
          ("pool.seq_jobs", delta pool "seq_jobs");
          ("pool.chunks", delta pool "chunks");
          ("pool.busy_ratio", delta pool "busy_seconds" /. (2.0 *. half)) ]
      @ probes
      @ serve_layer ~extra:textra ~before:(serve h0) ~after:(serve h1)
      @ wire_metrics rec_
      @ [ ("trace.overhead_pct", overhead) ]
    end
  in
  Server.Client.close s.conn;
  stop s.daemon;
  let detail =
    [ ("spec", J.Str (Mix.graph_spec ~n ~seed));
      ("clients", Num 2.0);
      ("gauge_scale", Book.summary_json !scales);
      ("setup_ms", Book.summary_json !setup);
      ("first_result_ms", Book.summary_json !first);
      ("disk_warm_ms", Book.summary_json !disk);
      ("kinds", Book.kinds_json book);
      ("read_ms",
        Obj
          [ ("p50", Num (Stats.percentile 50.0 (Book.samples extra "read")));
            ("p99", Num (Stats.percentile 99.0 (Book.samples extra "read")));
            ("n", Num (float_of_int (List.length (Book.samples extra "read")))) ]);
      ("write_ms",
        Obj
          [ ("p50", Num (Stats.percentile 50.0 (Book.samples extra "write")));
            ("n", Num (float_of_int (List.length (Book.samples extra "write")))) ]) ]
  in
  (tally, e2e @ layers, detail)
