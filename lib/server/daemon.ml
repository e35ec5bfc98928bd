open Gbtl

type config = {
  sock_path : string;
  tcp_addr : (string * int) option;
  workers : int;
  queue_cap : int;
  warm_n : int;
  warm : bool;
}

let env_int name default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> default)

(* Digits only: [int_of_string_opt] would also take "0x1f", "+80" or
   "1_000".  The range check matters because [Unix.bind] keeps only the
   low 16 bits of the port. *)
let parse_addr s =
  let host, port =
    match String.rindex_opt s ':' with
    | None -> ("", s)
    | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let host = if host = "" then "127.0.0.1" else host in
  if port = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') port)
  then Error (Printf.sprintf "address %S: expected port, :port or host:port" s)
  else
    match int_of_string_opt port with
    | Some p when p >= 1 && p <= 65535 -> Ok (host, p)
    | _ -> Error (Printf.sprintf "address %S: port outside 1..65535" s)

let default_sock () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ogb-serve-%d.sock" (Unix.getuid ()))

let default_config () =
  { sock_path =
      (match Sys.getenv_opt "OGB_SERVE_SOCK" with
      | Some p when p <> "" -> p
      | _ -> default_sock ());
    tcp_addr =
      Option.bind (Sys.getenv_opt "OGB_SERVE_ADDR") (fun a ->
          match parse_addr a with
          | Ok hp -> Some hp
          | Error e ->
            Printf.eprintf "ogb serve: ignoring OGB_SERVE_ADDR: %s\n%!" e;
            None);
    workers = max 1 (env_int "OGB_SERVE_WORKERS" 4);
    queue_cap = max 1 (env_int "OGB_SERVE_QUEUE" 16);
    warm_n = max 2 (env_int "OGB_SERVE_WARM_N" 256);
    warm = Sys.getenv_opt "OGB_SERVE_NO_WARM" = None }

(* -- state -- *)

(* A queued unit of work: the request plus where to send the answer.
   [reply] is transport-supplied (socket write, or a test's collector);
   [fatal] tells the transport to tear the session's connection down. *)
type job = {
  j_session : Session.t;
  j_req : Json.t;
  j_reply : Json.t -> unit;
  j_fatal_close : unit -> unit;
}

type state = {
  cfg : config;
  reg : Registry.t;
  queue : job Admission.t;
  slock : Mutex.t;
  mutable sessions_total : int;
  mutable sessions_active : int;
  mutable requests : int;
  mutable errors : int;
  mutable accept_failures : int;
  mutable session_kills : int;
  mutable warm_sigs : int;
  mutable warm_compiles : int;
  shutdown_req : bool Atomic.t;
}

let registry s = s.reg
let shutdown_requested s = Atomic.get s.shutdown_req

let bump s f = Mutex.protect s.slock (fun () -> f s)

let serve_counters s =
  Mutex.protect s.slock (fun () ->
      [ ("sessions", s.sessions_total);
        ("active", s.sessions_active);
        ("requests", s.requests);
        ("errors", s.errors);
        ("accept_failures", s.accept_failures);
        ("session_kills", s.session_kills);
        ("warm_sigs", s.warm_sigs);
        ("warm_compiles", s.warm_compiles);
        ("queue_depth", Admission.depth s.queue) ])
  @ (let sh = List.assoc "shed" (Admission.counters s.queue) in
     [ ("shed", sh) ])

(* Warm the JIT over every kernel signature the tier-1 encodings can
   reach at vertex count [n]; repeated per [load] at the real graph
   size so steady-state runs compile nothing. *)
let warm_at s n =
  let module T1 = Analysis.Tier1 in
  let seen = Hashtbl.create 64 in
  let sigs =
    List.concat_map
      (fun e ->
        List.filter
          (fun k ->
            let key = Jit.Kernel_sig.key k in
            if Hashtbl.mem seen key then false
            else begin
              Hashtbl.add seen key ();
              true
            end)
          (T1.signatures e ~n))
      T1.all
  in
  let outcomes = Analysis.Warmup.warm sigs in
  let compiled =
    List.length
      (List.filter
         (fun (o : Analysis.Warmup.outcome) ->
           o.Analysis.Warmup.status = Analysis.Warmup.Compiled)
         outcomes)
  in
  bump s (fun s ->
      s.warm_sigs <- s.warm_sigs + List.length sigs;
      s.warm_compiles <- s.warm_compiles + compiled);
  (List.length sigs, compiled)

let create_state cfg =
  let s =
    { cfg;
      reg = Registry.create ();
      queue = Admission.create ~cap:cfg.queue_cap;
      slock = Mutex.create ();
      sessions_total = 0;
      sessions_active = 0;
      requests = 0;
      errors = 0;
      accept_failures = 0;
      session_kills = 0;
      warm_sigs = 0;
      warm_compiles = 0;
      shutdown_req = Atomic.make false }
  in
  if cfg.warm then ignore (warm_at s cfg.warm_n);
  s

(* -- request handling -- *)

let ok id fields = Json.Obj (("id", id) :: ("status", Json.Str "ok") :: fields)

let err ?(fatal = false) id msg =
  Json.Obj
    (("id", id) :: ("status", Json.Str "error")
    :: ("error", Json.Str msg)
    :: (if fatal then [ ("fatal", Json.Bool true) ] else []))

let shed_response id =
  Json.Obj
    [ ("id", id);
      ("status", Json.Str "shed");
      ("error", Json.Str "admission queue full; retry later") ]

let entries_json entries =
  Json.Arr
    (List.map
       (fun (i, x) ->
         Json.Arr [ Json.Num (float_of_int i); Json.Num x ])
       entries)

let require_str req field =
  match Json.str_field field req with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing string field %S" field)

let find_graph s name =
  match Registry.find s.reg name with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "no graph named %S (load it first)" name)

(* Wire indices arrive as JSON numbers.  int_of_float would silently
   truncate 2.7 to 2 (and map NaN to an unspecified int): a malformed
   index must be rejected, not become a different entry.  [where] names
   the offending value for the error reply; it is only built on
   failure. *)
let wire_index ~where x =
  if Float.is_integer x && Float.abs x < 1e15 then int_of_float x
  else failwith (Printf.sprintf "%s %g is not an integer" (where ()) x)

let parse_vector req ~n =
  match Json.member "vector" req with
  | None | Some (Json.Str "ones") ->
    Ok (Svector.of_dense Dtype.FP64 (Array.make n 1.0))
  | Some (Json.Arr elems) -> (
    try
      Ok
        (Svector.of_coo Dtype.FP64 n
           (List.mapi
              (fun k e ->
                match e with
                | Json.Arr [ Json.Num i; Json.Num x ] ->
                  let i =
                    wire_index i ~where:(fun () ->
                        Printf.sprintf "vector[%d]: index" k)
                  in
                  if i < 0 || i >= n then
                    failwith
                      (Printf.sprintf
                         "vector[%d]: index %d out of range for length %d" k i
                         n);
                  (i, x)
                | _ -> failwith "vector entries must be [index, value] pairs")
              elems))
    with Failure m | Invalid_argument m -> Error m)
  | Some _ -> Error "vector must be \"ones\" or a list of [index, value]"

let truncate_top req entries =
  match Json.int_field "top" req with
  | Some t when t > 0 -> List.filteri (fun i _ -> i < t) entries
  | Some _ -> entries
  | None -> List.filteri (fun i _ -> i < 10) entries

let handle_run s id req =
  let module W = Algorithms.Registry in
  let ( let* ) r f = match r with Error e -> err id e | Ok v -> f v in
  let* algo = require_str req "algo" in
  let tier = Option.value ~default:"vm" (Json.str_field "tier" req) in
  let* name = require_str req "graph" in
  let* m = find_graph s name in
  let src = Option.value ~default:0 (Json.int_field "src" req) in
  match W.lookup ~algo ~tier with
  | None -> err id (Printf.sprintf "unsupported algorithm/tier %s/%s" algo tier)
  | Some (e, t) -> (
    let o = e.run t m ~src in
    let ms = ("ms", Json.Num o.ms) in
    match o.result with
    | W.Entries { entries; iters } ->
      ok id
        ((ms
         :: (match iters with
            | Some k -> [ ("iters", Json.Num (float_of_int k)) ]
            | None -> []))
        @ [ ("result", entries_json (truncate_top req entries)) ])
    | W.Count c -> ok id [ ms; ("value", Json.Num (float_of_int c)) ])

let context_entry_of_json req =
  match Json.str_field "kind" req with
  | Some "semiring" -> (
    match Json.str_field "name" req with
    | Some n -> (
      try Ok (Ogb.Context.semiring n)
      with Semiring.Unknown_semiring _ ->
        Error (Printf.sprintf "unknown semiring %S" n))
    | None -> Error "semiring entry needs a name")
  | Some "monoid" -> (
    match (Json.str_field "op" req, Json.str_field "identity" req) with
    | Some op, Some identity -> Ok (Ogb.Context.monoid ~op ~identity)
    | _ -> Error "monoid entry needs op and identity")
  | Some "binary" -> (
    match Json.str_field "name" req with
    | Some n -> Ok (Ogb.Context.binary n)
    | None -> Error "binary entry needs a name")
  | Some "unary" -> (
    match Json.str_field "name" req with
    | Some n -> Ok (Ogb.Context.unary n)
    | None -> Error "unary entry needs a name")
  | Some "accum" -> (
    match Json.str_field "name" req with
    | Some n -> Ok (Ogb.Context.accum n)
    | None -> Error "accum entry needs a name")
  | Some "replace" -> Ok Ogb.Context.replace
  | Some k -> Error (Printf.sprintf "unknown context entry kind %S" k)
  | None -> Error "context push needs an entry {kind, ...}"

let handle_context id req =
  match Json.str_field "action" req with
  | Some "push" -> (
    match
      match Json.member "entry" req with
      | Some e -> context_entry_of_json e
      | None -> Error "context push needs an entry object"
    with
    | Error e -> err id e
    | Ok entry ->
      Ogb.Context.push entry;
      ok id [ ("depth", Json.Num (float_of_int (Ogb.Context.depth ()))) ])
  | Some "pop" ->
    if Ogb.Context.depth () = 0 then err id "context stack is empty"
    else begin
      Ogb.Context.pop ();
      ok id [ ("depth", Json.Num (float_of_int (Ogb.Context.depth ()))) ]
    end
  | Some "clear" ->
    Ogb.Context.reset ();
    ok id [ ("depth", Json.Num 0.0) ]
  | Some a -> err id (Printf.sprintf "unknown context action %S" a)
  | None -> err id "context needs an action (push|pop|clear)"

let handle_product s id req ~which =
  let ( let* ) r f = match r with Error e -> err id e | Ok v -> f v in
  let* name = require_str req "graph" in
  let* m = find_graph s name in
  let transpose = Json.bool_field "transpose" req in
  let n =
    (* operand length: y = A u wants ncols, y = Aᵀ u wants nrows;
       u A wants nrows, u Aᵀ wants ncols *)
    match (which, transpose) with
    | `Mxv, false | `Vxm, true -> Smatrix.ncols m
    | `Mxv, true | `Vxm, false -> Smatrix.nrows m
  in
  let* u = parse_vector req ~n in
  (* The operator comes from the session's context stack — the DSL's
     [with] semantics carried over the wire. *)
  let sr = Ogb.Context.current_semiring () in
  (* A kernel exception answers this request with an error; letting it
     reach [handle] could read as an injected fault and kill the session. *)
  match
    Entries.to_alist
      (match which with
      | `Mxv -> Jit.Kernels.mxv Dtype.FP64 sr ~transpose m u
      | `Vxm -> Jit.Kernels.vxm Dtype.FP64 sr ~transpose u m)
  with
  | entries ->
    ok id
      [ ("n", Json.Num (float_of_int (Svector.size u)));
        ("nvals", Json.Num (float_of_int (List.length entries)));
        ("result", entries_json entries) ]
  | exception e -> err id (Printexc.to_string e)

let handle_health s id req =
  let probe = Json.bool_field ~default:true "probe" req in
  let report = Jit.Health.collect ~probe () in
  let health_json =
    (* doctor --json, verbatim, as a structured member *)
    try Json.parse (Jit.Health.to_json report)
    with Json.Parse_error e -> Json.Str ("unparseable health report: " ^ e)
  in
  ok id
    [ ("healthy", Json.Bool (Jit.Health.healthy report));
      ("verdict", Json.Str (Jit.Health.verdict_string report));
      ("health", health_json);
      ( "serve",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Num (float_of_int v)))
             (serve_counters s)) ) ]

let handle_load s id req =
  let ( let* ) r f = match r with Error e -> err id e | Ok v -> f v in
  let* name = require_str req "name" in
  let* spec = require_str req "graph" in
  let symmetrize = Json.bool_field "symmetrize" req in
  let* m = Registry.load s.reg ~name ~spec ~symmetrize in
  let warmed, compiled =
    if s.cfg.warm then warm_at s (max 2 (Smatrix.nrows m)) else (0, 0)
  in
  ok id
    [ ("name", Json.Str name);
      ("vertices", Json.Num (float_of_int (Smatrix.nrows m)));
      ("edges", Json.Num (float_of_int (Smatrix.nvals m)));
      ("warmed_signatures", Json.Num (float_of_int warmed));
      ("warm_compiles", Json.Num (float_of_int compiled)) ]

(* Edge batches arrive as [[r, c, v]] (upsert) / [[r, c]] (delete)
   triples; the registry applies them copy-on-write so in-flight
   computations on the old matrix are unaffected. *)
let parse_batch req =
  let coord which i x =
    wire_index x ~where:(fun () ->
        Printf.sprintf "edges[%d]: %s coordinate" i which)
  in
  match Json.member "edges" req with
  | Some (Json.Arr elems) -> (
    try
      Ok
        (List.mapi
           (fun i e ->
             match e with
             | Json.Arr [ Json.Num r; Json.Num c; Json.Num v ] ->
               (coord "row" i r, coord "col" i c, Some v)
             | Json.Arr [ Json.Num r; Json.Num c ] ->
               (coord "row" i r, coord "col" i c, None)
             | _ ->
               failwith
                 (Printf.sprintf
                    "edges[%d]: entries must be [row, col, value] or [row, \
                     col]"
                    i))
           elems)
    with Failure m -> Error m)
  | Some _ | None -> Error "update needs an \"edges\" list"

let handle_update s id req =
  let ( let* ) r f = match r with Error e -> err id e | Ok v -> f v in
  let* name = require_str req "name" in
  let* batch = parse_batch req in
  let* m, additions, deletions = Registry.update s.reg ~name ~batch in
  ok id
    [ ("name", Json.Str name);
      ("vertices", Json.Num (float_of_int (Smatrix.nrows m)));
      ("edges", Json.Num (float_of_int (Smatrix.nvals m)));
      ("additions", Json.Num (float_of_int additions));
      ("deletions", Json.Num (float_of_int deletions)) ]

let handle_stats s id =
  let st = Jit.Jit_stats.snapshot () in
  ok id
    [ ( "serve",
        Json.Obj
          (List.map
             (fun (k, v) -> (k, Json.Num (float_of_int v)))
             (serve_counters s)) );
      ( "jit",
        Json.Obj
          [ ("lookups", Json.Num (float_of_int st.Jit.Jit_stats.lookups));
            ( "memory_hits",
              Json.Num (float_of_int st.Jit.Jit_stats.memory_hits) );
            ("disk_hits", Json.Num (float_of_int st.Jit.Jit_stats.disk_hits));
            ("compiles", Json.Num (float_of_int st.Jit.Jit_stats.compiles));
            ( "warm_compiles",
              Json.Num (float_of_int st.Jit.Jit_stats.warm_compiles) ) ] ) ]

let dispatch s session id req =
  match Json.str_field "op" req with
  | None -> err id "request needs an \"op\" field"
  | Some op -> (
    match op with
    | "ping" -> ok id [ ("pong", Json.Bool true) ]
    | "load" -> handle_load s id req
    | "update" -> handle_update s id req
    | "graphs" ->
      ok id
        [ ( "graphs",
            Json.Arr
              (List.map
                 (fun (name, v, e) ->
                   Json.Obj
                     [ ("name", Json.Str name);
                       ("vertices", Json.Num (float_of_int v));
                       ("edges", Json.Num (float_of_int e)) ])
                 (Registry.names s.reg)) ) ]
    | "run" -> handle_run s id req
    | "mxv" -> handle_product s id req ~which:`Mxv
    | "vxm" -> handle_product s id req ~which:`Vxm
    | "context" -> handle_context id req
    | "health" -> handle_health s id req
    | "stats" -> handle_stats s id
    | "session" ->
      ok id
        [ ("session", Json.Num (float_of_int session.Session.id));
          ("requests", Json.Num (float_of_int session.Session.requests));
          ( "context_depth",
            Json.Num (float_of_int (List.length session.Session.ctx)) ) ]
    | "shutdown" ->
      Atomic.set s.shutdown_req true;
      ok id [ ("stopping", Json.Bool true) ]
    | op -> err id (Printf.sprintf "unknown op %S" op))

let handle s session req =
  let id = Option.value ~default:Json.Null (Json.member "id" req) in
  Mutex.protect session.Session.lock (fun () ->
      session.Session.requests <- session.Session.requests + 1;
      bump s (fun s -> s.requests <- s.requests + 1);
      let resp =
        try
          if Fault.fire "serve.session.exn" then
            raise (Fault.Injected "serve.session.exn");
          Session.with_context session (fun () -> dispatch s session id req)
        with
        | Fault.Injected _ ->
          bump s (fun s -> s.session_kills <- s.session_kills + 1);
          err ~fatal:true id "injected fault: serve.session.exn (session closed)"
        | e -> err id (Printexc.to_string e)
      in
      (match resp with
      | Json.Obj kvs when List.assoc_opt "status" kvs = Some (Json.Str "error")
        ->
        session.Session.errors <- session.Session.errors + 1;
        bump s (fun s -> s.errors <- s.errors + 1)
      | _ -> ());
      resp)

(* -- the daemon -- *)

type cconn = {
  wire : Wire.conn;
  wlock : Mutex.t;
  c_session : Session.t;
  mutable alive : bool;
}

type running = {
  r_state : state;
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  stopped : bool Atomic.t;
  mutable listeners : Unix.file_descr list;
  clock : Mutex.t;
  mutable conns : cconn list;
  mutable threads : Thread.t list;
  mutable accept_d : unit Domain.t option;
  mutable workers_d : unit Domain.t list;
}

let state_of r = r.r_state

let stop r =
  if not (Atomic.exchange r.stopped true) then
    (* one byte on the self-pipe; safe from a signal handler *)
    try ignore (Unix.write r.stop_w (Bytes.make 1 's') 0 1)
    with Unix.Unix_error _ -> ()

let send_resp conn resp =
  Mutex.protect conn.wlock (fun () ->
      if conn.alive then
        match Wire.send_line conn.wire (Json.to_string resp) with
        | Ok () -> ()
        | Error _ ->
          (* peer vanished mid-response; its reader will see EOF *)
          ())

let close_conn r conn =
  let was_alive =
    Mutex.protect conn.wlock (fun () ->
        let w = conn.alive in
        conn.alive <- false;
        w)
  in
  if was_alive then begin
    conn.c_session.Session.closed <- true;
    Wire.shutdown conn.wire;
    Wire.close conn.wire;
    Mutex.protect r.clock (fun () ->
        r.conns <- List.filter (fun c -> c != conn) r.conns);
    bump r.r_state (fun s -> s.sessions_active <- s.sessions_active - 1)
  end

let worker_loop r =
  let s = r.r_state in
  let rec go () =
    match Admission.take s.queue with
    | None -> ()
    | Some job ->
      let resp = handle s job.j_session job.j_req in
      job.j_reply resp;
      (match resp with
      | Json.Obj kvs when List.assoc_opt "fatal" kvs = Some (Json.Bool true)
        ->
        job.j_fatal_close ()
      | _ -> ());
      if Atomic.get s.shutdown_req then stop r;
      go ()
  in
  go ()

let reader_loop r conn =
  let s = r.r_state in
  let rec go () =
    match Wire.recv_line conn.wire with
    | `Eof | `Timeout -> ()
    | `Line l ->
      if String.trim l = "" then go ()
      else begin
        (match Json.parse l with
        | exception Json.Parse_error m ->
          send_resp conn (err Json.Null ("bad request: " ^ m))
        | req ->
          let job =
            { j_session = conn.c_session;
              j_req = req;
              j_reply = (fun resp -> send_resp conn resp);
              j_fatal_close = (fun () -> close_conn r conn) }
          in
          if not (Admission.offer s.queue job) then
            send_resp conn
              (shed_response
                 (Option.value ~default:Json.Null (Json.member "id" req))));
        go ()
      end
  in
  (try go () with _ -> ());
  close_conn r conn

let accept_loop r =
  let s = r.r_state in
  let rec go () =
    let readable =
      match
        Wire.retry_eintr (fun () ->
            Unix.select (r.stop_r :: r.listeners) [] [] (-1.0))
      with
      | rs, _, _ -> rs
      | exception Unix.Unix_error _ -> [ r.stop_r ]
    in
    if List.mem r.stop_r readable || Atomic.get r.stopped then ()
    else begin
      List.iter
        (fun lfd ->
          if List.mem lfd readable then
            match Wire.retry_eintr (fun () -> Unix.accept ~cloexec:true lfd) with
            | exception Unix.Unix_error _ ->
              bump s (fun s -> s.accept_failures <- s.accept_failures + 1)
            | fd, _ ->
              if Fault.fire "serve.accept.exn" then begin
                (* the injected accept failure costs this connection
                   only; the loop (and every other session) lives on *)
                bump s (fun s -> s.accept_failures <- s.accept_failures + 1);
                try Unix.close fd with Unix.Unix_error _ -> ()
              end
              else begin
                let conn =
                  { wire = Wire.conn fd;
                    wlock = Mutex.create ();
                    c_session = Session.create ();
                    alive = true }
                in
                Mutex.protect r.clock (fun () ->
                    r.conns <- conn :: r.conns;
                    let t = Thread.create (fun () -> reader_loop r conn) () in
                    r.threads <- t :: r.threads);
                bump s (fun s ->
                    s.sessions_total <- s.sessions_total + 1;
                    s.sessions_active <- s.sessions_active + 1)
              end)
        r.listeners;
      go ()
    end
  in
  go ()

let listen_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
    (* stale socket from a dead daemon; a live one would error on bind
       anyway, so removal only races other starting daemons *)
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp (host, port) =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_loopback
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let start cfg =
  Wire.ignore_sigpipe ();
  match
    let unix_fd = listen_unix cfg.sock_path in
    let listeners =
      match cfg.tcp_addr with
      | None -> [ unix_fd ]
      | Some a -> (
        match listen_tcp a with
        | tcp_fd -> [ unix_fd; tcp_fd ]
        | exception Unix.Unix_error (e, _, _) ->
          Unix.close unix_fd;
          raise
            (Failure
               (Printf.sprintf "tcp listen failed: %s" (Unix.error_message e))))
    in
    let state = create_state cfg in
    let stop_r, stop_w = Unix.pipe ~cloexec:true () in
    let r =
      { r_state = state;
        stop_r;
        stop_w;
        stopped = Atomic.make false;
        listeners;
        clock = Mutex.create ();
        conns = [];
        threads = [];
        accept_d = None;
        workers_d = [] }
    in
    r.workers_d <-
      List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop r));
    r.accept_d <- Some (Domain.spawn (fun () -> accept_loop r));
    r
  with
  | r -> Ok r
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Failure m -> Error m

let wait r =
  (match r.accept_d with
  | Some d ->
    Domain.join d;
    r.accept_d <- None
  | None -> ());
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    r.listeners;
  r.listeners <- [];
  Admission.close r.r_state.queue;
  List.iter Domain.join r.workers_d;
  r.workers_d <- [];
  let conns = Mutex.protect r.clock (fun () -> r.conns) in
  List.iter (fun c -> close_conn r c) conns;
  let threads = Mutex.protect r.clock (fun () -> r.threads) in
  List.iter (fun t -> try Thread.join t with _ -> ()) threads;
  (try Unix.close r.stop_r with Unix.Unix_error _ -> ());
  (try Unix.close r.stop_w with Unix.Unix_error _ -> ());
  try Unix.unlink r.r_state.cfg.sock_path with Unix.Unix_error _ -> ()
