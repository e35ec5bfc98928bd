(* Server suite: the daemon's in-process core driven from concurrent
   domains — shared JIT cache across sessions (bit-identical results,
   no duplicate compiles), operator-context isolation between sessions,
   admission shed, the serve.* fault containment points, the wire codec,
   [host:port] parsing, and one real socket round trip. *)

open Gbtl
module Pool = Parallel.Pool
module J = Server.Json
module D = Server.Daemon

let f64 = Dtype.FP64

(* Fresh cache + closure backend (fast deterministic compiles), restored
   afterwards; stats reset so compile counters start at zero. *)
let with_fresh_jit f =
  let saved_dir = Jit.Disk_cache.dir () in
  let saved_backend = Jit.Dispatch.backend () in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogb-serve-test-%d-%d" (Unix.getpid ())
         (Random.int 100000))
  in
  Jit.Disk_cache.set_dir dir;
  Jit.Dispatch.set_backend Jit.Dispatch.Closure;
  Jit.Dispatch.clear_memory_cache ();
  Jit.Jit_stats.reset ();
  Fun.protect
    ~finally:(fun () ->
      Jit.Disk_cache.clear ();
      Jit.Disk_cache.set_dir saved_dir;
      Jit.Dispatch.set_backend saved_backend;
      Jit.Dispatch.clear_memory_cache ();
      Jit.Jit_stats.reset ())
    f

let with_domains n f =
  Pool.set_domains n;
  Fun.protect ~finally:Pool.clear_domains_override f

let mk_state ?(warm = false) () =
  D.create_state
    { D.sock_path = "/tmp/ogb-serve-test-unused.sock";
      tcp_addr = None;
      workers = 2;
      queue_cap = 16;
      warm_n = 32;
      warm }

let handle st sess s = D.handle st sess (J.parse s)

let status resp =
  match J.str_field "status" resp with Some s -> s | None -> "?"

let check_ok what resp =
  if status resp <> "ok" then
    Alcotest.failf "%s: expected ok, got %s" what (J.to_string resp)

let result_of resp =
  match J.member "result" resp with
  | Some r -> J.to_string r
  | None -> (
    match J.member "value" resp with
    | Some v -> J.to_string v
    | None -> Alcotest.failf "no result in %s" (J.to_string resp))

(* ---- json codec ---- *)

let test_json_roundtrip () =
  let cases =
    [ "{\"op\": \"ping\", \"id\": 3}";
      "{\"a\": [1, 2.5, -3], \"b\": {\"c\": true, \"d\": null}}";
      "{\"s\": \"line\\nbreak \\\"quoted\\\"\"}";
      "[]";
      "{\"neg\": -0.125, \"big\": 1e6}" ]
  in
  List.iter
    (fun s ->
      let once = J.to_string (J.parse s) in
      let twice = J.to_string (J.parse once) in
      Alcotest.(check string) ("stable: " ^ s) once twice)
    cases;
  (match J.parse "{\"x\": 1}" with
  | J.Obj [ ("x", J.Num 1.0) ] -> ()
  | j -> Alcotest.failf "unexpected parse %s" (J.to_string j));
  List.iter
    (fun bad ->
      match J.parse bad with
      | exception J.Parse_error _ -> ()
      | j -> Alcotest.failf "accepted %S as %s" bad (J.to_string j))
    [ "{"; "{\"a\" 1}"; "tru"; "{\"a\": 1} extra" ]

(* ---- wire framing over a real socketpair ---- *)

let test_wire_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Server.Wire.conn a and cb = Server.Wire.conn b in
  (match Server.Wire.send_line ca "{\"op\": \"ping\"}" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "send failed: %s" e);
  ignore (Server.Wire.send_line ca "second");
  (match Server.Wire.recv_line cb with
  | `Line l -> Alcotest.(check string) "first line" "{\"op\": \"ping\"}" l
  | _ -> Alcotest.fail "expected first line");
  (match Server.Wire.recv_line cb with
  | `Line l -> Alcotest.(check string) "second line" "second" l
  | _ -> Alcotest.fail "expected second line");
  (match Server.Wire.recv_line ~timeout_s:0.05 cb with
  | `Timeout -> ()
  | _ -> Alcotest.fail "expected timeout on idle socket");
  (* a final unterminated line is still delivered before EOF *)
  let partial = Bytes.of_string "tail-no-newline" in
  ignore (Unix.write a partial 0 (Bytes.length partial));
  Unix.close a;
  (match Server.Wire.recv_line cb with
  | `Line l -> Alcotest.(check string) "partial tail" "tail-no-newline" l
  | _ -> Alcotest.fail "expected trailing partial line");
  (match Server.Wire.recv_line cb with
  | `Eof -> ()
  | _ -> Alcotest.fail "expected EOF");
  (* writing to a closed peer reports an error instead of raising *)
  Server.Wire.ignore_sigpipe ();
  (match Server.Wire.send_line cb "into the void" with
  | Ok () | Error _ -> ());
  (match Server.Wire.send_line cb "definitely gone" with
  | Error _ -> ()
  | Ok () -> ());
  Unix.close b

(* ---- admission queue ---- *)

let test_admission () =
  let module Q = Server.Admission in
  let q = Q.create ~cap:2 in
  Alcotest.(check bool) "offer 1" true (Q.offer q 1);
  Alcotest.(check bool) "offer 2" true (Q.offer q 2);
  Alcotest.(check bool) "offer 3 sheds" false (Q.offer q 3);
  Alcotest.(check int) "depth" 2 (Q.depth q);
  Alcotest.(check (option int)) "take 1" (Some 1) (Q.take q);
  Alcotest.(check bool) "offer 4 after drain" true (Q.offer q 4);
  Alcotest.(check (option int)) "take 2" (Some 2) (Q.take q);
  Alcotest.(check (option int)) "take 4" (Some 4) (Q.take q);
  (* a blocked taker wakes with None on close *)
  let got = Atomic.make (Some 99) in
  let d = Domain.spawn (fun () -> Atomic.set got (Q.take q)) in
  Unix.sleepf 0.05;
  Q.close q;
  Domain.join d;
  Alcotest.(check (option int)) "closed take" None (Atomic.get got);
  Alcotest.(check bool) "offer after close sheds" false (Q.offer q 5);
  let shed = List.assoc "shed" (Q.counters q) in
  Alcotest.(check int) "shed counter" 2 shed

(* ---- registry ---- *)

let test_registry () =
  let r = Server.Registry.create () in
  (match Server.Registry.load r ~name:"g" ~spec:"path:n=8" ~symmetrize:false with
  | Ok m -> Alcotest.(check int) "vertices" 8 (Smatrix.nrows m)
  | Error e -> Alcotest.fail e);
  (match Server.Registry.load r ~name:"g" ~spec:"path:n=4" ~symmetrize:false with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rebinding a live graph name must be refused");
  (match Server.Registry.load r ~name:"bad" ~spec:"zzz:n=4" ~symmetrize:false with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown generator must error");
  Alcotest.(check int) "one graph" 1 (List.length (Server.Registry.names r))

(* ---- multi-session shared cache: bit-identity + no duplicate compiles ---- *)

let mixed_requests =
  [ "{\"op\": \"mxv\", \"graph\": \"g\", \"vector\": \"ones\"}";
    "{\"op\": \"vxm\", \"graph\": \"g\", \"vector\": \"ones\"}";
    "{\"op\": \"mxv\", \"graph\": \"g\", \"vector\": \"ones\", \
     \"transpose\": true}";
    "{\"op\": \"run\", \"algo\": \"bfs\", \"tier\": \"vm\", \"graph\": \
     \"g\", \"src\": 0}";
    "{\"op\": \"run\", \"algo\": \"pagerank\", \"tier\": \"vm\", \"graph\": \
     \"g\"}" ]

let test_shared_cache_sessions () =
  Fault.suspended @@ fun () ->
  with_fresh_jit @@ fun () ->
  with_domains 4 @@ fun () ->
  let st = mk_state () in
  let loader = Server.Session.create () in
  check_ok "load"
    (handle st loader
       "{\"op\": \"load\", \"name\": \"g\", \"graph\": \"er:n=128\", \
        \"symmetrize\": true}");
  (* cold phase: 4 concurrent sessions, mixed signatures, one shared
     dispatch table *)
  let run_all () =
    List.map (fun r -> result_of (handle st (Server.Session.create ()) r))
      mixed_requests
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn run_all) in
  let concurrent = Array.map Domain.join doms in
  let compiles_cold = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.compiles in
  Alcotest.(check bool) "cold phase compiled something" true
    (compiles_cold > 0);
  (* warm phase: a fresh single session finds everything cached *)
  let sequential = run_all () in
  let compiles_warm = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.compiles in
  Alcotest.(check int) "no duplicate compiles after concurrent warm"
    compiles_cold compiles_warm;
  (* bit-identical results: every session of the concurrent fan-out
     matches the sequential single-session reference *)
  Array.iteri
    (fun d results ->
      List.iteri
        (fun i (seq, conc) ->
          Alcotest.(check string)
            (Printf.sprintf "session %d request %d" d i)
            seq conc)
        (List.combine sequential results))
    concurrent;
  let hits = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.memory_hits in
  Alcotest.(check bool) "shared memory cache hit" true (hits > 0)

(* ---- operator-context isolation between sessions ---- *)

let test_context_isolation () =
  Fault.suspended @@ fun () ->
  with_fresh_jit @@ fun () ->
  let st = mk_state () in
  let a = Server.Session.create () and b = Server.Session.create () in
  check_ok "load"
    (handle st a
       "{\"op\": \"load\", \"name\": \"k\", \"graph\": \"complete:n=16\"}");
  check_ok "push"
    (handle st a
       "{\"op\": \"context\", \"action\": \"push\", \"entry\": {\"kind\": \
        \"semiring\", \"name\": \"MinPlus\"}}");
  let mxv = "{\"op\": \"mxv\", \"graph\": \"k\", \"vector\": \"ones\"}" in
  let ra = handle st a mxv and rb = handle st b mxv in
  check_ok "mxv A" ra;
  check_ok "mxv B" rb;
  (* A computes under MinPlus (min over 1+1 = 2), B under the default
     Arithmetic (row sums = 15) — B must not see A's context *)
  Alcotest.(check bool) "different semirings, different results" true
    (result_of ra <> result_of rb);
  let expected_b =
    Entries.to_alist
      (Jit.Kernels.mxv f64 Jit.Op_spec.arithmetic ~transpose:false
         (match Server.Registry.find (D.registry st) "k" with
         | Some m -> m
         | None -> Alcotest.fail "graph lost")
         (Svector.of_dense f64 (Array.make 16 1.0)))
  in
  List.iter2
    (fun (i, x) (i', x') ->
      Alcotest.(check int) "idx" i i';
      Alcotest.(check (float 0.0)) "val" x x')
    expected_b
    (match J.member "result" rb with
    | Some (J.Arr l) ->
      List.map
        (fun e ->
          match e with
          | J.Arr [ J.Num i; J.Num x ] -> (int_of_float i, x)
          | _ -> Alcotest.fail "bad entry")
        l
    | _ -> Alcotest.fail "no result");
  (* the context survives across A's requests, stays at depth 1, and
     B's stack is empty *)
  let depth sess =
    match
      J.member "context_depth" (handle st sess "{\"op\": \"session\"}")
    with
    | Some (J.Num d) -> int_of_float d
    | _ -> Alcotest.fail "no context_depth"
  in
  Alcotest.(check int) "A depth" 1 (depth a);
  Alcotest.(check int) "B depth" 0 (depth b);
  check_ok "pop"
    (handle st a "{\"op\": \"context\", \"action\": \"pop\"}");
  Alcotest.(check int) "A depth after pop" 0 (depth a)

(* ---- update op: malformed coordinates are rejected, not truncated ---- *)

let test_update_rejects_fractional_coords () =
  with_fresh_jit @@ fun () ->
  let st = mk_state () in
  let sess = Server.Session.create () in
  check_ok "load"
    (handle st sess
       "{\"op\": \"load\", \"name\": \"g\", \"graph\": \"path:n=8\"}");
  (* int_of_float would have turned [1.7, 2.3] into edge (1, 2) *)
  let r =
    handle st sess
      "{\"op\": \"update\", \"name\": \"g\", \"edges\": [[1.7, 2.3, 1.0]]}"
  in
  Alcotest.(check string) "fractional coordinates rejected" "error" (status r);
  let r =
    handle st sess
      "{\"op\": \"update\", \"name\": \"g\", \"edges\": [[1, 2.5]]}"
  in
  Alcotest.(check string) "fractional delete rejected" "error" (status r);
  check_ok "integral coordinates accepted"
    (handle st sess
       "{\"op\": \"update\", \"name\": \"g\", \"edges\": [[1, 3, 1.0]]}")

(* ---- run: every algorithm the registry lists, at every tier ---- *)

(* What the daemon must answer for [e] at [t]: the registry's own run
   on the same graph, in the response's field layout. *)
let expected_fields (e : Algorithms.Registry.entry) t m =
  let num x = J.Num x in
  match (e.run t m ~src:0).result with
  | Algorithms.Registry.Entries { entries; iters } ->
    (match iters with
    | Some k -> [ ("iters", num (float_of_int k)) ]
    | None -> [])
    @ [ ( "result",
          J.Arr
            (List.map
               (fun (i, x) -> J.Arr [ num (float_of_int i); num x ])
               entries) ) ]
  | Algorithms.Registry.Count c -> [ ("value", num (float_of_int c)) ]

let test_run_every_registered_tier () =
  with_fresh_jit @@ fun () ->
  let st = mk_state () in
  let sess = Server.Session.create () in
  let spec = "er:n=64" in
  check_ok "load"
    (handle st sess
       (Printf.sprintf
          "{\"op\": \"load\", \"name\": \"g\", \"graph\": %S, \
           \"symmetrize\": true}"
          spec));
  let m =
    match Server.Graph_spec.load_fp64 spec ~symmetrize:true with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let run algo tier =
    handle st sess
      (Printf.sprintf
         "{\"op\": \"run\", \"algo\": %S, \"tier\": %S, \"graph\": \"g\", \
          \"top\": 0}"
         algo tier)
  in
  List.iter
    (fun (e : Algorithms.Registry.entry) ->
      List.iter
        (fun t ->
          let tier = Algorithms.Registry.tier_name t in
          let what = Printf.sprintf "%s/%s" e.name tier in
          let resp = run e.name tier in
          check_ok what resp;
          let fields =
            match resp with
            | J.Obj kvs ->
              List.filter
                (fun (k, _) -> not (List.mem k [ "id"; "status"; "ms" ]))
                kvs
            | _ -> []
          in
          Alcotest.(check string) what
            (J.to_string (J.Obj (expected_fields e t m)))
            (J.to_string (J.Obj fields)))
        e.tiers)
    Algorithms.Registry.all;
  List.iter
    (fun (algo, tier) ->
      let resp = run algo tier in
      Alcotest.(check string) (algo ^ "/" ^ tier) "error" (status resp);
      Alcotest.(check (option string)) (algo ^ "/" ^ tier ^ " message")
        (Some (Printf.sprintf "unsupported algorithm/tier %s/%s" algo tier))
        (J.str_field "error" resp))
    [ ("mis", "dsl"); ("pagerrank", "vm"); ("bfs", "jit") ]

(* ---- mxv: malformed vector indices are rejected, located ---- *)

let test_mxv_rejects_bad_indices () =
  with_fresh_jit @@ fun () ->
  let st = mk_state () in
  let sess = Server.Session.create () in
  check_ok "load"
    (handle st sess
       "{\"op\": \"load\", \"name\": \"g\", \"graph\": \"path:n=8\"}");
  let rejected what vector ~mentions =
    let r =
      handle st sess
        (Printf.sprintf
           "{\"op\": \"mxv\", \"graph\": \"g\", \"vector\": %s}" vector)
    in
    Alcotest.(check string) (what ^ ": error reply") "error" (status r);
    if J.member "result" r <> None then
      Alcotest.failf "%s: error reply carries a result: %s" what
        (J.to_string r);
    let msg = Option.value ~default:"" (J.str_field "error" r) in
    List.iter
      (fun m ->
        if not (Helpers.contains_substring msg m) then
          Alcotest.failf "%s: error %S does not mention %S" what msg m)
      mentions
  in
  (* int_of_float would have read index 2.7 as 2 *)
  rejected "fractional index" "[[2.7, 1.0]]" ~mentions:[ "vector[0]"; "2.7" ];
  rejected "negative index" "[[-1, 1.0]]" ~mentions:[ "vector[0]"; "-1" ];
  rejected "second entry out of range" "[[0, 1.0], [8, 1.0]]"
    ~mentions:[ "vector[1]"; "8" ];
  check_ok "integral in-range indices accepted"
    (handle st sess
       "{\"op\": \"mxv\", \"graph\": \"g\", \"vector\": [[2, 1.0]]}")

(* ---- fault containment: serve.session.exn ---- *)

let test_session_exn_containment () =
  with_fresh_jit @@ fun () ->
  Fault.disarm ();
  Fun.protect ~finally:Fault.disarm @@ fun () ->
  let st = mk_state () in
  let sess = Server.Session.create () in
  Fault.arm [ ("serve.session.exn", Fault.Once) ];
  let r1 = handle st sess "{\"op\": \"ping\", \"id\": 1}" in
  Alcotest.(check string) "killed request errors" "error" (status r1);
  (match J.member "fatal" r1 with
  | Some (J.Bool true) -> ()
  | _ -> Alcotest.fail "session kill must be marked fatal");
  Alcotest.(check int) "session_kills counted" 1
    (List.assoc "session_kills" (D.serve_counters st));
  (* the daemon (state) survives: a fresh session works *)
  let r2 = handle st (Server.Session.create ()) "{\"op\": \"ping\", \"id\": 2}" in
  Alcotest.(check string) "next session fine" "ok" (status r2)

(* ---- host:port parsing (OGB_SERVE_ADDR, serve/client --addr) ---- *)

let test_parse_addr () =
  let show = function
    | Ok (h, p) -> Printf.sprintf "Ok %s:%d" h p
    | Error _ -> "Error"
  in
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) (Printf.sprintf "%S" input) expected
        (show (D.parse_addr input)))
    [ ("7000", "Ok 127.0.0.1:7000");
      (":7000", "Ok 127.0.0.1:7000");
      ("h:7000", "Ok h:7000");
      ("0", "Error");
      ("65535", "Ok 127.0.0.1:65535");
      ("65536", "Error");
      ("70000", "Error");
      ("x:abc", "Error");
      ("", "Error");
      ("h:", "Error") ]

(* ---- doctor --json / health body ---- *)

let test_health_json () =
  Fault.suspended @@ fun () ->
  let report = Jit.Health.collect ~probe:false () in
  let j = J.parse (Jit.Health.to_json report) in
  (match J.member "verdict" j with
  | Some (J.Str ("healthy" | "degraded" | "failed")) -> ()
  | _ -> Alcotest.fail "verdict missing from doctor json");
  (match J.member "stats" j with
  | Some (J.Obj kvs) ->
    Alcotest.(check bool) "stats.compiles present" true
      (List.mem_assoc "compiles" kvs)
  | _ -> Alcotest.fail "stats missing from doctor json");
  (* the server's health response embeds the same body *)
  with_fresh_jit @@ fun () ->
  let st = mk_state () in
  let resp = handle st (Server.Session.create ()) "{\"op\": \"health\", \"probe\": false}" in
  check_ok "health" resp;
  (match J.member "health" resp with
  | Some (J.Obj kvs) ->
    Alcotest.(check bool) "embedded cache section" true
      (List.mem_assoc "cache" kvs)
  | _ -> Alcotest.fail "health body not embedded");
  match J.member "serve" resp with
  | Some (J.Obj kvs) ->
    Alcotest.(check bool) "serve counters present" true
      (List.mem_assoc "requests" kvs)
  | _ -> Alcotest.fail "serve counters missing"

(* ---- one real socket round trip ---- *)

let test_socket_end_to_end () =
  Fault.suspended @@ fun () ->
  with_fresh_jit @@ fun () ->
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogb-serve-test-%d.sock" (Unix.getpid ()))
  in
  let cfg =
    { D.sock_path = sock;
      tcp_addr = None;
      workers = 2;
      queue_cap = 8;
      warm_n = 32;
      warm = false }
  in
  match D.start cfg with
  | Error e -> Alcotest.fail e
  | Ok running ->
    Fun.protect
      ~finally:(fun () ->
        D.stop running;
        D.wait running)
      (fun () ->
        let c1 =
          match Server.Client.connect ~sock () with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        (match Server.Client.request c1 (J.parse "{\"op\": \"ping\"}") with
        | Ok r -> check_ok "ping over socket" r
        | Error e -> Alcotest.fail e);
        (match
           Server.Client.request c1
             (J.parse
                "{\"op\": \"load\", \"name\": \"p\", \"graph\": \"path:n=32\"}")
         with
        | Ok r -> check_ok "load over socket" r
        | Error e -> Alcotest.fail e);
        (* second client sees the first client's graph *)
        let c2 =
          match Server.Client.connect ~sock () with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        (match
           Server.Client.request c2
             (J.parse "{\"op\": \"mxv\", \"graph\": \"p\", \"vector\": \"ones\"}")
         with
        | Ok r -> check_ok "cross-session graph visible" r
        | Error e -> Alcotest.fail e);
        (* a client that ships half a request and vanishes must not
           hurt anyone *)
        let c3 =
          match Server.Client.connect ~sock () with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        ignore (Server.Client.send_raw c3 "{\"op\": \"pi");
        Server.Client.close c3;
        Unix.sleepf 0.05;
        (match
           Server.Client.request c1 (J.parse "{\"op\": \"health\", \"probe\": false}")
         with
        | Ok r ->
          check_ok "health after disconnect" r;
          (match J.member "healthy" r with
          | Some (J.Bool true) -> ()
          | _ -> Alcotest.fail "daemon not healthy after disconnect")
        | Error e -> Alcotest.fail e);
        Server.Client.close c1;
        Server.Client.close c2);
    Alcotest.(check bool) "socket file removed on shutdown" false
      (Sys.file_exists sock)

let suite =
  [ Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "wire framing" `Quick test_wire_roundtrip;
    Alcotest.test_case "admission queue" `Quick test_admission;
    Alcotest.test_case "graph registry" `Quick test_registry;
    Alcotest.test_case "shared cache across sessions" `Slow
      test_shared_cache_sessions;
    Alcotest.test_case "context isolation" `Quick test_context_isolation;
    Alcotest.test_case "update rejects non-integral coordinates" `Quick
      test_update_rejects_fractional_coords;
    Alcotest.test_case "mxv rejects malformed vector indices" `Quick
      test_mxv_rejects_bad_indices;
    Alcotest.test_case "serve.session.exn containment" `Quick
      test_session_exn_containment;
    Alcotest.test_case "run: every registered algorithm and tier" `Quick
      test_run_every_registered_tier;
    Alcotest.test_case "addr parsing" `Quick test_parse_addr;
    Alcotest.test_case "doctor/health json" `Quick test_health_json;
    Alcotest.test_case "socket end-to-end" `Slow test_socket_end_to_end ]
