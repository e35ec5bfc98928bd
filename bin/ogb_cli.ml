(* ogb — command-line front end: generate graphs, inspect matrix-market
   files, run the paper's algorithms at any execution tier, and inspect
   the JIT backend. *)

open Cmdliner
open Gbtl

(* -- graph sources (spec parsing shared with the daemon's [load]) -- *)

let load_float_matrix spec symmetrize =
  Server.Graph_spec.load_fp64 spec ~symmetrize

let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

(* -- run subcommand -- *)

let run_algorithm algo tier spec src symmetrize top =
  match load_float_matrix spec symmetrize with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok m -> (
    Printf.printf "graph: %d vertices, %d edges; algorithm=%s tier=%s\n"
      (Smatrix.nrows m) (Smatrix.nvals m) algo tier;
    match Algorithms.Registry.lookup ~algo ~tier with
    | None ->
      Printf.eprintf "unsupported algorithm/tier combination %s/%s\n" algo tier;
      1
    | Some (e, t) ->
      let o = e.run t m ~src in
      Printf.printf "%s (%.3f ms)\n"
        (Algorithms.Registry.summary e o.result)
        o.ms;
      (match o.result with
      | Entries { entries; _ } ->
        List.iteri
          (fun k (i, x) -> if k < top then Printf.printf "  %d: %g\n" i x)
          entries
      | Count _ -> ());
      0)

let graph_arg =
  let doc =
    "Graph source: a generator spec (er:n=1024, rmat:scale=10,ef=8, \
     grid:rows=10,cols=10, tree:r=2,h=8, complete:n=16, path:n=100, \
     cycle:n=100, ws:n=1000,k=4,beta=0.1, ba:n=1000,m=3; all accept \
     seed=N) or a MatrixMarket file path."
  in
  Arg.(value & opt string "er:n=1024" & info [ "graph"; "g" ] ~doc)

let run_cmd =
  let algo =
    Arg.(
      required
      & pos 0
          (some
             (enum
                (List.map
                   (fun (e : Algorithms.Registry.entry) -> (e.name, e.name))
                   Algorithms.Registry.all)))
          None
      & info [] ~docv:"ALGORITHM")
  in
  let tier =
    Arg.(
      value
      & opt
          (enum (List.map (fun (n, _) -> (n, n)) Algorithms.Registry.tiers))
          "native"
      & info [ "tier"; "t" ]
          ~doc:"Execution tier: native, dsl, vm or nonblocking.")
  in
  let src =
    Arg.(value & opt int 0 & info [ "src"; "s" ] ~doc:"Source vertex.")
  in
  let sym =
    Arg.(value & flag & info [ "symmetrize" ] ~doc:"Mirror every edge.")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"Entries to print.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a graph algorithm at a chosen execution tier")
    Term.(const run_algorithm $ algo $ tier $ graph_arg $ src $ sym $ top)

(* -- gen subcommand -- *)

let generate spec out symmetrize =
  match Server.Graph_spec.parse spec with
  | `Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | `File _ ->
    Printf.eprintf "error: gen requires a generator spec, not a file\n";
    1
  | `Edges g ->
    let g = if symmetrize then Graphs.Edge_list.symmetrize g else g in
    let m = Graphs.Convert.matrix_of_edges Dtype.FP64 g in
    Matrix_market.write ~comment:("generated from " ^ spec) m out;
    Printf.printf "wrote %d x %d matrix (%d entries) to %s\n"
      (Smatrix.nrows m) (Smatrix.ncols m) (Smatrix.nvals m) out;
    0

let gen_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out"; "o" ] ~doc:"Output MatrixMarket file.")
  in
  let sym =
    Arg.(value & flag & info [ "symmetrize" ] ~doc:"Mirror every edge.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a graph and save it as MatrixMarket")
    Term.(const generate $ graph_arg $ out $ sym)

(* -- info subcommand -- *)

let info_file path =
  match Matrix_market.read Dtype.FP64 path with
  | exception (Matrix_market.Parse_error e | Sys_error e) ->
    Printf.eprintf "error: %s\n" e;
    1
  | m ->
    let degrees = Utilities.row_degrees m in
    let dmax = Array.fold_left max 0 degrees in
    let total = Array.fold_left ( + ) 0 degrees in
    Printf.printf "%s: %d x %d, %d stored entries\n" path (Smatrix.nrows m)
      (Smatrix.ncols m) (Smatrix.nvals m);
    Printf.printf "out-degree: max %d, mean %.2f\n" dmax
      (float_of_int total /. float_of_int (max 1 (Smatrix.nrows m)));
    0

let info_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "info" ~doc:"Inspect a MatrixMarket file")
    Term.(const info_file $ path)

(* -- jit subcommand -- *)

let print_dispatch_tables () =
  (match Jit.Jit_stats.fusions () with
  | [] -> ()
  | fusions ->
    Printf.printf "fusion rewrites fired:\n";
    List.iter
      (fun (name, count) -> Printf.printf "  %-20s %d\n" name count)
      fusions);
  (match Jit.Jit_stats.per_signature () with
  | [] -> ()
  | sigs ->
    Printf.printf
      "per-signature cache activity (hits+misses=dispatches, fmt=operand \
       layouts):\n";
    List.iter
      (fun (key, hits, misses) ->
        Printf.printf "  %-64s fmt:%-16s %d+%d\n" key
          (Jit.Kernel_sig.formats_of_key key)
          hits misses)
      sigs);
  match Jit.Jit_stats.formats () with
  | [] -> ()
  | counters ->
    Printf.printf "formats:";
    List.iter (fun (name, n) -> Printf.printf " %s=%d" name n) counters;
    print_newline ()

let jit_status action clear =
  match action with
  | Some a when a <> "status" ->
    Printf.eprintf "error: unknown jit action %S (expected \"status\")\n" a;
    1
  | _ ->
  if clear then begin
    Jit.Disk_cache.clear ();
    Printf.printf "cleared kernel cache at %s\n" (Jit.Disk_cache.dir ())
  end;
  Printf.printf "backend: %s\n" (Jit.Native_backend.explain ());
  Printf.printf "effective: %s\n"
    (match Jit.Dispatch.effective_backend () with
    | `Native -> "native"
    | `Closure -> "closure");
  Printf.printf "cache directory: %s\n" (Jit.Disk_cache.dir ());
  Format.printf "stats: %a@." Jit.Jit_stats.pp (Jit.Jit_stats.snapshot ());
  print_dispatch_tables ();
  0

let jit_cmd =
  let action =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ACTION" ~doc:"Optional action; only $(b,status).")
  in
  let clear =
    Arg.(value & flag & info [ "clear" ] ~doc:"Clear the on-disk kernel cache.")
  in
  Cmd.v
    (Cmd.info "jit" ~doc:"Show (or clear) the dynamic-compilation backend state")
    Term.(const jit_status $ action $ clear)

(* -- exec subcommand: dump nonblocking plans and execution traces -- *)

let print_last_trace () =
  match Exec.last_trace () with
  | None -> ()
  | Some t -> print_string (Exec.Trace.to_string t)

(* --schedule: pin the serialized schedule for every plan this process
   builds (the A/B benching hook; OGB_SCHEDULE is the env equivalent) *)
let apply_schedule_pin = function
  | None -> true
  | Some s -> (
    match Cost.Schedule.parse s with
    | Ok sch ->
      Exec.Planner.pin (Some sch);
      true
    | Error e ->
      Printf.eprintf "error: bad --schedule: %s\n" e;
      false)

let schedule_arg =
  let doc =
    "Pin the plan schedule instead of the greedy default (same grammar as \
     $(b,OGB_SCHEDULE)): comma-separated $(b,fuse=on|off), \
     $(b,sink_transpose|apply_chain|apply_ewise|mult_reduce|push_mask=on|off), \
     $(b,layout=auto|pull|push|csr); \"default\" is the greedy all-on \
     schedule."
  in
  Arg.(value & opt (some string) None & info [ "schedule" ] ~doc)

let exec_demo demo spec symmetrize schedule =
  if not (apply_schedule_pin schedule) then 1 else
  match load_float_matrix spec symmetrize with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok m ->
    Printf.printf "graph: %d vertices, %d edges\n\n" (Smatrix.nrows m)
      (Smatrix.nvals m);
    let open Ogb.Ops.Infix in
    let neg = Jit.Op_spec.Named "AdditiveInverse" in
    (* row-degree vectors of A and A.T as deferred subexpressions *)
    let ac = Ogb.Container.of_smatrix m in
    let u () = Ogb.Ops.reduce_rows !!ac in
    let v () = Ogb.Ops.reduce_rows (tr !!ac) in
    let run_tc () =
      let l =
        Algorithms.Triangle.of_undirected (Smatrix.cast ~into:Dtype.Bool m)
      in
      let lc = Ogb.Container.of_smatrix l in
      let expr () =
        Ogb.Context.with_ops
          [ Ogb.Context.semiring "Arithmetic" ]
          (fun () -> !!lc @. tr !!lc)
      in
      let mask = { Ogb.Expr.container = lc; complemented = false } in
      Printf.printf "== tc: B<L> = L @ L.T (transpose sink + mask push)\n%s"
        (Exec.explain ~mask (expr ()));
      ignore (Exec.force ~mask (expr ()));
      print_last_trace ()
    in
    let run_chain () =
      let base =
        Ogb.Context.with_ops
          [ Ogb.Context.binary "Plus" ]
          (fun () -> u () +: v ())
      in
      let e = Ogb.Ops.apply ~f:neg (Ogb.Ops.apply ~f:neg base) in
      Printf.printf
        "== chain: neg(neg(rowsum(A) + rowsum(A.T))) (apply∘apply, \
         apply∘ewise)\n%s"
        (Exec.explain e);
      ignore (Exec.force e);
      print_last_trace ()
    in
    let run_dot () =
      let diff =
        Ogb.Context.with_ops
          [ Ogb.Context.binary "Minus" ]
          (fun () -> u () +: v ())
      in
      let e =
        Ogb.Context.with_ops
          [ Ogb.Context.binary "Times" ]
          (fun () -> diff *: diff)
      in
      Printf.printf
        "== dot: reduce(d*d), d = rowsum(A)-rowsum(A.T) (CSE + mult∘reduce)\n%s"
        (Exec.explain_reduce ~op:"Plus" ~identity:"0" e);
      let s = Exec.reduce ~op:"Plus" ~identity:"0" e in
      print_last_trace ();
      Printf.printf "result: %g\n" s
    in
    let run_mxv () =
      (* a filled-in operand, so the layout pass can pick the pull
         direction at plan time *)
      let n = Smatrix.nrows m in
      let uc =
        Ogb.Container.of_svector
          (Svector.of_dense Dtype.FP64 (Array.make n 1.0))
      in
      let e =
        Ogb.Context.with_ops
          [ Ogb.Context.semiring "Arithmetic" ]
          (fun () -> tr !!ac @. !!uc)
      in
      Printf.printf
        "== mxv: y = A.T @ u (transpose sink -> cached-CSC dispatch)\n%s"
        (Exec.explain e);
      ignore (Exec.force e);
      print_last_trace ()
    in
    (match demo with
    | "tc" -> run_tc ()
    | "chain" -> run_chain ()
    | "dot" -> run_dot ()
    | "mxv" -> run_mxv ()
    | _ ->
      run_tc ();
      print_newline ();
      run_chain ();
      print_newline ();
      run_dot ();
      print_newline ();
      run_mxv ());
    print_newline ();
    print_dispatch_tables ();
    0

let exec_cmd =
  let demo =
    Arg.(
      value
      & opt
          (enum
             [ ("all", "all"); ("tc", "tc"); ("chain", "chain");
               ("dot", "dot"); ("mxv", "mxv") ])
          "all"
      & info [ "demo"; "d" ]
          ~doc:
            "Which plan to dump: tc (masked matmul), chain (apply fusion), \
             dot (CSE + mult-reduce), mxv (transposed product on the cached \
             CSC side), or all.")
  in
  let sym =
    Arg.(value & flag & info [ "symmetrize" ] ~doc:"Mirror every edge.")
  in
  Cmd.v
    (Cmd.info "exec"
       ~doc:
         "Dump nonblocking execution plans (DAG, fusion rewrites) and run \
          them with a per-node trace")
    Term.(const exec_demo $ demo $ graph_arg $ sym $ schedule_arg)

(* -- doctor subcommand: resilience-layer health report -- *)

let doctor no_probe json =
  let report = Jit.Health.collect ~probe:(not no_probe) () in
  if json then print_endline (Jit.Health.to_json report)
  else print_string (Jit.Health.to_string report);
  (* exit-code contract: 0 healthy, 1 degraded (breaker open — dispatch
     still works on closures), 2 hard-failed (corrupt cache plugins) *)
  match Jit.Health.verdict report with
  | `Healthy -> 0
  | `Degraded -> 1
  | `Failed -> 2

let doctor_cmd =
  let no_probe =
    Arg.(
      value & flag
      & info [ "no-probe" ]
          ~doc:
            "Skip the native-backend availability probe (which costs one \
             trivial compile on a cold cache).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the report as one JSON object — the same body the server's \
             $(b,health) request returns.")
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Check the JIT/execution resilience layer: backend probe, on-disk \
          cache integrity (checksums), circuit-breaker state, compile \
          timeout/retry configuration, fault-injection status and the \
          resilience counters.  Exits 1 when degraded (circuit breaker \
          open), 2 when hard-failed (corrupt cache plugins).")
    Term.(const doctor $ no_probe $ json)

(* -- serve subcommand: the multi-tenant graph-service daemon -- *)

(* [--addr] for serve and client: [Ok None] when the flag is absent. *)
let tcp_addr_arg = function
  | None -> Ok None
  | Some a -> Result.map Option.some (Server.Daemon.parse_addr a)

let run_daemon cfg =
  (* Block SIGTERM/SIGINT in every thread (domains and reader threads
     inherit this mask) and receive them on a dedicated sigwait thread
     below.  A Sys.set_signal handler would only run once some thread
     reaches an OCaml safe point — at idle they are all parked in C
     (Domain.join, pthread_cond_wait, select), which turns a SIGTERM
     into a minutes-long stall.  sigwait delivers regardless. *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ]);
  (* The daemon's live heap (loaded graphs, kernel tables) is small next
     to what each request allocates and drops, so at the default
     space_overhead (120) the major GC runs about every other request
     on the serve_mixed benchmark mix; 200 spaces the cycles out for a
     few MiB more peak heap. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 200 };
  (* every session plan runs under the analyzer: shape/dtype
     verification at each stage plus the mandatory effect/race stage
     with the Prebuild remedy at pre-schedule *)
  Analysis.Hook.install ();
  match Server.Daemon.start cfg with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok running ->
    let (_ : Thread.t) =
      Thread.create
        (fun () ->
          let (_ : int) = Thread.wait_signal [ Sys.sigterm; Sys.sigint ] in
          Server.Daemon.stop running)
        ()
    in
    Printf.printf "ogb serve: listening on %s%s (%d workers, queue %d)\n%!"
      cfg.Server.Daemon.sock_path
      (match cfg.Server.Daemon.tcp_addr with
      | Some (h, p) -> Printf.sprintf " and tcp %s:%d" h p
      | None -> "")
      cfg.Server.Daemon.workers cfg.Server.Daemon.queue_cap;
    Server.Daemon.wait running;
    Printf.printf "ogb serve: stopped\n%!";
    0

let serve sock addr workers queue warm_n no_warm =
  match tcp_addr_arg addr with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok addr ->
    let base = Server.Daemon.default_config () in
    run_daemon
      { Server.Daemon.sock_path =
          (match sock with Some p -> p | None -> base.Server.Daemon.sock_path);
        tcp_addr =
          (match addr with Some _ -> addr | None -> base.Server.Daemon.tcp_addr);
        workers =
          (if workers > 0 then workers else base.Server.Daemon.workers);
        queue_cap =
          (if queue > 0 then queue else base.Server.Daemon.queue_cap);
        warm_n = (if warm_n > 0 then warm_n else base.Server.Daemon.warm_n);
        warm = base.Server.Daemon.warm && not no_warm }

let serve_cmd =
  let sock =
    Arg.(
      value
      & opt (some string) None
      & info [ "sock" ] ~doc:"Unix-socket path (default: \\$OGB_SERVE_SOCK).")
  in
  let addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "addr" ]
          ~doc:
            "Also listen on TCP $(i,port), $(i,:port) or $(i,host:port) \
             (default: \\$OGB_SERVE_ADDR).")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ]
          ~doc:"Worker domains draining the request queue (0 = env/default).")
  in
  let queue =
    Arg.(
      value & opt int 0
      & info [ "queue" ]
          ~doc:"Admission-queue bound; overflow is shed (0 = env/default).")
  in
  let warm_n =
    Arg.(
      value & opt int 0
      & info [ "warm-n" ]
          ~doc:"Vertex count the startup JIT warm-up assumes (0 = default).")
  in
  let no_warm =
    Arg.(value & flag & info [ "no-warm" ] ~doc:"Skip the startup warm-up.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the multi-tenant graph-service daemon: line-delimited JSON \
          over a Unix socket, shared warm JIT cache, per-session operator \
          contexts and admission control.  mxv/vxm requests dispatch \
          straight to the JIT kernels.  SIGTERM/SIGINT shut it down \
          cleanly.")
    Term.(const serve $ sock $ addr $ workers $ queue $ warm_n $ no_warm)

(* -- client subcommand -- *)

let client sock addr abort requests =
  match
    Result.bind (tcp_addr_arg addr) (fun addr ->
        Server.Client.connect ?sock ?addr ())
  with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok c ->
    let to_line r =
      let r = String.trim r in
      if String.length r > 0 && r.[0] = '{' then r
      else Printf.sprintf "{\"op\": %S}" r
    in
    if abort then begin
      (* ship the requests and vanish without reading a byte back —
         the CI smoke test's mid-request disconnect *)
      List.iter (fun r -> ignore (Server.Client.send_raw c (to_line r))) requests;
      Server.Client.close c;
      0
    end
    else begin
      let failed = ref false in
      List.iter
        (fun r ->
          match Server.Client.request c (Server.Json.parse (to_line r)) with
          | Ok resp ->
            print_endline (Server.Json.to_string resp);
            (match Server.Json.str_field "status" resp with
            | Some "ok" -> ()
            | _ -> failed := true)
          | Error e ->
            Printf.eprintf "error: %s\n" e;
            failed := true)
        requests;
      Server.Client.close c;
      if !failed then 1 else 0
    end

let client_cmd =
  let sock =
    Arg.(
      value
      & opt (some string) None
      & info [ "sock" ] ~doc:"Unix-socket path of the daemon.")
  in
  let addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "addr" ]
          ~doc:"TCP $(i,port), $(i,:port) or $(i,host:port) of the daemon.")
  in
  let abort =
    Arg.(
      value & flag
      & info [ "abort" ]
          ~doc:
            "Send the requests, then disconnect immediately without reading \
             any response (exercises the daemon's disconnect handling).")
  in
  let requests =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"REQUEST"
          ~doc:
            "A JSON request object, or a bare op name (wrapped as \
             {\"op\": ...}).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send requests to a running $(b,ogb serve) daemon and print the \
             responses")
    Term.(const client $ sock $ addr $ abort $ requests)

(* -- analyze subcommand: static analysis + ahead-of-time warm-up -- *)

let analyze algo n warm effects schedule =
  if not (apply_schedule_pin schedule) then 1 else
  let module T1 = Analysis.Tier1 in
  let module Ks = Jit.Kernel_sig in
  let entries =
    match algo with
    | None -> Ok T1.all
    | Some a -> (
      match T1.find a with
      | Some e -> Ok [ e ]
      | None -> Error (Printf.sprintf "unknown tier-1 encoding %S" a))
  in
  match entries with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    1
  | Ok entries ->
    let failed = ref false in
    let sigs = ref [] in
    let seen = Hashtbl.create 32 in
    List.iter
      (fun (e : T1.entry) ->
        Printf.printf "== %s (entry point %s, n=%d)\n" e.name e.entrypoint n;
        (match Analysis.Vm_check.check e.program with
        | [] -> Printf.printf "scope/arity: ok\n"
        | findings ->
          failed := true;
          List.iter
            (fun f ->
              Printf.printf "  FINDING %s\n" (Analysis.Vm_check.describe f))
            findings);
        let ks = T1.signatures e ~n in
        Printf.printf "reachable kernel signatures: %d\n" (List.length ks);
        List.iter
          (fun s ->
            Printf.printf "  %s\n" (Ks.key s);
            if not (Hashtbl.mem seen (Ks.key s)) then begin
              Hashtbl.add seen (Ks.key s) ();
              sigs := s :: !sigs
            end)
          ks;
        print_newline ())
      entries;
    (* representative plan: a shape the scheduler runs concurrently and
       whose pull dispatch races on the shared CSC cache.  Filled-in
       64-vectors make layout selection choose pull (which builds the
       index); the observe-only hook counts its hazard at pre-schedule
       without repairing it, so the effects counters below move *)
    let m =
      Graphs.Convert.matrix_of_edges Dtype.FP64 (Graphs.Generators.complete 64)
    in
    let ac = Ogb.Container.of_smatrix m in
    let dense x =
      Ogb.Container.of_svector (Svector.of_dense Dtype.FP64 (Array.make 64 x))
    in
    let uc = dense 1.0 and vc = dense 2.0 in
    let open Ogb.Ops.Infix in
    let e =
      Ogb.Context.with_ops
        [ Ogb.Context.semiring "Arithmetic"; Ogb.Context.binary "Plus" ]
        (fun () -> (tr !!ac @. !!uc) +: (tr !!ac @. !!vc))
    in
    Analysis.Hook.install ~fix_races:None ();
    let plan =
      Fun.protect
        ~finally:(fun () -> Analysis.Hook.uninstall ())
        (fun () ->
          let p = Exec.plan_force e in
          Exec.Verify_hook.run p ~stage:"pre-schedule";
          p)
    in
    Printf.printf "== plan verification (y = A.T@u + A.T@v, verified at every \
                   rewrite stage)\n%s"
      (Analysis.Verify.report plan);
    let csc_races () =
      List.filter
        (fun (h : Analysis.Effects.hazard) ->
          h.Analysis.Effects.cls = Analysis.Effects.Csc_cache)
        (Analysis.Effects.find ~assume_formats:true plan)
    in
    (match csc_races () with
    | [] -> Printf.printf "races: none\n"
    | races ->
      List.iter
        (fun h -> Printf.printf "race: %s\n" (Analysis.Effects.describe h))
        races;
      ignore
        (Format_stats.with_enabled true (fun () ->
             Analysis.Effects.remedy ~strategy:Analysis.Effects.Prebuild plan));
      (match csc_races () with
      | [] -> Printf.printf "remedied: CSC indexes prebuilt; scheduler-safe\n"
      | remaining ->
        failed := true;
        List.iter
          (fun h ->
            Printf.printf "UNREMEDIED race: %s\n" (Analysis.Effects.describe h))
          remaining));
    if effects then begin
      Printf.printf
        "== effect footprints (per node, canonical by physical storage)\n%s"
        (Analysis.Effects.report ~assume_formats:true plan);
      match Analysis.Effects.find ~assume_formats:true plan with
      | [] -> Printf.printf "effect hazards: none\n"
      | hs ->
        List.iter
          (fun h ->
            Printf.printf "effect hazard: %s\n" (Analysis.Effects.describe h))
          hs
    end;
    (* execute the representative plan so its schedule and measured cost
       appear together (the --schedule A/B smoke reads these lines) *)
    Printf.printf "schedule: %s\n"
      (match plan.Exec.Plan.schedule_desc with "" -> "default" | s -> s);
    let (_ : Ogb.Container.t), measured = time (fun () -> Exec.force e) in
    Printf.printf "measured cost: %.6f ms\n" (measured *. 1e3);
    let st = Jit.Jit_stats.snapshot () in
    Printf.printf "effects: checks=%d hazards=%d degraded=%d\n"
      st.Jit.Jit_stats.effects_checks st.Jit.Jit_stats.effects_hazards
      st.Jit.Jit_stats.effects_degraded;
    if warm then begin
      Printf.printf "\n== ahead-of-time warm-up (%d distinct signatures)\n"
        (List.length !sigs);
      let outcomes = Analysis.Warmup.warm (List.rev !sigs) in
      List.iter
        (fun (o : Analysis.Warmup.outcome) ->
          Printf.printf "  %-72s %s\n" (Ks.key o.Analysis.Warmup.sig_)
            (Analysis.Warmup.status_to_string o.Analysis.Warmup.status))
        outcomes;
      let st = Jit.Jit_stats.snapshot () in
      Printf.printf "warm requests: %d, warm compiles: %d\n"
        st.Jit.Jit_stats.warm_requests st.Jit.Jit_stats.warm_compiles
    end;
    if !failed then 1 else 0

let analyze_cmd =
  let algo =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ALGORITHM"
          ~doc:
            "Restrict to one tier-1 encoding (bfs, pagerank, sssp, tc, cc, \
             labelprop, ktruss, bc); default analyzes all of them.")
  in
  let n =
    Arg.(
      value & opt int 64
      & info [ "n" ]
          ~doc:
            "Vertex count the abstract stand-ins assume (bound constants such \
             as PageRank's teleport term depend on it).")
  in
  let warm =
    Arg.(
      value & flag
      & info [ "warm" ]
          ~doc:
            "After analysis, drive the JIT over every reachable kernel \
             signature so the first real iteration compiles nothing.")
  in
  let effects =
    Arg.(
      value & flag
      & info [ "effects" ]
          ~doc:
            "Print the representative plan's per-node effect footprints \
             (reads/writes per location, canonical by physical storage) and \
             any hazards the effect analysis finds between \
             scheduler-concurrent nodes.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically check the tier-1 MiniVM encodings (scope/arity), extract \
          reachable kernel signatures by abstract interpretation, verify a \
          representative plan (shapes, dtypes, effect footprints, scheduler \
          races) and report its schedule with its measured cost, and \
          optionally pre-warm the JIT")
    Term.(const analyze $ algo $ n $ warm $ effects $ schedule_arg)

(* -- lint subcommand: effect-analysis self-tests and the daemon
   shared-state audit -- *)

let lint () =
  let findings =
    List.map Analysis.Lint.describe (Analysis.Lint.run ())
    @ List.map Server.Audit.describe (Server.Audit.run ())
  in
  Printf.printf "lint: %d audited handler state(s)\n"
    (List.length Server.Audit.manifest);
  match findings with
  | [] ->
    Printf.printf "lint: ok (effects self-tests, daemon audit)\n";
    0
  | fs ->
    List.iter (fun f -> Printf.printf "lint: FINDING %s\n" f) fs;
    Printf.printf "lint: %d finding(s)\n" (List.length fs);
    1

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Re-prove the static safety arguments: the effect analysis still \
          flags every seeded hazard class (and passes hazard-free plans), \
          and the serve daemon's handlers touch no shared \
          mutable state outside the immutable registry and per-session \
          context.  Exits nonzero on any finding.")
    Term.(const lint $ const ())

let () =
  (* a dying client mid-write must surface as EPIPE, not kill the
     process — applies to both serve and the plain subcommands, whose
     stdout may be a broken pipe under `ogb ... | head` *)
  Server.Wire.ignore_sigpipe ();
  let doc = "GraphBLAS DSL with dynamic kernel compilation (PyGB reproduction)" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "ogb" ~version:"1.0.0" ~doc)
          [ run_cmd; gen_cmd; info_cmd; jit_cmd; exec_cmd; analyze_cmd;
            lint_cmd; doctor_cmd; serve_cmd; client_cmd ]))
