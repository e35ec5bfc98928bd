(** [ogb serve] — the multi-tenant graph-service daemon.

    One process holds the expensive state all clients want to share:
    loaded graphs (immutable, in {!Registry}) and the signature→kernel
    JIT cache, pre-warmed at startup over every tier-1 signature so
    steady-state requests compile nothing.  Each client connection is a
    {!Session} with an isolated operator-context stack.

    Wire protocol: line-delimited JSON objects over a Unix socket
    (optionally TCP), one request per line, one response per line.
    Requests carry an ["op"] and an optional ["id"] echoed back;
    responses carry ["status"]: ["ok"], ["error"] or ["shed"] (the
    admission queue was full — retry later).

    The request path is: reader thread (one per connection, pipelined)
    → admission queue (bounded; overflow sheds) → worker domain →
    {!handle} → response.  [mxv]/[vxm] requests call
    {!Jit.Kernels.mxv}/[vxm] directly; a kernel exception answers only
    that request with an error.

    Failure containment: [serve.accept.exn] costs one connection,
    [serve.session.exn] one session — the daemon survives both and
    reports them through [health]. *)

type config = {
  sock_path : string;  (** Unix-domain socket path *)
  tcp_addr : (string * int) option;  (** extra TCP listener *)
  workers : int;  (** worker domains draining the admission queue *)
  queue_cap : int;  (** admission-queue bound; overflow sheds *)
  warm_n : int;  (** vertex count the startup warm-up assumes *)
  warm : bool;  (** run the warm-up at startup and on [load] *)
}

val default_config : unit -> config
(** From the [OGB_SERVE_*] environment: [OGB_SERVE_SOCK],
    [OGB_SERVE_ADDR] (read by {!parse_addr}; a bad value is reported on
    stderr and ignored), [OGB_SERVE_WORKERS] (4), [OGB_SERVE_QUEUE]
    (16), [OGB_SERVE_WARM_N] (256), [OGB_SERVE_NO_WARM]. *)

val parse_addr : string -> (string * int, string) result
(** [port], [:port] or [host:port] (host defaults to 127.0.0.1).
    [Error] for a port that is not all digits or lies outside
    1..65535. *)

(** {2 In-process core}

    The request handler is callable without any socket, which is how
    the test suite drives multi-session scenarios from concurrent
    domains and how the bench measures steady-state request latency. *)

type state

val create_state : config -> state
(** Builds the registry and queue and, unless [warm] is off, warms
    the JIT over every tier-1 kernel signature at [warm_n]. *)

val handle : state -> Session.t -> Json.t -> Json.t
(** Execute one request under the session's lock and context stack;
    never raises — failures (including the
    [serve.session.exn] injection) become [status: error] responses.
    A response carrying [fatal: true] means the session must be torn
    down (its transport does that; in-process callers just stop using
    the session). *)

val serve_counters : state -> (string * int) list
(** [sessions], [active], [requests], [errors], [shed],
    [accept_failures], [session_kills], [warm_sigs], [warm_compiles],
    [queue_depth]. *)

val registry : state -> Registry.t
val shutdown_requested : state -> bool

(** {2 The daemon} *)

type running

val start : config -> (running, string) result
(** Bind/listen, spawn the accept domain, worker domains and reader
    threads; returns once the socket is accepting.  [Error] if binding
    fails. *)

val state_of : running -> state

val stop : running -> unit
(** Request shutdown (idempotent, async-signal-safe enough to call
    from a SIGTERM handler: it writes one byte to a self-pipe). *)

val wait : running -> unit
(** Block until the daemon has fully stopped: accept loop exited,
    queue drained/closed, workers joined, every connection shut down
    and the socket file removed. *)
