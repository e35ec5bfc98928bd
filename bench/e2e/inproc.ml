(* The in-process workloads: small_er, rmat_large and cold_jit.

   A set-up rep builds the graph and its containers in a new empty JIT
   cache, then runs every (algorithm, tier) once: the warm-up pass,
   timed as [first_result_ms].  A disk pass empties the memory caches
   only and runs every kind again on the now warm disk cache
   ([disk_warm_ms]).  small_er and rmat_large then time steady rounds,
   every kind once per round with the tiers interleaved so drift hits
   them alike.  cold_jit times nothing warm: it repeats set-up reps and
   disk passes for the whole run, and its tier metrics come from the
   warm-up passes, where kernels compile.  Every rep, pass and round is
   gauged ({!Stats.gauged}) and its times are scaled. *)

type workload = {
  name : string;
  spec : seed:int -> smoke:bool -> string;
  algo_names : string list;
  cold_only : bool;
  reps : int;  (** set-up reps, and disk passes at most *)
}

let small_er =
  { name = "small_er";
    spec =
      (fun ~seed ~smoke -> Printf.sprintf "er:n=%d,seed=%d" (if smoke then 32 else 256) seed);
    algo_names = Algos.names;
    cold_only = false;
    reps = 5 }

(* sssp, cc, labelprop and ktruss run for seconds to minutes at this
   size on their vm or dsl tier, so rmat_large leaves them out. *)
let rmat_large =
  { name = "rmat_large";
    spec =
      (fun ~seed ~smoke ->
        Printf.sprintf "rmat:scale=%d,ef=16,seed=%d" (if smoke then 6 else 14) seed);
    algo_names = [ "pagerank"; "bfs"; "triangle"; "bc" ];
    cold_only = false;
    reps = 3 }

let cold_jit =
  { name = "cold_jit";
    spec =
      (fun ~seed ~smoke -> Printf.sprintf "er:n=%d,seed=%d" (if smoke then 16 else 64) seed);
    algo_names = Algos.names;
    cold_only = true;
    reps = 3 }

let all = [ small_er; rmat_large; cold_jit ]

(* Run one kind once.  The returned check decodes the result, compares
   it with the oracle and returns the (label, ms) sample; passes defer
   it until their clock has stopped. *)
let op ~tally ?(parent = -1) (a : Algos.algo) tier =
  let label = a.Algos.name ^ "." ^ Algos.tier_name tier in
  Book.attempt tally;
  let failed why =
    Book.fail tally (label ^ ": " ^ why);
    None
  in
  match Span.with_ ~parent label (fun _ -> Stats.timed (a.Algos.run tier)) with
  | exception e -> fun () -> failed (Printexc.to_string e)
  | decode, ms -> (
    fun () ->
      match decode () with
      | exception e -> failed (Printexc.to_string e)
      | o ->
        if Algos.agrees o ~reference:(Lazy.force a.Algos.reference) then Some (label, ms)
        else failed "output differs from the oracle")

let file book ~scale samples =
  List.iter (Option.iter (fun (label, ms) -> Book.add book label (ms *. scale))) samples

(* Every kind once, tier by tier; returns the deferred checks. *)
let pass ~tally algos =
  Span.with_ "pass" (fun parent ->
      List.concat_map
        (fun tier -> List.map (fun a -> op ~tally ~parent a tier) algos)
        Algos.tiers)

type rep = { algos : Algos.algo list; graph : Algos.graph; dir : string }

(* Set-up and pass times so far (scaled ms), the gauge scales they ran
   at, and the last rep, whose graph and cache the measured phase uses. *)
type progress = {
  setup : float list;
  first : float list;
  disk : float list;
  scales : float list;
  last : rep;
}

(* One set-up rep: a new empty cache, graph and containers, warm-up
   pass.  Its per-kind samples go to [book]. *)
let setup_rep wl ~spec ~tally ~book =
  let dir = Jitenv.fresh () in
  let first_ms = ref 0.0 in
  let ((rep, checks), setup_ms), scale =
    Stats.gauged (fun () ->
        Stats.timed (fun () ->
            let graph = Algos.graph spec in
            let algos = List.map (Algos.make graph) wl.algo_names in
            let checks, ms = Stats.timed (fun () -> pass ~tally algos) in
            first_ms := ms;
            ({ algos; graph; dir }, checks)))
  in
  file book ~scale (List.map (fun check -> check ()) checks);
  (rep, setup_ms *. scale, !first_ms *. scale, scale)

let first_rep wl ~spec ~tally =
  let last, setup_ms, first_ms, scale = setup_rep wl ~spec ~tally ~book:(Book.create ()) in
  { setup = [ setup_ms ]; first = [ first_ms ]; disk = []; scales = [ scale ]; last }

let add_rep wl ~spec ~tally ~book p =
  let last, setup_ms, first_ms, scale = setup_rep wl ~spec ~tally ~book in
  { p with
    setup = setup_ms :: p.setup;
    first = first_ms :: p.first;
    scales = scale :: p.scales;
    last }

(* A disk pass on the last rep's cache. *)
let add_disk ~tally p =
  Jitenv.use p.last.dir;
  let (checks, ms), scale =
    Stats.gauged (fun () -> Stats.timed (fun () -> pass ~tally p.last.algos))
  in
  List.iter (fun check -> ignore (check ())) checks;
  { p with disk = (ms *. scale) :: p.disk; scales = scale :: p.scales }

(* Apply [f] until [seconds] have passed and it has run [min] times. *)
let repeat ~seconds ~min f x =
  let t0 = Stats.now_ns () in
  let rec go k x =
    if k >= min && Stats.ms_since t0 >= 1000.0 *. seconds then x else go (k + 1) (f x)
  in
  go 0 x

(* Steady rounds on the last rep; returns the gauge scales. *)
let steady rep ~tally ~book ~seconds =
  repeat ~seconds ~min:1
    (fun scales ->
      let samples, scale =
        Stats.gauged (fun () ->
            Span.with_ "round" (fun parent ->
                List.concat_map
                  (fun a -> List.map (fun tier -> op ~tally ~parent a tier ()) Algos.tiers)
                  rep.algos))
      in
      file book ~scale samples;
      scale :: scales)
    []

(* The measured phase: the book the tier metrics come from, the
   progress so far and the gauge scales of the phase. *)
let measure wl ~spec ~tally ~seconds ~smoke p =
  let book = Book.create () in
  if wl.cold_only then
    let p =
      repeat ~seconds ~min:(if smoke then 1 else wl.reps)
        (fun p -> add_disk ~tally (add_rep wl ~spec ~tally ~book p))
        p
    in
    (book, p, p.scales)
  else (book, p, steady p.last ~tally ~book ~seconds)

(* Operations completed per second of (scaled) operation time. *)
let ops_per_s book =
  let all = List.concat_map (Book.samples book) (Book.labels book) in
  float_of_int (List.length all) /. (Stats.sum all /. 1000.0)

let run wl ~seed ~seconds ~trace ~smoke =
  let spec = wl.spec ~seed ~smoke in
  let tally = Book.create () in
  (* set-up reps, then disk passes (as many as fit in two seconds);
     cold_jit takes both inside its measurement *)
  let reps = if wl.cold_only || smoke then 1 else wl.reps in
  let p = first_rep wl ~spec ~tally in
  let scratch = Book.create () in
  let p =
    List.fold_left
      (fun p _ -> add_rep wl ~spec ~tally ~book:scratch p)
      p
      (List.init (reps - 1) Fun.id)
  in
  let p =
    if wl.cold_only then p
    else
      let t0 = Stats.now_ns () in
      let rec go p =
        let p = add_disk ~tally p in
        if List.length p.disk >= reps || Stats.ms_since t0 >= 2000.0 then p else go p
      in
      go p
  in
  let c0 = Probes.counters () in
  let t0 = Stats.now_ns () in
  let half = if trace then seconds /. 2.0 else seconds in
  let book, p, scales = measure wl ~spec ~tally ~seconds:half ~smoke p in
  let wall_s = Stats.ms_since t0 /. 1000.0 in
  let c1 = Probes.counters () in
  let e2e =
    Book.tier_metrics book
    @ [ ("ops_per_s", ops_per_s book);
        ("first_result_ms", Stats.median p.first);
        ("disk_warm_ms", Stats.median p.disk);
        ("setup_s", Stats.median p.setup /. 1000.0);
        ("peak_rss_mb", Stats.peak_rss_mb ()) ]
  in
  let layers =
    if not trace then []
    else begin
      let jit = Probes.jit_metrics () in
      Span.enabled := true;
      let traced, _, _ = measure wl ~spec ~tally ~seconds:half ~smoke p in
      let probes = Span.with_ "probes" (fun parent -> Probes.all p.last.graph ~parent) in
      let serve = Serve.inproc_probe ~tally ~seed ~smoke in
      Span.enabled := false;
      Printf.printf "per-layer self time (ms, traced run medians):\n";
      Book.print_layer_table traced;
      let overhead = 100.0 *. (Book.op_ms traced -. Book.op_ms book) /. Book.op_ms book in
      Span.print_self_table (Span.all ());
      Printf.printf "tracing overhead: %+.2f%% on op_ms\n" overhead;
      Book.layer_metrics traced
      @ jit
      @ Probes.counter_metrics c0 c1 ~wall_s
      @ probes @ serve
      @ [ ("trace.overhead_pct", overhead) ]
    end
  in
  let detail =
    [ ("spec", Server.Json.Str spec);
      ("vertices", Num (float_of_int p.last.graph.Algos.n));
      ("nnz", Num (float_of_int p.last.graph.Algos.nnz));
      ("pagerank_threshold", Num Algos.pagerank_threshold);
      ("gauge_scale", Book.summary_json scales);
      ("setup_ms", Book.summary_json p.setup);
      ("first_result_ms", Book.summary_json p.first);
      ("disk_warm_ms", Book.summary_json p.disk);
      ("kinds", Book.kinds_json book);
      ( "formats",
        Obj
          (List.map
             (fun (k, v) -> (k, Server.Json.Num (float_of_int v)))
             (Jit.Jit_stats.formats ())) ) ]
  in
  (tally, e2e @ layers, detail)
