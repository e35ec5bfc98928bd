(* Plans run on the caller's domain, but the serve daemon's worker
   domains still record dispatch statistics at once: the counters must
   not lose updates. *)

(* ---- the Jit_stats bugfix: plain int-ref counters lost updates under
   concurrent domains; atomics must account for every increment ---- *)

let test_counter_race () =
  let before = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.lookups in
  let doms =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Jit.Jit_stats.record_lookup ()
            done))
  in
  Array.iter Domain.join doms;
  let after = (Jit.Jit_stats.snapshot ()).Jit.Jit_stats.lookups in
  Alcotest.(check int) "no lost increments" 40_000 (after - before)

let suite =
  [ Alcotest.test_case "stats counters survive a 4-domain race" `Quick
      test_counter_race ]
