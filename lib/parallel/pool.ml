let counters () = [ ("par_jobs", 0); ("seq_jobs", 0); ("chunks", 0) ]
let busy_seconds () = 0.0
