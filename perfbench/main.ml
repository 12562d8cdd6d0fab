(* Entry point: --workload <ingest|dashboard|fleet> --seed <n>
   --seconds <s> --trace <0|1>. Human-readable tables go to standard
   output first; the last line is the JSON result. A wrong answer or a
   bad metric exits non-zero without a result line. *)

let () = exit (Ltbench.Bench.main Sys.argv)
