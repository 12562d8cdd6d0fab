let usage () =
  prerr_endline
    "usage: main.exe --workload <ingest|dashboard|fleet> --seed <n> --seconds <s> --trace <0|1>"

let main argv =
  let workload = ref "" and seed = ref 1L and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.String (fun s -> seed := Int64.of_string s), "input seed");
      ("--seconds", Arg.Set_float seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
  in
  match Arg.parse_argv argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "" with
  | exception (Arg.Bad msg | Arg.Help msg) ->
      prerr_endline msg;
      usage ();
      2
  | () -> (
      let seed = !seed in
      let run =
        match !workload with
        | "ingest" -> Some (Ingest.end_to_end, Ingest.traced)
        | "dashboard" -> Some (Dashboard.end_to_end, Dashboard.traced)
        | "fleet" -> Some (Fleet.end_to_end, Fleet.traced)
        | _ -> None
      in
      match run with
      | None ->
          usage ();
          2
      | Some _ when !trace <> 0 && !trace <> 1 ->
          usage ();
          2
      | Some (e2e, traced) -> (
          let traced_run = !trace = 1 in
          match
            if traced_run then traced ~seed ~seconds:!seconds else e2e ~seed ~seconds:!seconds
          with
          | exception Gate.Wrong_answer msg ->
              Printf.eprintf "WRONG ANSWER: %s\n%!" msg;
              3
          | exception Tally.Unsupported msg ->
              Printf.eprintf "TOO FEW SAMPLES: %s\n%!" msg;
              5
          | ops, metrics -> (
              let expected = if traced_run then Report.per_layer else Report.end_to_end in
              match Report.validate ~expected metrics with
              | exception Report.Bad_metric msg ->
                  Printf.eprintf "BAD METRIC: %s\n%!" msg;
                  4
              | metrics ->
                  List.iter
                    (fun m -> Printf.printf "%-45s %18.6f %s\n" m.Report.name m.value m.unit_)
                    metrics;
                  print_endline
                    (Report.result_line ~correct:true ~attempted:ops.Live.attempted
                       ~failed:ops.failed metrics);
                  0)))
