(* Interactive SQL shell against a LittleTable server.

     dune exec bin/littletable_shell.exe -- --port 7447
     littletable> SELECT device, SUM(bytes) FROM usage WHERE network = 7 GROUP BY device;

   Lines starting with '.' are dot commands (see .help); anything else
   is SQL. Also runs one-shot statements with -e. *)

let show_stats client table =
  match Lt_net.Client.stats client table with
  | s -> Format.printf "%a@." Littletable.Stats.pp s
  | exception Lt_net.Client.Remote_error msg ->
      Format.printf "server error: %s@." msg

let show_metrics client =
  match Lt_net.Client.metrics client with
  | text -> print_string text
  | exception Lt_net.Client.Remote_error msg ->
      Format.printf "server error: %s@." msg

let show_slow client n =
  match Lt_net.Client.slow_ops ?n client with
  | [] -> Format.printf "no slow operations recorded@."
  | spans ->
      List.iter
        (fun sp -> Format.printf "%a@." Lt_obs.Trace.pp_span sp)
        spans
  | exception Lt_net.Client.Remote_error msg ->
      Format.printf "server error: %s@." msg

let show_cluster client =
  match Lt_net.Client.placement client with
  | { Lt_net.Protocol.pl_epoch; pl_policy; pl_backends } -> (
      Format.printf "placement: %s (epoch %d)@." pl_policy pl_epoch;
      match pl_backends with
      | [] -> Format.printf "backends: none (single node)@."
      | eps ->
          List.iteri
            (fun i (host, port) ->
              Format.printf "  shard %d: %s:%d@." i host port)
            eps)
  | exception Lt_net.Client.Remote_error msg ->
      Format.printf "server error: %s@." msg

let do_flush client table ts =
  match Lt_net.Client.flush_before client table ~ts with
  | () -> Format.printf "flushed@."
  | exception Lt_net.Client.Remote_error msg ->
      Format.printf "server error: %s@." msg

(* Reassemble a distributed trace into a tree: spans are parented by
   [cx_parent] span id; spans whose parent is absent from the fetched
   set (or zero) render as roots. Offsets are relative to the earliest
   span so the indented timeline reads top to bottom. *)
let show_trace client arg =
  let module Trace = Lt_obs.Trace in
  let ids =
    match arg with
    | "last" -> Lt_net.Client.last_trace client
    | s -> Trace.parse_trace_id s
  in
  match ids with
  | None ->
      Format.printf
        "no trace id: expected a hex trace id or 'last' (run a query first)@."
  | Some (hi, lo) -> (
      match Lt_net.Client.trace client (hi, lo) with
      | [] -> Format.printf "no spans recorded for trace %016Lx%016Lx@." hi lo
      | spans ->
          let span_ids = Hashtbl.create 32 in
          List.iter
            (fun sp ->
              match sp.Trace.sp_ctx with
              | Some c -> Hashtbl.replace span_ids c.Trace.cx_span ()
              | None -> ())
            spans;
          let children = Hashtbl.create 32 in
          let roots = ref [] in
          List.iter
            (fun sp ->
              match sp.Trace.sp_ctx with
              | None -> ()
              | Some c ->
                  if
                    c.Trace.cx_parent <> 0L
                    && Hashtbl.mem span_ids c.Trace.cx_parent
                  then
                    Hashtbl.replace children c.Trace.cx_parent
                      (sp
                      :: Option.value ~default:[]
                           (Hashtbl.find_opt children c.Trace.cx_parent))
                  else roots := sp :: !roots)
            spans;
          let base =
            List.fold_left
              (fun acc sp -> Int64.min acc sp.Trace.sp_start_us)
              Int64.max_int spans
          in
          let by_start l =
            List.sort
              (fun a b -> Int64.compare a.Trace.sp_start_us b.Trace.sp_start_us)
              l
          in
          let rec emit depth sp =
            Format.printf "%s%-8s %-14s +%.3fms %.3fms%s@."
              (String.make (2 * depth) ' ')
              (Trace.op_name sp.Trace.sp_op)
              sp.Trace.sp_table
              (Int64.to_float (Int64.sub sp.Trace.sp_start_us base) /. 1000.)
              (Int64.to_float (Trace.duration_us sp) /. 1000.)
              (Trace.counts sp);
            match sp.Trace.sp_ctx with
            | None -> ()
            | Some c ->
                List.iter
                  (emit (depth + 1))
                  (by_start
                     (Option.value ~default:[]
                        (Hashtbl.find_opt children c.Trace.cx_span)))
          in
          Format.printf "trace %016Lx%016Lx (%d spans)@." hi lo
            (List.length spans);
          List.iter (emit 0) (by_start !roots)
      | exception Lt_net.Client.Remote_error msg ->
          Format.printf "server error: %s@." msg)

(* Dot commands: name, argument synopsis, help line, handler on the
   whitespace-separated arguments. *)
let rec dot_commands =
  [ (".help", "", "list available dot commands",
     fun _ _ ->
       List.iter
         (fun (name, args, help, _) ->
           Format.printf "  %-18s %s@."
             (if args = "" then name else name ^ " " ^ args)
             help)
         dot_commands);
    (".stats", "<table>", "server-side operation and block-cache counters",
     fun client args ->
       match args with
       | [ table ] -> show_stats client table
       | _ -> Format.printf "usage: .stats <table>@.");
    (".metrics", "", "Prometheus text exposition of the server's metrics",
     fun client args ->
       match args with
       | [] -> show_metrics client
       | _ -> Format.printf "usage: .metrics@.");
    (".slow", "[n]", "most recent slow operations (default 20)",
     fun client args ->
       match args with
       | [] -> show_slow client None
       | [ n ] -> (
           match int_of_string_opt n with
           | Some n when n >= 0 -> show_slow client (Some n)
           | _ -> Format.printf "usage: .slow [n]@.")
       | _ -> Format.printf "usage: .slow [n]@.");
    (".cluster", "", "placement policy, epoch, and backend shards",
     fun client args ->
       match args with
       | [] -> show_cluster client
       | _ -> Format.printf "usage: .cluster@.");
    (".flush", "<table> [ts]",
     "make rows with timestamp <= ts durable (default: all)",
     fun client args ->
       match args with
       | [ table ] -> do_flush client table Int64.max_int
       | [ table; ts ] -> (
           match Int64.of_string_opt ts with
           | Some ts -> do_flush client table ts
           | None -> Format.printf "usage: .flush <table> [ts]@.")
       | _ -> Format.printf "usage: .flush <table> [ts]@.");
    (".profile", "[on|off]", "per-query EXPLAIN ANALYZE breakdowns",
     fun client args ->
       match args with
       | [ "on" ] ->
           Lt_net.Client.set_profiling client true;
           Format.printf "profiling on@."
       | [ "off" ] ->
           Lt_net.Client.set_profiling client false;
           Format.printf "profiling off@."
       | [] ->
           Format.printf "profiling %s@."
             (if Lt_net.Client.profiling client then "on" else "off")
       | _ -> Format.printf "usage: .profile [on|off]@.");
    (".trace", "<id>|last", "reassembled cross-process span tree",
     fun client args ->
       match args with
       | [ arg ] -> show_trace client arg
       | _ -> Format.printf "usage: .trace <id>|last@.");
    (".quit", "", "leave the shell", fun _ _ -> raise Exit);
    (".exit", "", "leave the shell", fun _ _ -> raise Exit) ]

let tokenize line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let run_dot_command client line =
  match tokenize line with
  | [] -> ()
  | cmd :: args -> (
      match
        List.find_opt (fun (name, _, _, _) -> name = cmd) dot_commands
      with
      | Some (_, _, _, handler) -> handler client args
      | None ->
          Format.printf "unknown command %s (try .help)@." cmd)

let execute_line client line =
  match String.trim line with
  | "" -> ()
  | "exit" | "quit" -> raise Exit
  | line when line.[0] = '.' -> run_dot_command client line
  | line -> (
      match Lt_net.Client.sql client line with
      | result -> (
          Format.printf "%a@." Lt_sql.Executor.pp_result result;
          (* With [.profile on], every query page carried a profile;
             fold the statement's pages into one breakdown. *)
          match Lt_net.Client.take_profiles client with
          | [] -> ()
          | ps ->
              Format.printf "%a@." Lt_obs.Profile.pp
                (Lt_obs.Profile.aggregate ps))
      | exception Lt_sql.Lexer.Syntax_error msg ->
          Format.printf "syntax error: %s@." msg
      | exception Lt_sql.Planner.Plan_error msg ->
          Format.printf "plan error: %s@." msg
      | exception Lt_sql.Executor.Exec_error msg -> Format.printf "error: %s@." msg
      | exception Lt_net.Client.Remote_error msg ->
          Format.printf "server error: %s@." msg)

let repl client =
  (try
     while true do
       print_string "littletable> ";
       flush stdout;
       match In_channel.input_line In_channel.stdin with
       | None -> raise Exit
       | Some line -> execute_line client line
     done
   with Exit -> ());
  print_newline ()

let run host port statement =
  (* An enabled obs makes the shell a trace origin: every request goes
     out under a fresh root context, so [.trace last] can fetch the
     cross-process tree the previous statement produced. *)
  let obs = Lt_obs.Obs.create ~clock:Lt_util.Clock.system () in
  match Lt_net.Client.connect ~obs ~host ~port () with
  | client -> (
      match statement with
      | Some stmt ->
          execute_line client stmt;
          Lt_net.Client.close client
      | None ->
          repl client;
          Lt_net.Client.close client)
  | exception Lt_net.Client.Remote_error msg ->
      Printf.eprintf "littletable-shell: %s\n" msg;
      exit 1

open Cmdliner

let host =
  let doc = "Server host." in
  Arg.(value & opt string "127.0.0.1" & info [ "h"; "host" ] ~docv:"HOST" ~doc)

let port =
  let doc = "Server port." in
  Arg.(value & opt int 7447 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let statement =
  let doc = "Execute one SQL statement and exit." in
  Arg.(value & opt (some string) None & info [ "e"; "execute" ] ~docv:"SQL" ~doc)

let cmd =
  let doc = "SQL shell for the LittleTable server" in
  Cmd.v (Cmd.info "littletable-shell" ~doc) Term.(const run $ host $ port $ statement)

let () = exit (Cmd.eval cmd)
