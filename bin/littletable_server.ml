(* The LittleTable server executable.

   Three modes:

   - default: serve a database directory over TCP
       dune exec bin/littletable_server.exe -- --dir /var/lib/littletable --port 7447

   - router: front a fleet of backend servers, speaking the same
     protocol to clients while sharding rows/queries by leading key
       littletable_server --router --backends 127.0.0.1:7501,127.0.0.1:7502,127.0.0.1:7503 \
         --replicas 0=127.0.0.1:7601 --port 7447

   - warm spare: continuously sync a primary's directory, promoting to
     a live server on the first data request after the primary dies
       littletable_server --spare-of /var/lib/littletable --dir /var/lib/littletable-spare *)

let setup_logging level =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level level

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "littletable-server: %s\n" msg;
      exit 2)
    fmt

let serve ~what server =
  Printf.printf "littletable: %s on 127.0.0.1:%d\n%!" what
    (Lt_net.Server.port server);
  (match Lt_net.Server.metrics_port server with
  | Some p ->
      Printf.printf "littletable: metrics on http://127.0.0.1:%d/metrics\n%!" p
  | None -> ());
  let stop _ =
    Printf.printf "littletable: shutting down\n%!";
    Lt_net.Server.stop server;
    exit 0
  in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Lt_net.Server.wait server

(* "HOST:PORT" or bare "PORT" (loopback). *)
let parse_endpoint s =
  match String.rindex_opt s ':' with
  | None -> (
      match int_of_string_opt s with
      | Some port -> { Lt_cluster.Cluster_client.host = "127.0.0.1"; port }
      | None -> fail "bad endpoint %S (expected HOST:PORT or PORT)" s)
  | Some i -> (
      let host = String.sub s 0 i in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port -> { Lt_cluster.Cluster_client.host; port }
      | None -> fail "bad endpoint %S (expected HOST:PORT or PORT)" s)

let split_commas s =
  String.split_on_char ',' s |> List.filter (fun x -> String.trim x <> "")

(* "SHARD=HOST:PORT" *)
let parse_replica s =
  match String.index_opt s '=' with
  | Some i -> (
      match int_of_string_opt (String.sub s 0 i) with
      | Some shard ->
          (shard, parse_endpoint (String.sub s (i + 1) (String.length s - i - 1)))
      | None -> fail "bad replica %S (expected SHARD=HOST:PORT)" s)
  | None -> fail "bad replica %S (expected SHARD=HOST:PORT)" s

(* Split points for --placement range:v1,v2,...: int64 when the leading
   key column is numeric, otherwise the literal string. *)
let parse_point s =
  match Int64.of_string_opt s with
  | Some v -> Littletable.Value.Int64 v
  | None -> Littletable.Value.String s

let parse_placement ~shards spec =
  match String.index_opt spec ':' with
  | None when spec = "hash" ->
      Lt_cluster.Placement.Hash { vnodes = 64 }
  | None -> fail "bad placement %S (expected hash[:VNODES] or range:V1,V2,...)" spec
  | Some i -> (
      let kind = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      match kind with
      | "hash" -> (
          match int_of_string_opt rest with
          | Some vnodes when vnodes > 0 -> Lt_cluster.Placement.Hash { vnodes }
          | _ -> fail "bad placement %S (hash:VNODES needs a positive count)" spec)
      | "range" ->
          let points = List.map parse_point (split_commas rest) in
          if List.length points <> shards - 1 then
            fail "range placement over %d backends needs %d split points, got %d"
              shards (shards - 1) (List.length points);
          Lt_cluster.Placement.Range points
      | _ -> fail "bad placement %S (expected hash[:VNODES] or range:...)" spec)

let run_router ~backends ~replicas ~placement_spec ~row_limit ~port
    ~metrics_port =
  let backends = List.map parse_endpoint (split_commas backends) in
  if backends = [] then fail "--router needs --backends";
  let replicas = List.map parse_replica replicas in
  let shards = List.length backends in
  let policy = parse_placement ~shards placement_spec in
  let placement = Lt_cluster.Placement.create ~shards ~policy in
  let obs = Lt_obs.Obs.create ~clock:Lt_util.Clock.system () in
  let cluster =
    Lt_cluster.Cluster_client.create ~obs ~connect_timeout:5.0 ~replicas
      ~backends ()
  in
  let router =
    Lt_cluster.Router.create ~obs ?row_limit ~placement ~cluster ()
  in
  let server =
    Lt_net.Server.start_custom ?metrics_port
      ~backend:(Lt_cluster.Router.backend router) ~port ()
  in
  serve ~what:(Printf.sprintf "routing %d shards" shards) server

let run_spare ~primary_dir ~dir ~sync_period ~port ~metrics_port =
  let vfs = Lt_vfs.Vfs.real () in
  let replica =
    Lt_cluster.Replica.start ~period_s:sync_period ~vfs ~primary_dir ~dir ()
  in
  let server =
    Lt_net.Server.start_custom ?metrics_port
      ~backend:(Lt_cluster.Replica.backend replica) ~port ()
  in
  serve ~what:(Printf.sprintf "warm spare of %s" primary_dir) server

let run_db ~dir ~port ~metrics_port ~maintenance ~query_domains =
  let config =
    match query_domains with
    | None -> Littletable.Config.default
    | Some n -> Littletable.Config.make ~query_domains:n ()
  in
  let db = Littletable.Db.open_ ~config ~dir () in
  let server =
    Lt_net.Server.start ~maintenance_period_s:maintenance ?metrics_port ~db
      ~port ()
  in
  serve ~what:(Printf.sprintf "serving %s" dir) server

let run dir port metrics_port maintenance query_domains level router backends
    replicas placement row_limit spare_of sync_period =
  setup_logging level;
  match (router, spare_of) with
  | true, Some _ -> fail "--router and --spare-of are mutually exclusive"
  | true, None ->
      run_router ~backends ~replicas ~placement_spec:placement ~row_limit
        ~port ~metrics_port
  | false, Some primary_dir ->
      run_spare ~primary_dir ~dir ~sync_period ~port ~metrics_port
  | false, None -> run_db ~dir ~port ~metrics_port ~maintenance ~query_domains

open Cmdliner

let dir =
  let doc = "Database directory (created if absent)." in
  Arg.(value & opt string "./littletable-data" & info [ "d"; "dir" ] ~docv:"DIR" ~doc)

let port =
  let doc = "TCP port to listen on (0 picks an ephemeral port)." in
  Arg.(value & opt int 7447 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

let metrics_port =
  let doc =
    "Serve Prometheus metrics over HTTP at /metrics on this port (0 picks \
     an ephemeral port). Off when absent."
  in
  Arg.(value & opt (some int) None & info [ "metrics-port" ] ~docv:"PORT" ~doc)

let maintenance =
  let doc = "Seconds between background maintenance passes." in
  Arg.(value & opt float 1.0 & info [ "maintenance-period" ] ~docv:"SECONDS" ~doc)

let query_domains =
  let doc =
    "Worker domains for parallel tablet scans, shared by all client \
     connections and sized once at startup. 0 forces sequential scans; \
     default: CPU count minus two, at least one."
  in
  Arg.(value & opt (some int) None & info [ "query-domains" ] ~docv:"N" ~doc)

let log_level =
  let doc = "Log verbosity: quiet, error, warning, info, debug." in
  Arg.(value & opt (enum [ ("quiet", None); ("error", Some Logs.Error);
                           ("warning", Some Logs.Warning); ("info", Some Logs.Info);
                           ("debug", Some Logs.Debug) ])
         (Some Logs.Info)
       & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let router =
  let doc =
    "Run as a sharding router over the --backends fleet instead of \
     serving a local directory."
  in
  Arg.(value & flag & info [ "router" ] ~doc)

let backends =
  let doc = "Comma-separated backend endpoints (HOST:PORT), in shard order." in
  Arg.(value & opt string "" & info [ "backends" ] ~docv:"ENDPOINTS" ~doc)

let replicas =
  let doc =
    "Warm-spare replica for a shard, as SHARD=HOST:PORT. Repeatable. \
     Reads fail over to the replica when the shard's primary dies."
  in
  Arg.(value & opt_all string [] & info [ "replicas" ] ~docv:"SHARD=HOST:PORT" ~doc)

let placement =
  let doc =
    "Placement policy over the leading primary-key column: hash \
     (consistent hashing, optionally hash:VNODES) or \
     range:V1,V2,... (N-1 ascending split points for N backends; \
     int64 or string literals)."
  in
  Arg.(value & opt string "hash" & info [ "placement" ] ~docv:"POLICY" ~doc)

let row_limit =
  let doc =
    "Router page cap behind the more-available flag. Must equal the \
     backends' server row limit for byte-identical paging; default: the \
     engine default."
  in
  Arg.(value & opt (some int) None & info [ "router-row-limit" ] ~docv:"N" ~doc)

let spare_of =
  let doc =
    "Run as a warm spare of the primary database at this directory: \
     continuously sync it into --dir and promote to a live server on \
     the first data request."
  in
  Arg.(value & opt (some string) None & info [ "spare-of" ] ~docv:"PRIMARY_DIR" ~doc)

let sync_period =
  let doc = "Seconds between spare sync passes (with --spare-of)." in
  Arg.(value & opt float 10.0 & info [ "sync-period" ] ~docv:"SECONDS" ~doc)

let cmd =
  let doc = "LittleTable time-series database server" in
  let info = Cmd.info "littletable-server" ~doc in
  Cmd.v info
    Term.(
      const run $ dir $ port $ metrics_port $ maintenance $ query_domains
      $ log_level $ router $ backends $ replicas $ placement $ row_limit
      $ spare_of $ sync_period)

let () = exit (Cmd.eval cmd)
