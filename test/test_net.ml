open Littletable
open Lt_net

(* ---- Protocol roundtrips (no sockets) --------------------------------- *)

let roundtrip_request req =
  let b = Buffer.create 64 in
  Protocol.write_request b req;
  let cur = Lt_util.Binio.cursor (Buffer.contents b) in
  let req' = Protocol.read_request cur in
  Lt_util.Binio.expect_end cur;
  req'

let roundtrip_response resp =
  let b = Buffer.create 64 in
  Protocol.write_response b resp;
  let cur = Lt_util.Binio.cursor (Buffer.contents b) in
  let resp' = Protocol.read_response cur in
  Lt_util.Binio.expect_end cur;
  resp'

let test_protocol_requests () =
  let schema = Support.usage_schema () in
  let reqs =
    [
      Protocol.Hello 1;
      Protocol.List_tables;
      Protocol.Get_table "usage";
      Protocol.Create_table { table = "t"; schema; ttl = Some 42L };
      Protocol.Drop_table "t";
      Protocol.Query
        {
          table = "t";
          query =
            Query.with_limit 9
              (Query.with_direction Query.Desc
                 (Query.between ~ts_min:1L ~ts_max:2L
                    (Query.prefix [ Value.Int64 5L ])));
          profile = false;
        };
      Protocol.Query { table = "t"; query = Query.all; profile = true };
      Protocol.Latest { table = "t"; prefix = [ Value.Int64 1L; Value.String "d" ] };
      Protocol.Flush_before { table = "t"; ts = 123L };
      Protocol.Get_metrics_snapshot;
      Protocol.Get_trace
        { trace = Some (0x0123456789abcdefL, -1L); slow_only = false };
      Protocol.Get_trace { trace = None; slow_only = true };
      Protocol.Get_placement;
      Protocol.Ping;
      Protocol.Insert_batch { groups = Protocol.Groups [] };
      Protocol.Insert_batch
        {
          groups =
            Protocol.Groups
              [
                ( "usage",
                  [
                    [| Value.Int64 1L; Value.Timestamp 2L |];
                    [| Value.Int64 3L; Value.Timestamp 4L |];
                  ] );
                ( "events",
                  [
                    [| Value.Int32 1l; Value.Double 2.5; Value.String "x\x00y";
                       Value.Blob "\xff"; Value.Timestamp 7L |];
                  ] );
                ("empty", []);
              ];
        };
    ]
  in
  List.iter
    (fun req ->
      match (req, roundtrip_request req) with
      | ( Protocol.Create_table { table = t1; schema = s1; ttl = l1 },
          Protocol.Create_table { table = t2; schema = s2; ttl = l2 } ) ->
          Alcotest.(check bool) "create" true
            (t1 = t2 && Schema.equal s1 s2 && l1 = l2)
      | ( Protocol.Insert_batch { groups = g1 },
          Protocol.Insert_batch { groups = g2 } ) ->
          (* The reader deliberately captures the groups section raw
             (undecoded, for zero-copy forwarding); decoded groups must
             still match what was written. *)
          Alcotest.(check bool) "batch read back raw" true
            (match g2 with Protocol.Raw _ -> true | _ -> false);
          Alcotest.(check bool) "batch groups roundtrip" true
            (Protocol.groups_of_payload g1 = Protocol.groups_of_payload g2)
      | a, b -> Alcotest.(check bool) "request roundtrip" true (a = b))
    reqs

let sample_ctx =
  {
    Lt_obs.Trace.cx_trace_hi = 0x0123456789abcdefL;
    cx_trace_lo = -2L;
    cx_span = 77L;
    cx_parent = 3L;
  }

let sample_profile =
  {
    Lt_obs.Profile.p_plan_us = 12L;
    p_scan_us = 340L;
    p_stall_us = 5L;
    p_total_us = 400L;
    p_rows_scanned = 512;
    p_rows_returned = 8;
    p_tablets = 3;
    p_tablets_pruned = 2;
    p_cache_hits = 7;
    p_cache_misses = 1;
    p_blocks_footer_answered = 4;
    p_columns_decoded = 11;
    p_bytes_in = 0;
    p_bytes_out = 0;
    p_shards =
      [
        ("shard0", { Lt_obs.Profile.empty with Lt_obs.Profile.p_scan_us = 100L });
        ("shard1", { Lt_obs.Profile.empty with Lt_obs.Profile.p_rows_scanned = 9 });
      ];
  }

let test_protocol_responses () =
  let resps =
    [
      Protocol.Hello_ok 1;
      Protocol.Tables [ "a"; "b" ];
      Protocol.Ok;
      Protocol.Insert_ok 12;
      Protocol.Row_batch
        {
          rows = [ [| Value.Int64 1L |]; [| Value.String "s" |] ];
          more_available = true;
          scanned = 99;
          profile = None;
        };
      Protocol.Row_batch
        {
          rows = [];
          more_available = false;
          scanned = 0;
          profile = Some sample_profile;
        };
      Protocol.Latest_row None;
      Protocol.Latest_row (Some [| Value.Timestamp 5L |]);
      Protocol.Insert_partial { landed = []; message = "m" };
      Protocol.Insert_partial
        {
          landed = [ ("usage", 12); ("shard1/events", 0) ];
          message = "duplicate key (net=1)";
        };
      Protocol.Error "boom";
      Protocol.Pong;
      Protocol.Placement_info
        { pl_epoch = 0; pl_policy = "single"; pl_backends = [] };
      Protocol.Placement_info
        {
          pl_epoch = 7;
          pl_policy = "hash(vnodes=64)";
          pl_backends = [ ("127.0.0.1", 7501); ("10.1.2.3", 7502) ];
        };
      Protocol.Trace_spans
        [
          {
            Lt_obs.Trace.sp_op = Lt_obs.Trace.Query;
            sp_table = "usage";
            sp_start_us = 17L;
            sp_ctx = Some sample_ctx;
            sp_prof =
              { Lt_obs.Profile.empty with
                p_total_us = 250_000L;
                p_rows_scanned = 512;
                p_rows_returned = 3;
                p_tablets = 4;
                p_cache_hits = 9;
                p_cache_misses = 2 };
          };
          {
            Lt_obs.Trace.sp_op = Lt_obs.Trace.Merge;
            sp_table = "t2";
            sp_start_us = 0L;
            sp_ctx = None;
            sp_prof =
              { Lt_obs.Profile.empty with
                p_bytes_in = 70_000; p_bytes_out = 65_536 };
          };
          {
            Lt_obs.Trace.sp_op = Lt_obs.Trace.Route;
            sp_table = "query";
            sp_start_us = 5L;
            sp_ctx = Some sample_ctx;
            sp_prof = sample_profile;
          };
        ];
      Protocol.Trace_spans [];
      Protocol.Metrics_snapshot [];
      Protocol.Metrics_snapshot
        [
          {
            Lt_obs.Metrics.sn_name = "lt_rows_total";
            sn_help = "Rows.";
            sn_kind = Lt_obs.Metrics.K_counter;
            sn_bounds = [||];
            sn_children =
              [
                {
                  Lt_obs.Metrics.sn_labels = [ ("table", "usage") ];
                  sn_count = 0;
                  sn_fval = 42.;
                  sn_max = 0.;
                  sn_buckets = [||];
                };
              ];
          };
          {
            Lt_obs.Metrics.sn_name = "lt_q_seconds";
            sn_help = "Latency.";
            sn_kind = Lt_obs.Metrics.K_histogram;
            sn_bounds = [| 0.1; 1.0 |];
            sn_children =
              [
                {
                  Lt_obs.Metrics.sn_labels = [];
                  sn_count = 3;
                  sn_fval = 1.25;
                  sn_max = 1.0;
                  sn_buckets = [| 1; 1; 1 |];
                };
              ];
          };
        ];
    ]
  in
  List.iter
    (fun r -> Alcotest.(check bool) "response roundtrip" true (roundtrip_response r = r))
    resps

let test_protocol_rejects_garbage () =
  (match Protocol.read_request (Lt_util.Binio.cursor "\xee") with
  | (_ : Protocol.request) -> Alcotest.fail "bad tag accepted"
  | exception Protocol.Protocol_error _ -> ());
  match Protocol.read_response (Lt_util.Binio.cursor "\xee") with
  | (_ : Protocol.response) -> Alcotest.fail "bad tag accepted"
  | exception Protocol.Protocol_error _ -> ()

(* The trace context travels as a frame-level prefix ahead of the
   tagged request body, so any request type carries it unchanged and
   its absence decodes as [None]. *)
let test_ctx_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Protocol.send_request ~ctx:sample_ctx a Protocol.Ping;
      (match Protocol.recv_request b with
      | Some c, Protocol.Ping ->
          Alcotest.(check bool) "ctx carried" true (c = sample_ctx)
      | _ -> Alcotest.fail "ctx lost in framing");
      Protocol.send_request a (Protocol.Get_table "t");
      match Protocol.recv_request b with
      | None, Protocol.Get_table t when t = "t" -> ()
      | _ -> Alcotest.fail "absent ctx must decode as None")

(* ---- End-to-end over TCP ----------------------------------------------- *)

(* [with_db_server f] runs [f db server] against a fresh server with no
   maintenance thread; merges happen only when a test asks for one. *)
let with_db_server ?slow_op_micros ?(server_row_limit = 8) f =
  let dir = Filename.temp_file "lt_net_test" "" in
  Sys.remove dir;
  let config =
    Littletable.Config.make ~server_row_limit ~merge_delay:0L
      ~rollover_spread:0.0 ?slow_op_micros ()
  in
  let db = Db.open_ ~config ~dir () in
  let server = Server.start ~maintenance_period_s:0.0 ~db ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f db server)

let with_server f = with_db_server (fun _ server -> f server)

(* A table name that is a path step ("." or "..") is refused on the
   wire, and the refusal touches no file: with ".." the table directory
   would be the data root's parent, which holds files of other owners. *)
let test_create_table_dot_names_refused () =
  let parent = Filename.temp_file "lt_net_names" "" in
  Sys.remove parent;
  Sys.mkdir parent 0o755;
  let root = Filename.concat parent "db" in
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote parent))))
    (fun () ->
      let plant dir file =
        Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
            output_string oc file)
      in
      let db = Db.open_ ~dir:root () in
      List.iter (plant parent) [ "000001.tab"; "notes.txt" ];
      List.iter (plant root) [ "000002.tab" ];
      let listing () =
        List.map
          (fun dir -> List.sort compare (Array.to_list (Sys.readdir dir)))
          [ parent; root ]
      in
      let before = listing () in
      List.iter
        (fun table ->
          (match
             Server.handle db
               (Protocol.Create_table
                  { table; schema = Support.usage_schema (); ttl = None })
           with
          | Protocol.Error _ -> ()
          | _ -> Alcotest.failf "table name %S accepted" table);
          Alcotest.(check (list (list string)))
            (Printf.sprintf "%S deletes and writes nothing" table)
            before (listing ()))
        [ ".."; "." ];
      Alcotest.(check (list string)) "no table" [] (Db.table_names db))

let test_server_end_to_end () =
  with_db_server (fun db server ->
      let c = Client.connect ~port:(Server.port server) () in
      Client.ping c;
      Alcotest.(check (list string)) "empty" [] (Client.list_tables c);
      let schema = Support.usage_schema () in
      Client.create_table c "usage" schema ~ttl:None;
      Alcotest.(check (list string)) "created" [ "usage" ] (Client.list_tables c);
      let got_schema, ttl = Client.table_info c "usage" in
      Alcotest.(check bool) "schema" true (Schema.equal schema got_schema);
      Alcotest.(check bool) "ttl" true (ttl = None);
      (* Insert 30 rows; server pages at 8. *)
      let rows =
        List.init 30 (fun i ->
            Support.usage_row ~network:1L ~device:(Int64.of_int i)
              ~ts:(Int64.of_int (i + 1)) ~bytes:(Int64.of_int (i * 2)) ~rate:0.0)
      in
      Client.insert c "usage" rows;
      let page = Client.query_page c "usage" Query.all in
      Alcotest.(check int) "page capped" 8 (List.length page.Client.rows);
      Alcotest.(check bool) "more" true page.Client.more_available;
      let all = Client.query_all c "usage" Query.all in
      Alcotest.(check int) "paged through" 30 (List.length all);
      Alcotest.(check bool) "ordered and complete" true
        (List.map (fun r -> Support.int64_of_cell r.(1)) all
        = List.init 30 Int64.of_int);
      (* Descending pagination too. *)
      let desc = Client.query_all c "usage" (Query.with_direction Query.Desc Query.all) in
      Alcotest.(check bool) "desc" true (desc = List.rev all);
      (* Client-side limit below a page. *)
      let limited = Client.query_all c "usage" (Query.with_limit 3 Query.all) in
      Alcotest.(check int) "limit 3" 3 (List.length limited);
      (* latest. *)
      (match Client.latest c "usage" [ Value.Int64 1L ] with
      | Some row -> Alcotest.(check int64) "latest ts" 30L (Support.ts_of_cell row.(2))
      | None -> Alcotest.fail "no latest");
      (* flush_before + stats. *)
      Client.flush_before c "usage" ~ts:100L;
      let s = Client.stats c "usage" in
      Alcotest.(check int) "rows inserted" 30 s.Stats.rows_inserted;
      Alcotest.(check bool) "flushed" true (s.Stats.flushes >= 1);
      (* A second flushed tablet, a merge, and reads through the block
         cache: every counter of the remote view then has something to
         carry, and it must equal the server's own, field for field. *)
      Client.insert c "usage"
        (List.init 30 (fun i ->
             Support.usage_row ~network:2L ~device:(Int64.of_int i)
               ~ts:(Int64.of_int (i + 1)) ~bytes:1L ~rate:0.0));
      Client.flush_before c "usage" ~ts:100L;
      let tbl = Db.table db "usage" in
      Alcotest.(check bool) "merged" true (Table.merge_step tbl);
      for _ = 1 to 2 do
        ignore (Client.query_all c "usage" Query.all)
      done;
      let s = Client.stats c "usage" in
      Alcotest.(check bool) "merge counted" true (s.Stats.merged_bytes_in > 0);
      Alcotest.(check bool) "cache hit" true
        (s.Stats.cache.Stats.cache_hits > 0);
      Alcotest.(check bool) "stats view equals Table.stats" true
        (s = Table.stats tbl);
      (* errors. *)
      (match Client.insert c "usage" rows with
      | () -> Alcotest.fail "duplicate batch accepted"
      | exception Client.Remote_error _ -> ());
      (match Client.table_info c "missing" with
      | (_ : Schema.t * int64 option) -> Alcotest.fail "missing table"
      | exception Client.Remote_error _ -> ());
      Client.close c)

(* A response larger than [Protocol.max_frame] is answered with an
   error naming its size, and the connection goes on serving: 65 rows of
   1 MiB blobs under a row limit of 1,000 make a 68 MB page. *)
let test_oversized_response_refused () =
  with_db_server ~server_row_limit:1000 (fun db server ->
      let schema =
        Schema.create
          ~columns:
            [ { Schema.name = "id"; ctype = Value.T_int64; default = Value.Int64 0L };
              { Schema.name = "ts"; ctype = Value.T_timestamp; default = Value.Timestamp 0L };
              { Schema.name = "body"; ctype = Value.T_blob; default = Value.Blob "" } ]
          ~pkey:[ "id"; "ts" ]
      in
      let t = Db.create_table db "blobs" schema ~ttl:None in
      let body = String.make (1 lsl 20) 'x' in
      Table.insert t
        (List.init 65 (fun i ->
             [| Value.Int64 (Int64.of_int i); Value.Timestamp 1L; Value.Blob body |]));
      let c = Client.connect ~port:(Server.port server) () in
      Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
          (match Client.query_page c "blobs" Query.all with
          | (_ : Client.page) -> Alcotest.fail "oversized page answered"
          | exception Client.Remote_error msg ->
              Alcotest.(check bool) ("names the limit: " ^ msg) true
                (Support.contains ~sub:"exceeds limit" msg));
          Client.ping c))

(* The §4.1.2 flush command over the wire: rows acknowledged in two
   period bins survive a crash once [flush_before] returns, although its
   timestamp names only the older bin. *)
let test_flush_before_over_wire () =
  let clock = Lt_util.Clock.manual ~start:Support.ts0 () in
  let vfs = Lt_vfs.Vfs.memory () in
  let config = Littletable.Config.make ~flush_size:(1 lsl 20) () in
  let db = Db.open_ ~config ~clock ~vfs ~dir:"dbroot" () in
  let server = Server.start ~maintenance_period_s:0.0 ~db ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let c = Client.connect ~port:(Server.port server) () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      let now = Lt_util.Clock.now clock in
      let old = Int64.sub now (Int64.mul 2L Lt_util.Clock.week) in
      let rows =
        List.concat_map
          (fun ts ->
            List.init 5 (fun d ->
                Support.usage_row ~network:1L ~device:(Int64.of_int d) ~ts
                  ~bytes:(Int64.of_int d) ~rate:0.0))
          [ old; now ]
      in
      Client.insert c "usage" rows;
      Alcotest.(check int) "two period bins" 2
        (Table.memtable_count (Db.table db "usage"));
      Client.flush_before c "usage" ~ts:old;
      Client.close c;
      Lt_vfs.Vfs.crash vfs;
      let db2 = Db.open_ ~config ~clock ~vfs ~dir:"dbroot" () in
      let got = (Table.query (Db.table db2 "usage") Query.all).Table.rows in
      Alcotest.(check bool) "every acknowledged row survives" true
        (List.sort compare got = List.sort compare rows);
      Db.close db2)

let test_server_sql_over_wire () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      ignore
        (Client.sql c
           "CREATE TABLE ev (net STRING, dev STRING, ts TIMESTAMP, \
            id INT64, body STRING, PRIMARY KEY (net, dev, ts))");
      (match
         Client.sql c
           "INSERT INTO ev (net, dev, ts, id, body) VALUES \
            ('n1', 'd1', 10, 1, 'assoc'), ('n1', 'd1', 20, 2, 'dhcp'), \
            ('n1', 'd2', 30, 3, 'auth')"
       with
      | Lt_sql.Executor.Affected 3 -> ()
      | _ -> Alcotest.fail "insert");
      (match Client.sql c "SELECT COUNT(*) FROM ev WHERE net = 'n1' AND dev = 'd1'" with
      | Lt_sql.Executor.Rows { rows = [ [| Value.Int64 2L |] ]; _ } -> ()
      | _ -> Alcotest.fail "count");
      (match Client.sql c "SELECT dev, MAX(ts) FROM ev WHERE net = 'n1' GROUP BY dev" with
      | Lt_sql.Executor.Rows { rows; _ } -> Alcotest.(check int) "groups" 2 (List.length rows)
      | _ -> Alcotest.fail "group");
      Client.close c)

let test_multiple_clients () =
  with_server (fun server ->
      let schema = Support.usage_schema () in
      let c0 = Client.connect ~port:(Server.port server) () in
      Client.create_table c0 "usage" schema ~ttl:None;
      (* Paper §5.1.4: separate writers to separate tables; here several
         clients write to the same server concurrently. *)
      let clients = List.init 4 (fun _ -> Client.connect ~port:(Server.port server) ()) in
      let threads =
        List.mapi
          (fun w c ->
            Thread.create
              (fun () ->
                for i = 0 to 49 do
                  Client.insert c "usage"
                    [
                      Support.usage_row ~network:(Int64.of_int w)
                        ~device:(Int64.of_int i) ~ts:(Int64.of_int ((w * 1000) + i))
                        ~bytes:0L ~rate:0.0;
                    ]
                done)
              ())
          clients
      in
      List.iter Thread.join threads;
      let all = Client.query_all c0 "usage" Query.all in
      Alcotest.(check int) "all writers landed" 200 (List.length all);
      List.iter Client.close (c0 :: clients))

let test_reconnect_after_server_restart () =
  let dir = Filename.temp_file "lt_net_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let db = Db.open_ ~dir () in
      let server = Server.start ~maintenance_period_s:0.0 ~db ~port:0 () in
      let port = Server.port server in
      let c = Client.connect ~port () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert c "usage"
        [ Support.usage_row ~network:1L ~device:1L ~ts:1L ~bytes:0L ~rate:0.0 ];
      (* Server goes down: the persistent connection detects it. *)
      Server.stop server;
      (match Client.ping c with
      | () -> Alcotest.fail "expected Disconnected"
      | exception Client.Disconnected -> ());
      (* Server comes back on the same port (flush happened at stop). *)
      let db2 = Db.open_ ~dir () in
      let server2 = Server.start ~maintenance_period_s:0.0 ~db:db2 ~port () in
      Client.reconnect c;
      let rows = Client.query_all c "usage" Query.all in
      Alcotest.(check int) "durable row back" 1 (List.length rows);
      Client.close c;
      Server.stop server2)

(* A server's record of its connections must not outlive them: once a
   handler closes its socket the fd number can be reused by any other
   socket in the process, and [stop] shutting down that number would cut
   a connection it does not own. Here server A's closed connection is
   followed by server B's live one. *)
let test_stop_leaves_other_server_alone () =
  with_server (fun a ->
      let c1 = Client.connect ~port:(Server.port a) () in
      Client.ping c1;
      Client.close c1;
      (* Let A's handler see EOF and close its end. *)
      Thread.delay 0.3;
      with_server (fun b ->
          let c2 = Client.connect ~port:(Server.port b) () in
          Client.ping c2;
          Server.stop a;
          (match Client.ping c2 with
          | () -> ()
          | exception Client.Disconnected ->
              Alcotest.fail "stopping server A cut a connection to server B");
          Client.close c2))

(* A client one version behind (v7 sent spans with five fixed counts
   and records without byte counts) must be refused at the door, not
   half-served with messages it cannot decode. Older request tags (v6's
   stats, text-metrics and slow-op requests as tags 9, 15 and 16; v5's
   single-table inserts as tag 5) no longer decode at all. *)
let test_mixed_version_hello_rejected () =
  let retired tag =
    let b = Buffer.create 16 in
    Lt_util.Binio.put_u8 b tag;
    Lt_util.Binio.put_string b "usage";
    Lt_util.Binio.put_varint b 0;
    Buffer.contents b
  in
  List.iter
    (fun tag ->
      match Protocol.read_request (Lt_util.Binio.cursor (retired tag)) with
      | (_ : Protocol.request) -> Alcotest.failf "request tag %d accepted" tag
      | exception Protocol.Protocol_error msg ->
          Alcotest.(check string)
            (Printf.sprintf "tag %d is a bad request tag" tag)
            (Printf.sprintf "bad request tag %d" tag)
            msg)
    [ 5; 9; 15; 16 ];
  with_server (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
          Protocol.send_request fd (Protocol.Hello 7);
          (match Protocol.recv_response fd with
          | Protocol.Error msg ->
              Alcotest.(check bool) "names the version" true
                (Support.contains ~sub:"version" msg)
          | _ -> Alcotest.fail "stale version accepted");
          (* The current version still gets through on the same socket. *)
          Protocol.send_request fd (Protocol.Hello Protocol.version);
          match Protocol.recv_response fd with
          | Protocol.Hello_ok v ->
              Alcotest.(check int) "hello_ok echoes version" Protocol.version v
          | _ -> Alcotest.fail "current version refused"))

(* Per-query profiles over the wire: explicit opt-in returns a
   breakdown, the default stays bare, and rows are identical either
   way; the sticky client-side flag accumulates for [take_profiles]. *)
let test_query_profile_over_wire () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      let rows =
        List.init 20 (fun i ->
            Support.usage_row ~network:1L ~device:(Int64.of_int i)
              ~ts:(Int64.of_int (i + 1)) ~bytes:0L ~rate:0.0)
      in
      Client.insert c "usage" rows;
      Client.flush_before c "usage" ~ts:100L;
      let page = Client.query_page ~profile:true c "usage" Query.all in
      (match page.Client.profile with
      | Some p ->
          Alcotest.(check int) "profiled rows returned" 8
            p.Lt_obs.Profile.p_rows_returned;
          Alcotest.(check bool) "profiled rows scanned" true
            (p.Lt_obs.Profile.p_rows_scanned >= 8)
      | None -> Alcotest.fail "profile requested but absent");
      let plain = Client.query_page c "usage" Query.all in
      Alcotest.(check bool) "no profile by default" true
        (plain.Client.profile = None);
      Alcotest.(check bool) "profiling leaves rows identical" true
        (plain.Client.rows = page.Client.rows);
      Client.set_profiling c true;
      let (_ : Value.t array list) = Client.query_all c "usage" Query.all in
      let ps = Client.take_profiles c in
      Alcotest.(check bool) "sticky profiling accumulates" true
        (List.length ps >= 1);
      Alcotest.(check int) "take_profiles drains" 0
        (List.length (Client.take_profiles c));
      Client.close c)

(* An obs-enabled client originates a trace per request; Get_trace on
   the server returns that request's spans — the single-node half of
   the cross-process trace tree. *)
let test_trace_fetch_over_wire () =
  (* Every span is slow at a zero threshold, so [.slow]'s view has
     something to cap. *)
  with_db_server ~slow_op_micros:0L (fun _ server ->
      let obs = Lt_obs.Obs.create ~clock:Lt_util.Clock.system () in
      let c = Client.connect ~obs ~port:(Server.port server) () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert c "usage"
        [ Support.usage_row ~network:1L ~device:1L ~ts:1L ~bytes:0L ~rate:0.0 ];
      let (_ : Value.t array list) = Client.query_all c "usage" Query.all in
      match Client.last_trace c with
      | None -> Alcotest.fail "an obs-enabled client must record its trace id"
      | Some (hi, lo) ->
          let spans = Client.trace c (hi, lo) in
          Alcotest.(check bool) "request span present" true
            (List.exists
               (fun sp -> sp.Lt_obs.Trace.sp_op = Lt_obs.Trace.Request)
               spans);
          Alcotest.(check bool) "engine query span joined the trace" true
            (List.exists
               (fun sp -> sp.Lt_obs.Trace.sp_op = Lt_obs.Trace.Query)
               spans);
          Alcotest.(check bool) "every span belongs to the trace" true
            (List.for_all
               (fun sp ->
                 match sp.Lt_obs.Trace.sp_ctx with
                 | Some cx -> Lt_obs.Trace.same_trace ~hi ~lo cx
                 | None -> false)
               spans);
          let ended sp =
            Int64.add sp.Lt_obs.Trace.sp_start_us (Lt_obs.Trace.duration_us sp)
          in
          (match Client.slow_ops ~n:2 c with
          | [ a; b ] ->
              Alcotest.(check bool) "slow ops newest first" true
                (ended a >= ended b)
          | spans ->
              Alcotest.failf "slow_ops ~n:2 gave %d spans" (List.length spans));
          Client.close c)

(* A plain single-node server still answers Get_placement: one implicit
   shard, so router-aware clients degrade gracefully. *)
let test_single_node_placement () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      let pl = Client.placement c in
      Alcotest.(check string) "policy" "single" pl.Protocol.pl_policy;
      Alcotest.(check int) "epoch" 0 pl.Protocol.pl_epoch;
      Alcotest.(check int) "no explicit backends" 0
        (List.length pl.Protocol.pl_backends);
      Client.close c)

(* ---- Batched / buffered inserts ---------------------------------------- *)

let urow i =
  Support.usage_row ~network:1L ~device:(Int64.of_int i)
    ~ts:(Int64.of_int (i + 1)) ~bytes:(Int64.of_int i) ~rate:0.0

(* Client-side buffering: rows accumulate without a round trip and go
   out as one [Insert_batch] when the row threshold trips; an explicit
   [flush] drains the remainder. *)
let test_buffered_insert_flush_on_size () =
  with_server (fun server ->
      let c =
        Client.connect ~batch_rows:10 ~batch_interval_ms:60_000
          ~port:(Server.port server) ()
      in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      for i = 0 to 24 do
        Client.buffered_insert c "usage" [ urow i ]
      done;
      (* Thresholds tripped at rows 10 and 20; five rows still pending. *)
      Alcotest.(check int) "pending below threshold" 5 (Client.pending c);
      Alcotest.(check int) "two batches landed" 20
        (List.length (Client.query_all c "usage" Query.all));
      Client.flush c;
      Alcotest.(check int) "drained" 0 (Client.pending c);
      Client.flush c (* no-op on empty *);
      Alcotest.(check int) "all rows in" 25
        (List.length (Client.query_all c "usage" Query.all));
      Client.close c)

(* Flush-on-interval, timed by the injected clock (never the ambient
   wall clock): the deadline is set when the buffer becomes non-empty
   and checked on each call. *)
let test_buffered_insert_flush_on_interval () =
  with_server (fun server ->
      let clock = Lt_util.Clock.manual () in
      let c =
        Client.connect ~clock ~batch_rows:1_000 ~batch_interval_ms:50
          ~port:(Server.port server) ()
      in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.buffered_insert c "usage" [ urow 0 ];
      Client.buffered_insert c "usage" [ urow 1 ];
      Alcotest.(check int) "interval not up" 2 (Client.pending c);
      Lt_util.Clock.advance clock (Lt_util.Clock.msec 60);
      Client.buffered_insert c "usage" [ urow 2 ];
      Alcotest.(check int) "interval flush" 0 (Client.pending c);
      Alcotest.(check int) "all three in" 3
        (List.length (Client.query_all c "usage" Query.all));
      Client.close c)

(* The single-node partial-commit bugfix: a mid-batch duplicate leaves
   the leading rows committed, and the answer must say how many —
   previously a plain [Error] left the client unable to tell what to
   resend. *)
let test_partial_insert_reports_landed () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert c "usage" [ urow 0; urow 1; urow 2 ];
      (match Client.insert c "usage" [ urow 3; urow 4; urow 1; urow 5 ] with
      | () -> Alcotest.fail "mid-batch duplicate accepted"
      | exception Client.Partial_insert (landed, msg) ->
          Alcotest.(check (list (pair string int)))
            "landed prefix named" [ ("usage", 2) ] landed;
          Alcotest.(check bool) "names the duplicate" true
            (Support.contains ~sub:"duplicate" msg));
      Alcotest.(check int) "prefix committed, remainder not" 5
        (List.length (Client.query_all c "usage" Query.all));
      (* The client resends only the remainder past the duplicate. *)
      Client.insert c "usage" [ urow 5 ];
      Alcotest.(check int) "remainder landed once" 6
        (List.length (Client.query_all c "usage" Query.all));
      (* An all-duplicate batch commits nothing: plain error. *)
      (match Client.insert c "usage" [ urow 0 ] with
      | () -> Alcotest.fail "duplicate accepted"
      | exception Client.Remote_error _ -> ());
      Client.close c)

(* A row that fails validation mid-batch is reported like a duplicate:
   the rows before it are in and the answer names them, so the client
   resends only the rest. *)
let test_invalid_row_reports_landed () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      let bad = [| Value.String "not a network" |] in
      (match Client.insert c "usage" [ urow 0; urow 1; bad ] with
      | () -> Alcotest.fail "invalid row accepted"
      | exception Client.Partial_insert (landed, _) ->
          Alcotest.(check (list (pair string int)))
            "landed prefix named" [ ("usage", 2) ] landed);
      Alcotest.(check int) "prefix committed" 2
        (List.length (Client.query_all c "usage" Query.all));
      Client.close c)

(* A buffered flush hitting a mid-batch duplicate surfaces the same
   accounting and leaves the buffer empty — retries are the caller's,
   never implicit. *)
let test_buffered_flush_partial () =
  with_server (fun server ->
      let c =
        Client.connect ~batch_rows:1_000 ~batch_interval_ms:60_000
          ~port:(Server.port server) ()
      in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert c "usage" [ urow 1 ];
      Client.buffered_insert c "usage" [ urow 2; urow 3; urow 1; urow 4 ];
      (match Client.flush c with
      | () -> Alcotest.fail "flush over a duplicate must fail"
      | exception Client.Partial_insert (landed, _) ->
          Alcotest.(check (list (pair string int)))
            "landed prefix named" [ ("usage", 2) ] landed);
      Alcotest.(check int) "failed flush empties the buffer" 0
        (Client.pending c);
      Client.close c)

(* Runs [f ~dir ~port ~pid] against the real server executable in its own
   process, on a fresh directory and an ephemeral port; the process is
   SIGKILLed and the directory removed afterwards. (Unix.fork is
   unavailable here: the test runner has live domains from the
   parallel-scan suites.) *)
let with_server_process f =
  let dir = Filename.temp_file "lt_net_test" "" in
  Sys.remove dir;
  let pidfile = Filename.temp_file "lt_net_pid" "" in
  Fun.protect
    ~finally:(fun () ->
      (match int_of_string_opt (String.trim (In_channel.with_open_text pidfile In_channel.input_all)) with
      | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None | (exception Sys_error _) -> ());
      Sys.remove pidfile;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      (* Reserve an ephemeral port, then hand it to the child. *)
      let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt probe Unix.SO_REUSEADDR true;
      Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname probe with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      Unix.close probe;
      let rc =
        Sys.command
          (Printf.sprintf
             "%s --dir %s --port %d --log-level quiet --query-domains 0 \
              >/dev/null 2>&1 & echo $! > %s"
             (Filename.quote "../bin/littletable_server.exe")
             (Filename.quote dir) port (Filename.quote pidfile))
      in
      Alcotest.(check int) "backend spawned" 0 rc;
      let pid =
        int_of_string
          (String.trim (In_channel.with_open_text pidfile In_channel.input_all))
      in
      f ~dir ~port ~pid)

(* [connect ()] once the server process accepts connections. *)
let rec connect_when_up ?(tries = 200) connect =
  match connect () with
  | c -> c
  | exception Client.Remote_error _ when tries > 0 ->
      Thread.delay 0.05;
      connect_when_up ~tries:(tries - 1) connect

(* The reconnect-buffer regression (SIGKILL edition): rows buffered when
   the backend dies stay in the buffer — they were never written to a
   socket — and [reconnect] delivers them exactly once; nothing is
   silently dropped, nothing replayed. The backend is the real server
   executable in its own process, so a real SIGKILL takes it down with
   no graceful shutdown. *)
let test_buffered_rows_survive_sigkill_reconnect () =
  with_server_process (fun ~dir ~port ~pid ->
      let c =
        connect_when_up (fun () ->
            Client.connect ~batch_rows:1_000 ~batch_interval_ms:600_000 ~port ())
      in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      for i = 0 to 29 do
        Client.buffered_insert c "usage" [ urow i ]
      done;
      Alcotest.(check int) "all rows buffered, none sent" 30 (Client.pending c);
      Unix.kill pid Sys.sigkill;
      let rec wait_down tries =
        match Client.ping c with
        | () when tries > 0 ->
            Thread.delay 0.05;
            wait_down (tries - 1)
        | () -> Alcotest.fail "server survived SIGKILL"
        | exception Client.Disconnected -> ()
      in
      wait_down 200;
      Alcotest.(check int) "outage does not drop the buffer" 30
        (Client.pending c);
      (* Backend comes back on the same port with empty data (the
         SIGKILL flushed nothing; only the table descriptor reached
         disk). Reconnect must flush the pending rows exactly once.
         The client-visible disconnect can precede the kernel finishing
         teardown of the dead child's listen socket on a loaded host, so
         retry the rebind briefly instead of failing on EADDRINUSE. *)
      let db2 = Db.open_ ~dir () in
      let rec restart tries =
        match Server.start ~maintenance_period_s:0.0 ~db:db2 ~port () with
        | s -> s
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
            Thread.delay 0.05;
            restart (tries - 1)
      in
      let server2 = restart 200 in
      Client.reconnect c;
      Alcotest.(check int) "reconnect flushed the buffer" 0 (Client.pending c);
      let rows = Client.query_all c "usage" Query.all in
      Alcotest.(check int) "each row exactly once" 30 (List.length rows);
      Alcotest.(check bool) "no duplicates, no losses" true
        (List.map (fun r -> Support.int64_of_cell r.(1)) rows
        = List.init 30 Int64.of_int);
      Client.close c;
      Server.stop server2)

(* A client that pipelines requests and disconnects before reading the
   replies must cost the server that connection only: its response
   writes then hit a closed socket, which is an error for the handler,
   never a SIGPIPE that kills the server process. *)
let test_client_gone_mid_pipeline () =
  with_server_process (fun ~dir:_ ~port ~pid:_ ->
      let c = connect_when_up (fun () -> Client.connect ~port ()) in
      Client.close c;
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Protocol.send_request fd (Protocol.Hello Protocol.version);
      for _ = 1 to 4 do
        Protocol.send_request fd Protocol.Ping
      done;
      Unix.close fd;
      Thread.delay 0.3;
      match Client.connect ~port () with
      | c ->
          Client.ping c;
          Client.close c
      | exception Client.Remote_error msg ->
          Alcotest.failf "server died after a client vanished: %s" msg)

(* Fuzz: arbitrary bytes fed to the decoders either parse or raise a
   protocol/corruption error — never crash. *)
let prop_decoders_total =
  QCheck.Test.make ~name:"protocol decoders are total" ~count:2000
    QCheck.(string_gen_of_size Gen.(int_bound 100) Gen.char)
    (fun junk ->
      let ok f =
        match f (Lt_util.Binio.cursor junk) with
        | _ -> true
        | exception (Protocol.Protocol_error _ | Lt_util.Binio.Corrupt _) -> true
        | exception Littletable.Schema.Invalid _ -> true
      in
      ok Protocol.read_request && ok Protocol.read_response
      && ok Protocol.get_span && ok Protocol.get_profile)

(* Raw rows transcoded straight into stored form must equal what the
   boxed path makes of them: [decode_groups], then [Schema.validate_row]
   and the key and value encoders. Schemas mix every column type in a
   random column order, keyed by some of them and [ts]; payloads are
   clean, or carry a cell of the wrong type, a row of the wrong arity,
   a cut or an overwritten byte. A payload is refused whole exactly
   when [decode_groups] refuses it, and an ill-typed row stops the
   rows at the same place with the same message. *)
let gen_cell =
  let open QCheck.Gen in
  let text =
    string_size
      ~gen:(frequency [ (4, char); (1, oneofl [ '\x00'; '\x01'; '\x02' ]) ])
      (int_bound 12)
  in
  function
  | Value.T_int32 -> map (fun i -> Value.Int32 (Int32.of_int i)) int
  | Value.T_int64 -> map (fun i -> Value.Int64 (Int64.of_int i)) int
  | Value.T_timestamp -> map (fun i -> Value.Timestamp (Int64.of_int i)) int
  | Value.T_double ->
      map
        (fun f -> Value.Double f)
        (frequency
           [ (4, float); (1, oneofl [ nan; -0.0; 0.0; infinity; neg_infinity ]) ])
  | Value.T_string -> map (fun s -> Value.String s) text
  | Value.T_blob -> map (fun s -> Value.Blob s) text

type fault =
  | Clean
  | Bad_type of int * int
  | Bad_arity of int * bool
  | Cut of float
  | Poke of float * char

let gen_transcode_case =
  let open QCheck.Gen in
  let ctype =
    oneofl Value.[ T_int32; T_int64; T_double; T_timestamp; T_string; T_blob ]
  in
  list_size (int_bound 2) ctype >>= fun key_types ->
  list_size (int_bound 3) ctype >>= fun val_types ->
  let cols =
    List.mapi (fun i c -> (Printf.sprintf "k%d" i, c, true)) key_types
    @ [ ("ts", Value.T_timestamp, true) ]
    @ List.mapi (fun i c -> (Printf.sprintf "v%d" i, c, false)) val_types
  in
  shuffle_l cols >>= fun cols ->
  let schema =
    Schema.create
      ~columns:
        (List.map
           (fun (name, ctype, _) -> { Schema.name; ctype; default = Value.zero ctype })
           cols)
      ~pkey:(List.mapi (fun i _ -> Printf.sprintf "k%d" i) key_types @ [ "ts" ])
  in
  let row = flatten_l (List.map (fun (_, c, _) -> gen_cell c) cols) in
  list_size (int_bound 12) (map Array.of_list row) >>= fun rows ->
  let nrows = max 1 (List.length rows) and ncols = List.length cols in
  frequency
    [
      (2, return Clean);
      ( 2,
        map2 (fun r c -> Bad_type (r, c)) (int_bound (nrows - 1))
          (int_bound (ncols - 1)) );
      (1, map2 (fun r longer -> Bad_arity (r, longer)) (int_bound (nrows - 1)) bool);
      (1, map (fun f -> Cut f) (float_bound_exclusive 1.0));
      (1, map2 (fun f c -> Poke (f, c)) (float_bound_exclusive 1.0) char);
    ]
  >|= fun fault -> (schema, rows, fault)

let prop_transcode_matches_boxed_path =
  let print (schema, rows, _) =
    Format.asprintf "%a@.%s" Schema.pp schema
      (String.concat "\n"
         (List.map
            (fun r -> String.concat ", " (Array.to_list (Array.map Value.to_string r)))
            rows))
  in
  QCheck.Test.make ~name:"wire transcoding = decode then encode" ~count:1000
    (QCheck.make ~print gen_transcode_case) (fun (schema, rows, fault) ->
      let other = function
        | Value.T_int32 -> Value.String "x"
        | _ -> Value.Int32 7l
      in
      let rows =
        List.mapi
          (fun i r ->
            match fault with
            | Bad_type (ri, c) when ri = i ->
                let r = Array.copy r in
                r.(c) <- other (Value.type_of r.(c));
                r
            | Bad_arity (ri, longer) when ri = i ->
                if longer then Array.append r [| Value.Int64 1L |]
                else Array.sub r 0 (Array.length r - 1)
            | _ -> r)
          rows
      in
      let b = Buffer.create 256 in
      List.iter (Protocol.put_row b) rows;
      let payload =
        (Protocol.raw_of_encoded_groups [ ("t", List.length rows, b) ]).Protocol.buf
      in
      let payload =
        let n = String.length payload in
        match fault with
        | Cut f -> String.sub payload 0 (int_of_float (f *. float n))
        | Poke (f, c) ->
            let by = Bytes.of_string payload in
            Bytes.set by (int_of_float (f *. float n)) c;
            Bytes.to_string by
        | _ -> payload
      in
      (* The section lies inside a larger frame, as [read_request]
         leaves it, so every reader must keep to its window. *)
      let payload =
        { Protocol.buf = "\x14\x01" ^ payload ^ "\x00\x07\xff";
          off = 2; len = String.length payload }
      in
      let refused f =
        match f payload with
        | _ -> false
        | exception (Protocol.Protocol_error _ | Lt_util.Binio.Corrupt _) -> true
      in
      let boxed_refused =
        refused (fun p -> Protocol.groups_of_payload (Protocol.Raw p))
      in
      boxed_refused = refused Protocol.raw_groups
      && (boxed_refused
         ||
         (* Both ends stop at the first row that does not fit, with its
            message, after the same stored rows. *)
         let rec boxed acc = function
           | [] -> (List.rev acc, None)
           | r :: rest -> (
               match Schema.validate_row schema r with
               | () ->
                   let stored =
                     (Key_codec.encode_key schema r, Row_codec.encode_value schema r)
                   in
                   boxed (stored :: acc) rest
               | exception Schema.Invalid msg -> (List.rev acc, Some msg))
         in
         let expect =
           List.concat_map
             (fun (_, rows) -> [ boxed [] rows ])
             (Protocol.groups_of_payload (Protocol.Raw payload))
         in
         let actual =
           List.map
             (fun (_, count, pos) ->
               let next = Protocol.transcode_rows payload ~pos ~count schema in
               let rec go acc =
                 match next () with
                 | Some kv -> go (kv :: acc)
                 | None -> (List.rev acc, None)
                 | exception Schema.Invalid msg -> (List.rev acc, Some msg)
               in
               go [])
             (Protocol.raw_groups payload)
         in
         expect = actual))

(* Random operation records, shard sub-records nested up to the
   decoder's depth bound, and spans carrying them. *)
let gen_record =
  let open QCheck.Gen in
  let count = oneof [ small_nat; map (fun x -> x land max_int) int ] in
  let rec record depth =
    let shards =
      if depth >= Protocol.max_profile_depth then return []
      else
        list_size (int_bound 2)
          (pair (string_size (int_bound 6)) (record (depth + 1)))
    in
    map2
      (fun (plan, scan, stall, total) (counts, shards) ->
        match counts with
        | [ s; r; t; pr; h; m; f; c; bi; bo ] ->
            { Lt_obs.Profile.p_plan_us = plan; p_scan_us = scan;
              p_stall_us = stall; p_total_us = total; p_rows_scanned = s;
              p_rows_returned = r; p_tablets = t; p_tablets_pruned = pr;
              p_cache_hits = h; p_cache_misses = m;
              p_blocks_footer_answered = f; p_columns_decoded = c;
              p_bytes_in = bi; p_bytes_out = bo; p_shards = shards }
        | _ -> assert false)
      (quad ui64 ui64 ui64 ui64)
      (pair (list_repeat 10 count) shards)
  in
  record 0

let gen_span =
  let open QCheck.Gen in
  let ctx =
    map
      (fun (hi, lo, sp, parent) ->
        { Lt_obs.Trace.cx_trace_hi = hi; cx_trace_lo = lo; cx_span = sp;
          cx_parent = parent })
      (quad ui64 ui64 ui64 ui64)
  in
  map
    (fun ((op, table, start), (ctx, prof)) ->
      { Lt_obs.Trace.sp_op = op; sp_table = table; sp_start_us = start;
        sp_ctx = ctx; sp_prof = prof })
    (pair
       (triple
          (oneofl
             Lt_obs.Trace.
               [ Insert; Query; Latest; Flush; Merge; Stall; Request; Route;
                 Backend; Failover ])
          (string_size (int_bound 12))
          ui64)
       (pair (opt ctx) gen_record))

(* [put] then [get] gives the value back and consumes every byte; every
   strict prefix of the encoding is a protocol error. *)
let roundtrips put get v =
  let b = Buffer.create 64 in
  put b v;
  let bytes = Buffer.contents b in
  let cur = Lt_util.Binio.cursor bytes in
  get cur = v
  && Lt_util.Binio.remaining cur = 0
  && List.for_all
       (fun n ->
         match get (Lt_util.Binio.cursor (String.sub bytes 0 n)) with
         | _ -> false
         | exception Protocol.Protocol_error _ -> true)
       (List.init (String.length bytes) Fun.id)

let prop_span_roundtrip =
  QCheck.Test.make ~name:"span encoding roundtrips, truncation rejected"
    ~count:300 (QCheck.make gen_span)
    (roundtrips Protocol.put_span Protocol.get_span)

let prop_profile_roundtrip =
  QCheck.Test.make ~name:"record encoding roundtrips, truncation rejected"
    ~count:300 (QCheck.make gen_record)
    (roundtrips Protocol.put_profile Protocol.get_profile)

(* One level past the bound is refused rather than recursed into. *)
let test_profile_depth_bound () =
  let rec nest d =
    if d = 0 then Lt_obs.Profile.empty
    else { Lt_obs.Profile.empty with p_shards = [ ("s", nest (d - 1)) ] }
  in
  let decode d =
    let b = Buffer.create 64 in
    Protocol.put_profile b (nest d);
    Protocol.get_profile (Lt_util.Binio.cursor (Buffer.contents b))
  in
  Alcotest.(check bool) "depth at the bound decodes" true
    (decode Protocol.max_profile_depth = nest Protocol.max_profile_depth);
  match decode (Protocol.max_profile_depth + 1) with
  | _ -> Alcotest.fail "record nested past the bound accepted"
  | exception Protocol.Protocol_error _ -> ()

(* Regression: a varint overflowing to a negative count must be a
   protocol error, not Invalid_argument from Array.init/List.init. *)
let test_negative_count_rejected () =
  let negative = "\128\128\128\128\128\128\128\128aaaaaa" in
  let request c = ignore (Protocol.read_request c)
  and response c = ignore (Protocol.read_response c) in
  let ok f junk =
    match f (Lt_util.Binio.cursor junk) with
    | () -> true
    | exception (Protocol.Protocol_error _ | Lt_util.Binio.Corrupt _) -> true
    | exception Littletable.Schema.Invalid _ -> true
  in
  List.iter
    (fun (what, read, prefix) ->
      Alcotest.(check bool) what true (ok read (prefix ^ negative)))
    [
      ("negative schema column count", request, "\002a");
      ("negative schema column count (response)", response, "\002a");
      ("negative query key bound count", request, "\006\000\001");
      ("negative latest prefix count", request, "\007\000");
      ("negative delete prefix count", request, "\011\000");
      ("negative table count", response, "\001");
      ("negative span count", response, "\014");
    ]

(* A query limit that decodes negative is refused: it would otherwise
   drop the server's row cap. The client's encoder cannot write one, so
   the frame is spliced by hand. *)
let test_negative_query_limit_rejected () =
  let with_limit bytes =
    let b = Buffer.create 64 in
    Protocol.write_request b
      (Protocol.Query { table = "t"; query = Query.all; profile = false });
    let s = Buffer.contents b in
    let n = String.length s in
    (* [Query.all] ends with limit tag 0, projection tag 0, profile flag. *)
    Lt_util.Binio.cursor (String.sub s 0 (n - 3) ^ bytes ^ String.sub s (n - 2) 2)
  in
  (match Protocol.read_request (with_limit "\001\005") with
  | Protocol.Query { query; _ } ->
      Alcotest.(check (option int)) "limit 5 decodes" (Some 5) query.Query.limit
  | _ -> Alcotest.fail "not a query");
  match Protocol.read_request (with_limit ("\001" ^ String.make 8 '\255' ^ "\127")) with
  | (_ : Protocol.request) -> Alcotest.fail "negative limit decoded"
  | exception Protocol.Protocol_error _ -> ()

let suite =
  [
    ("protocol request roundtrips", `Quick, test_protocol_requests);
    ("protocol response roundtrips", `Quick, test_protocol_responses);
    ("protocol rejects garbage", `Quick, test_protocol_rejects_garbage);
    ("trace ctx framing", `Quick, test_ctx_framing);
    ("server end-to-end", `Quick, test_server_end_to_end);
    ("table names . and .. refused", `Quick, test_create_table_dot_names_refused);
    ("query profile over the wire", `Quick, test_query_profile_over_wire);
    ("trace fetch over the wire", `Quick, test_trace_fetch_over_wire);
    ("sql over the wire", `Quick, test_server_sql_over_wire);
    ("flush_before over the wire", `Quick, test_flush_before_over_wire);
    ("multiple concurrent clients", `Quick, test_multiple_clients);
    ("reconnect after restart", `Quick, test_reconnect_after_server_restart);
    ("mixed-version hello rejected", `Quick, test_mixed_version_hello_rejected);
    ( "stopping one server leaves another server's connections alone",
      `Quick,
      test_stop_leaves_other_server_alone );
    ("single-node placement", `Quick, test_single_node_placement);
    ("buffered insert: flush on size", `Quick, test_buffered_insert_flush_on_size);
    ("buffered insert: flush on interval", `Quick, test_buffered_insert_flush_on_interval);
    ("partial insert reports landed rows", `Quick, test_partial_insert_reports_landed);
    ("invalid row mid-batch reports landed rows", `Quick, test_invalid_row_reports_landed);
    ("buffered flush partial failure", `Quick, test_buffered_flush_partial);
    ( "buffered rows survive SIGKILL + reconnect",
      `Quick,
      test_buffered_rows_survive_sigkill_reconnect );
    ("client gone mid-pipeline leaves the server up", `Quick, test_client_gone_mid_pipeline);
    ("oversized response refused, connection kept", `Quick, test_oversized_response_refused);
    ("negative decode counts rejected", `Quick, test_negative_count_rejected);
    ("negative query limit rejected", `Quick, test_negative_query_limit_rejected);
    Support.qcheck prop_decoders_total;
    Support.qcheck prop_transcode_matches_boxed_path;
    Support.qcheck prop_span_roundtrip;
    Support.qcheck prop_profile_roundtrip;
    ("record nesting bound", `Quick, test_profile_depth_bound);
  ]
