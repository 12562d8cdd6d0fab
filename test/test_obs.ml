(* The observability layer (lib/obs): histogram bucketing and
   percentiles, label identity, the slow-op trace ring, Prometheus
   exposition (golden render), the Stats ratio fixes, and the layer
   end to end — a deterministic-clock slow query landing in [.slow]
   and the /metrics HTTP endpoint. *)

open Littletable
module Clock = Lt_util.Clock
module Metrics = Lt_obs.Metrics
module Trace = Lt_obs.Trace
module Obs = Lt_obs.Obs

let check_int = Support.check_int

let check_bool = Support.check_bool

let check_float msg a b =
  Alcotest.(check (float 1e-9)) msg a b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ---- Histogram bucketing ---------------------------------------------- *)

let test_bucket_boundaries () =
  let r = Metrics.create_registry () in
  let h = Metrics.histogram r ~buckets:[| 0.1; 1.0 |] "h" in
  (* A value exactly on a bound lands in that bucket (le is inclusive). *)
  Metrics.Histogram.observe h 0.1;
  Metrics.Histogram.observe h 0.05;
  Metrics.Histogram.observe h 1.0;
  Metrics.Histogram.observe h 1.0000001;
  Alcotest.(check (array int)) "per-bucket counts" [| 2; 1; 1 |]
    (Metrics.Histogram.bucket_counts h);
  check_int "count" 4 (Metrics.Histogram.count h);
  check_float "max" 1.0000001 (Metrics.Histogram.max_value h);
  (* Default bounds: first and last bucket edges. *)
  let d = Metrics.histogram r "d" in
  Metrics.Histogram.observe_us d 1L;
  Metrics.Histogram.observe d 60.0;
  Metrics.Histogram.observe d 61.0;
  let counts = Metrics.Histogram.bucket_counts d in
  check_int "1us in first bucket" 1 counts.(0);
  check_int "60s in last finite bucket" 1
    counts.(Array.length counts - 2);
  check_int "61s in +Inf" 1 counts.(Array.length counts - 1)

let test_percentiles () =
  let r = Metrics.create_registry () in
  let empty = Metrics.histogram r "empty" in
  check_float "empty p50" 0.0 (Metrics.Histogram.p50 empty);
  check_float "empty p99" 0.0 (Metrics.Histogram.p99 empty);
  (* A single observation reports itself at every quantile (the
     interpolated mid-bucket value is clamped to the observed max). *)
  let one = Metrics.histogram r ~buckets:[| 0.1; 1.0 |] "one" in
  Metrics.Histogram.observe one 0.3;
  check_float "single p50" 0.3 (Metrics.Histogram.p50 one);
  check_float "single p99" 0.3 (Metrics.Histogram.p99 one);
  (* Two-mode distribution on the default bounds: 50 fast, 50 slow. *)
  let h = Metrics.histogram r "h" in
  for _ = 1 to 50 do Metrics.Histogram.observe h 0.001 done;
  for _ = 1 to 50 do Metrics.Histogram.observe h 0.1 done;
  check_float "p50 at the fast mode's bound" 0.001 (Metrics.Histogram.p50 h);
  check_float "p99 interpolates the slow bucket" 0.099
    (Metrics.Histogram.percentile h 0.99);
  check_float "sum" (50.0 *. 0.001 +. 50.0 *. 0.1) (Metrics.Histogram.sum h);
  (* Values beyond the last bound report max_value. *)
  let inf = Metrics.histogram r ~buckets:[| 0.1 |] "inf" in
  Metrics.Histogram.observe inf 7.5;
  check_float "+Inf bucket reports max" 7.5 (Metrics.Histogram.p50 inf)

let test_merge_into () =
  let r = Metrics.create_registry () in
  let a = Metrics.histogram r ~buckets:[| 0.1; 1.0 |] ~labels:[ ("i", "a") ] "m" in
  let b = Metrics.histogram r ~buckets:[| 0.1; 1.0 |] ~labels:[ ("i", "b") ] "m" in
  Metrics.Histogram.observe a 0.05;
  Metrics.Histogram.observe b 0.5;
  Metrics.Histogram.observe b 2.0;
  Metrics.Histogram.merge_into ~into:a b;
  check_int "merged count" 3 (Metrics.Histogram.count a);
  check_float "merged max" 2.0 (Metrics.Histogram.max_value a);
  Alcotest.(check (array int)) "merged buckets" [| 1; 1; 1 |]
    (Metrics.Histogram.bucket_counts a)

(* ---- Families, labels, identity --------------------------------------- *)

let test_label_identity () =
  let r = Metrics.create_registry () in
  (* Label order does not matter: both handles are the same series. *)
  let c1 = Metrics.counter r ~labels:[ ("a", "1"); ("b", "2") ] "c" in
  let c2 = Metrics.counter r ~labels:[ ("b", "2"); ("a", "1") ] "c" in
  Metrics.Counter.inc c1 2;
  Metrics.Counter.inc c2 3;
  check_int "shared series" 5 (Metrics.Counter.value c1);
  (* Distinct label values are distinct series. *)
  let c3 = Metrics.counter r ~labels:[ ("a", "1"); ("b", "9") ] "c" in
  check_int "distinct series" 0 (Metrics.Counter.value c3);
  (* Same name, different kind or buckets: rejected. *)
  (match Metrics.gauge r "c" with
  | (_ : Metrics.Gauge.t) -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  let _h = Metrics.histogram r ~buckets:[| 1.0 |] "h" in
  match Metrics.histogram r ~buckets:[| 2.0 |] "h" with
  | (_ : Metrics.Histogram.t) -> Alcotest.fail "bucket clash accepted"
  | exception Invalid_argument _ -> ()

let test_disabled_registry () =
  let r = Metrics.create_registry ~enabled:false () in
  let c = Metrics.counter r "c" in
  let h = Metrics.histogram r "h" in
  Metrics.Counter.inc c 5;
  Metrics.Histogram.observe h 1.0;
  check_int "disabled counter" 0 (Metrics.Counter.value c);
  check_int "disabled histogram" 0 (Metrics.Histogram.count h);
  Metrics.set_enabled r true;
  Metrics.Counter.inc c 5;
  check_int "re-enabled counter" 5 (Metrics.Counter.value c);
  check_bool "noop obs reads no clock" true (Obs.now_us Obs.noop = 0L)

(* ---- Prometheus exposition -------------------------------------------- *)

let test_golden_render () =
  let r = Metrics.create_registry () in
  let c = Metrics.counter r ~help:"Total things." ~labels:[ ("table", "usage") ] "lt_test_total" in
  Metrics.Counter.inc c 3;
  let g = Metrics.gauge r ~help:"A gauge." "lt_test_gauge" in
  Metrics.Gauge.set g 2.5;
  let h = Metrics.histogram r ~help:"Latencies." ~buckets:[| 0.1; 1.0 |] "lt_test_seconds" in
  Metrics.Histogram.observe h 0.05;
  Metrics.Histogram.observe h 0.5;
  Metrics.Histogram.observe h 5.0;
  Metrics.register_collector r (fun () ->
      [ { Metrics.s_name = "lt_coll_total"; s_help = "From a collector.";
          s_kind = `Counter; s_labels = [ ("q", "a\"b\\c\nd") ]; s_value = 7.0 } ]);
  let expected =
    "# HELP lt_test_gauge A gauge.\n\
     # TYPE lt_test_gauge gauge\n\
     lt_test_gauge 2.5\n\
     # HELP lt_test_seconds Latencies.\n\
     # TYPE lt_test_seconds histogram\n\
     lt_test_seconds_bucket{le=\"0.1\"} 1\n\
     lt_test_seconds_bucket{le=\"1\"} 2\n\
     lt_test_seconds_bucket{le=\"+Inf\"} 3\n\
     lt_test_seconds_sum 5.55\n\
     lt_test_seconds_count 3\n\
     # HELP lt_test_total Total things.\n\
     # TYPE lt_test_total counter\n\
     lt_test_total{table=\"usage\"} 3\n\
     # HELP lt_coll_total From a collector.\n\
     # TYPE lt_coll_total counter\n\
     lt_coll_total{q=\"a\\\"b\\\\c\\nd\"} 7\n"
  in
  Support.check_string "golden exposition" expected (Metrics.render r)

(* ---- Trace ring -------------------------------------------------------- *)

let span ~op ~dur_us i =
  {
    Trace.sp_op = op;
    sp_table = "t";
    sp_start_us = Int64.of_int i;
    sp_ctx = None;
    sp_prof =
      { Lt_obs.Profile.empty with
        p_total_us = dur_us; p_rows_scanned = i; p_tablets = 1 };
  }

let scanned sp = sp.Trace.sp_prof.Lt_obs.Profile.p_rows_scanned

let test_ring_wraparound () =
  let t = Trace.create ~capacity:4 ~slow_us:700L () in
  for i = 0 to 9 do
    Trace.record t (span ~op:Trace.Query ~dur_us:(Int64.of_int (i * 100)) i)
  done;
  check_int "total recorded" 10 (Trace.recorded t);
  let recent = Trace.recent t in
  check_int "capacity bounds retention" 4 (List.length recent);
  Alcotest.(check (list int)) "newest first" [ 9; 8; 7; 6 ]
    (List.map scanned recent);
  Alcotest.(check (list int)) "slow filters by threshold" [ 9; 8; 7 ]
    (List.rev_map scanned
       (Trace.find ~slow_only:true t));
  check_bool "slow threshold fixed at create" true (Trace.slow_us t = 700L)

(* ---- Trace contexts ---------------------------------------------------- *)

let test_trace_ctx_ids () =
  (* Seeded ids are deterministic (replay) and never zero. *)
  Trace.seed_ids 42L;
  let a = Trace.new_root ~clock:Clock.system in
  Trace.seed_ids 42L;
  let b = Trace.new_root ~clock:Clock.system in
  check_bool "seeded roots repeat" true (a = b);
  check_bool "trace hi nonzero" true (a.Trace.cx_trace_hi <> 0L);
  check_bool "span nonzero" true (a.Trace.cx_span <> 0L);
  check_int "root has no parent" 0 (Int64.to_int a.Trace.cx_parent);
  let c = Trace.child_of a in
  check_bool "child keeps trace id" true
    (Trace.same_trace ~hi:a.Trace.cx_trace_hi ~lo:a.Trace.cx_trace_lo c);
  check_bool "child parented on span" true
    (c.Trace.cx_parent = a.Trace.cx_span);
  check_bool "child gets fresh span" true (c.Trace.cx_span <> a.Trace.cx_span);
  (* Hex id roundtrip, both full and short forms. *)
  let hex = Trace.trace_id_hex a in
  check_int "hex width" 32 (String.length hex);
  (match Trace.parse_trace_id hex with
  | Some (hi, lo) ->
      check_bool "parse roundtrip" true
        (hi = a.Trace.cx_trace_hi && lo = a.Trace.cx_trace_lo)
  | None -> Alcotest.fail "full hex id must parse");
  (match Trace.parse_trace_id "deadbeef" with
  | Some (hi, lo) ->
      check_bool "short id fills low word" true (hi = 0L && lo = 0xdeadbeefL)
  | None -> Alcotest.fail "short hex id must parse");
  check_bool "malformed id rejected" true (Trace.parse_trace_id "xyz" = None);
  check_bool "empty id rejected" true (Trace.parse_trace_id "" = None)

let test_ambient_ctx () =
  Trace.seed_ids 7L;
  check_bool "no ambient by default" true (Trace.current () = None);
  let root = Trace.new_root ~clock:Clock.system in
  let seen =
    Trace.with_ctx (Some root) (fun () ->
        let inner = Trace.current () in
        (* Nested scopes replace and restore. *)
        let child = Trace.child_of root in
        Trace.with_ctx (Some child) (fun () ->
            check_bool "nested scope wins" true (Trace.current () = Some child));
        check_bool "outer scope restored" true (Trace.current () = Some root);
        inner)
  in
  check_bool "ambient visible in scope" true (seen = Some root);
  check_bool "ambient cleared after scope" true (Trace.current () = None);
  (* [with_ctx None] is transparent. *)
  Trace.with_ctx None (fun () ->
      check_bool "none installs nothing" true (Trace.current () = None))

let test_trace_filters () =
  Trace.seed_ids 9L;
  let t = Trace.create ~capacity:16 ~slow_us:0L () in
  let ra = Trace.new_root ~clock:Clock.system in
  let rb = Trace.new_root ~clock:Clock.system in
  let mk ~tbl ~ctx i =
    { (span ~op:Trace.Query ~dur_us:10L i) with
      Trace.sp_table = tbl;
      sp_ctx = ctx }
  in
  Trace.record t (mk ~tbl:"usage" ~ctx:(Some ra) 0);
  Trace.record t (mk ~tbl:"events" ~ctx:(Some (Trace.child_of ra)) 1);
  Trace.record t (mk ~tbl:"usage" ~ctx:(Some rb) 2);
  Trace.record t (mk ~tbl:"usage" ~ctx:None 3);
  check_int "table filter (recent)" 3
    (List.length (Trace.recent ~table:"usage" t));
  let trace_a = (ra.Trace.cx_trace_hi, ra.Trace.cx_trace_lo) in
  check_int "trace and slow filters compose" 2
    (List.length (Trace.find ~trace:trace_a ~slow_only:true t));
  let found = Trace.find ~trace:trace_a t in
  check_int "trace filter matches both spans" 2 (List.length found);
  Alcotest.(check (list int)) "trace filter is oldest first" [ 0; 1 ]
    (List.map scanned found);
  check_int "other trace isolated" 1
    (List.length
       (Trace.find ~trace:(rb.Trace.cx_trace_hi, rb.Trace.cx_trace_lo) t))

(* record_op with no explicit ctx attaches a child of the ambient one. *)
let test_record_op_ambient () =
  Trace.seed_ids 11L;
  let clock = Clock.manual ~start:0L () in
  let obs = Obs.create ~clock () in
  let root = Trace.new_root ~clock in
  let h = Metrics.histogram (Obs.registry obs) "lt_test_seconds" in
  Trace.with_ctx (Some root) (fun () ->
      Obs.record_op obs ~hist:h ~op:Trace.Query ~table:"t" ~t0:0L
        Lt_obs.Profile.empty);
  match Trace.recent (Obs.trace obs) with
  | [ sp ] -> (
      match sp.Trace.sp_ctx with
      | Some c ->
          check_bool "span joins ambient trace" true
            (Trace.same_trace ~hi:root.Trace.cx_trace_hi
               ~lo:root.Trace.cx_trace_lo c);
          check_bool "span is a child of ambient" true
            (c.Trace.cx_parent = root.Trace.cx_span)
      | None -> Alcotest.fail "span must carry a ctx")
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* ---- Profiles ---------------------------------------------------------- *)

let test_profile_aggregate () =
  let module Profile = Lt_obs.Profile in
  let p1 =
    { Profile.empty with
      Profile.p_plan_us = 10L;
      p_scan_us = 100L;
      p_total_us = 120L;
      p_rows_scanned = 5;
      p_rows_returned = 2;
      p_cache_hits = 3;
      p_shards = [ ("shard0", { Profile.empty with Profile.p_scan_us = 100L }) ]
    }
  in
  let p2 =
    { Profile.empty with
      Profile.p_plan_us = 5L;
      p_scan_us = 50L;
      p_total_us = 60L;
      p_rows_scanned = 7;
      p_rows_returned = 1;
      p_cache_misses = 4;
      p_shards =
        [ ("shard0", { Profile.empty with Profile.p_scan_us = 50L });
          ("shard1", { Profile.empty with Profile.p_rows_scanned = 7 }) ]
    }
  in
  let a = Profile.aggregate [ p1; p2 ] in
  check_bool "plan sums" true (a.Profile.p_plan_us = 15L);
  check_bool "scan sums" true (a.Profile.p_scan_us = 150L);
  check_int "rows scanned sums" 12 a.Profile.p_rows_scanned;
  check_int "rows returned sums" 3 a.Profile.p_rows_returned;
  check_int "cache hits sum" 3 a.Profile.p_cache_hits;
  check_int "cache misses sum" 4 a.Profile.p_cache_misses;
  check_int "shards merged by label" 2 (List.length a.Profile.p_shards);
  (match List.assoc_opt "shard0" a.Profile.p_shards with
  | Some s -> check_bool "shard sub-profiles sum" true (s.Profile.p_scan_us = 150L)
  | None -> Alcotest.fail "shard0 must survive the merge");
  check_bool "aggregate of nothing is empty" true
    (Profile.aggregate [] = Profile.empty);
  (* The renderer mentions the shard breakdown. *)
  check_bool "pp shows shards" true
    (contains (Profile.to_string a) "shard1")

(* ---- Snapshots and federation ------------------------------------------ *)

let test_snapshot_federation () =
  let mk_source label n =
    let r = Metrics.create_registry () in
    let c = Metrics.counter r ~labels:[ ("table", "usage") ] "lt_rows_total" in
    Metrics.Counter.inc c n;
    let h = Metrics.histogram r ~buckets:[| 0.1; 1.0 |] "lt_q_seconds" in
    Metrics.Histogram.observe h 0.05;
    Metrics.Histogram.observe h (0.2 *. float_of_int n);
    (label, Metrics.snapshot r)
  in
  let sources = [ mk_source "0" 10; mk_source "1" 20 ] in
  let text = Metrics.render_snapshot (Metrics.federate sources) in
  (* Aggregate first: counters sum across sources... *)
  check_bool "counter aggregate" true
    (contains text "lt_rows_total{table=\"usage\"} 30");
  (* ...then the per-shard breakdown, labeled. *)
  check_bool "shard 0 breakdown" true
    (contains text "lt_rows_total{table=\"usage\",shard=\"0\"} 10");
  check_bool "shard 1 breakdown" true
    (contains text "lt_rows_total{table=\"usage\",shard=\"1\"} 20");
  (* Histogram merge: the aggregate _count equals the sum of the
     per-shard _counts, bucket by bucket. *)
  check_bool "histogram aggregate count" true
    (contains text "lt_q_seconds_count 4");
  check_bool "histogram aggregate buckets" true
    (contains text "lt_q_seconds_bucket{le=\"0.1\"} 2");
  check_bool "histogram shard count" true
    (contains text "lt_q_seconds_count{shard=\"1\"} 2")

(* ---- Stats ratios ------------------------------------------------------ *)

let test_stats_ratios () =
  let s = Stats.create () in
  let query ~scanned ~returned =
    Stats.note s
      (Stats.of_op Trace.Query
         { Lt_obs.Profile.empty with
           p_rows_scanned = scanned; p_rows_returned = returned })
  in
  check_float "no queries" 0.0 (Stats.scan_ratio (Stats.read s));
  (* A pure-waste scan must not hide behind returned=0. *)
  query ~scanned:40 ~returned:0;
  check_float "pure waste" 40.0 (Stats.scan_ratio (Stats.read s));
  query ~scanned:60 ~returned:50;
  check_float "mixed" 2.0 (Stats.scan_ratio (Stats.read s));
  check_float "cold cache" 0.0 (Stats.cache_hit_ratio (Stats.read s));
  let cache =
    { Stats.no_cache with Stats.cache_hits = 3; cache_misses = 1 }
  in
  check_float "hit ratio" 0.75 (Stats.cache_hit_ratio (Stats.read ~cache s))

(* ---- End to end: a deterministically slow query ------------------------ *)

let test_slow_query_e2e () =
  let clock = Clock.manual ~start:Support.ts0 () in
  (* Every tablet-file pread stalls the manual clock by 60 ms — a
     disk that bad makes any uncached query slow, deterministically. *)
  let vfs =
    Lt_vfs.Vfs.faulty
      ~should_fail:(fun ~op ~path:_ ->
        if op = "pread" then Clock.advance clock (Clock.msec 60);
        false)
      (Lt_vfs.Vfs.memory ())
  in
  let config = Config.make ~cache_bytes:0 ~slow_op_micros:(Clock.msec 50) () in
  let db = Db.open_ ~config ~clock ~vfs ~dir:"obsroot" () in
  let table = Db.create_table db "usage" (Support.usage_schema ()) ~ttl:None in
  Table.insert table
    [ Support.usage_row ~network:1L ~device:1L ~ts:Support.ts0 ~bytes:1L ~rate:0.0 ];
  Table.flush_all table;
  let result = Table.query table Query.all in
  check_int "row survived" 1 (List.length result.Table.rows);
  let obs = Db.obs db in
  let slow = Trace.find ~slow_only:true (Obs.trace obs) in
  let is_slow_query sp =
    sp.Trace.sp_op = Trace.Query
    && sp.Trace.sp_table = "usage"
    && Trace.duration_us sp >= Clock.msec 50
  in
  check_bool "slow query traced" true (List.exists is_slow_query slow);
  let text = Obs.render obs in
  check_bool "query histogram exposed" true
    (contains text "lt_query_duration_seconds_bucket");
  check_bool "insert histogram exposed" true
    (contains text "lt_insert_duration_seconds_bucket");
  check_bool "stats collector exposed" true
    (contains text "lt_rows_inserted_total{table=\"usage\"} 1");
  Db.close db

(* A disabled registry still renders collector-backed Stats series. *)
let test_disabled_db_renders_stats () =
  let clock = Clock.manual ~start:Support.ts0 () in
  let config = Config.make ~obs_enabled:false () in
  let db =
    Db.open_ ~config ~clock ~vfs:(Lt_vfs.Vfs.memory ()) ~dir:"obsroot" ()
  in
  let table = Db.create_table db "usage" (Support.usage_schema ()) ~ttl:None in
  Table.insert table
    [ Support.usage_row ~network:1L ~device:1L ~ts:Support.ts0 ~bytes:1L ~rate:0.0 ];
  let text = Obs.render (Db.obs db) in
  check_bool "collector runs when disabled" true
    (contains text "lt_rows_inserted_total{table=\"usage\"} 1");
  check_int "no spans when disabled" 0 (Trace.recorded (Obs.trace (Db.obs db)));
  Db.close db

(* ---- /metrics over HTTP ------------------------------------------------ *)

let http_get ~port ~path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 4096 in
      let rec loop () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            loop ()
      in
      loop ();
      Buffer.contents buf)

let test_metrics_endpoint () =
  let dir = Filename.temp_file "lt_obs_test" "" in
  Sys.remove dir;
  let db = Db.open_ ~dir () in
  let server =
    Lt_net.Server.start ~maintenance_period_s:0.0 ~metrics_port:0 ~db ~port:0 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Lt_net.Server.stop server;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let mport =
        match Lt_net.Server.metrics_port server with
        | Some p -> p
        | None -> Alcotest.fail "metrics listener not bound"
      in
      let c = Lt_net.Client.connect ~port:(Lt_net.Server.port server) () in
      let schema = Support.usage_schema () in
      Lt_net.Client.create_table c "usage" schema ~ttl:None;
      Lt_net.Client.insert c "usage"
        [ Support.usage_row ~network:1L ~device:1L ~ts:1L ~bytes:9L ~rate:0.0 ];
      let rows = Lt_net.Client.query_all c "usage" Query.all in
      check_int "roundtrip rows" 1 (List.length rows);
      (* The HTTP endpoint serves the exposition... *)
      let body = http_get ~port:mport ~path:"/metrics" in
      check_bool "200" true (contains body "200 OK");
      check_bool "content type" true
        (contains body "text/plain; version=0.0.4");
      check_bool "insert histogram over http" true
        (contains body "lt_insert_duration_seconds_bucket");
      check_bool "query histogram over http" true
        (contains body "lt_query_duration_seconds_bucket");
      check_bool "request histogram over http" true
        (contains body "lt_request_duration_seconds_bucket");
      check_bool "404 elsewhere" true
        (contains (http_get ~port:mport ~path:"/nope") "404");
      (* ...and the wire protocol serves the same document. *)
      let text = Lt_net.Client.metrics c in
      check_bool "wire exposition" true
        (contains text "lt_rows_inserted_total{table=\"usage\"} 1");
      let (_ : Trace.span list) = Lt_net.Client.slow_ops c in
      Lt_net.Client.close c)

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "histogram percentiles" `Quick test_percentiles;
    Alcotest.test_case "histogram merge" `Quick test_merge_into;
    Alcotest.test_case "label identity" `Quick test_label_identity;
    Alcotest.test_case "disabled registry" `Quick test_disabled_registry;
    Alcotest.test_case "golden prometheus render" `Quick test_golden_render;
    Alcotest.test_case "trace ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "trace context ids" `Quick test_trace_ctx_ids;
    Alcotest.test_case "ambient trace context" `Quick test_ambient_ctx;
    Alcotest.test_case "trace ring filters" `Quick test_trace_filters;
    Alcotest.test_case "record_op joins ambient trace" `Quick
      test_record_op_ambient;
    Alcotest.test_case "profile aggregation" `Quick test_profile_aggregate;
    Alcotest.test_case "snapshot federation" `Quick test_snapshot_federation;
    Alcotest.test_case "stats ratios" `Quick test_stats_ratios;
    Alcotest.test_case "slow query traced end to end" `Quick test_slow_query_e2e;
    Alcotest.test_case "disabled obs still renders stats" `Quick
      test_disabled_db_renders_stats;
    Alcotest.test_case "metrics http endpoint" `Quick test_metrics_endpoint;
  ]
