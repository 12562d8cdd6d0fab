open Littletable
open Lt_util

let schema () = Support.usage_schema ()

(* A small config that flushes/merges eagerly at test scale. *)
let small_config =
  Config.make ~block_size:1024 ~flush_size:(8 * 1024) ~max_tablet_size:(64 * 1024)
    ~merge_delay:0L ~rollover_spread:0.0 ~server_row_limit:10_000 ()

let fresh ?(config = small_config) ?ttl () =
  let db, clock, vfs = Support.fresh_db ~config () in
  let t = Db.create_table db "usage" (schema ()) ~ttl in
  (db, clock, vfs, t)

let row ?(bytes = 0L) ?(rate = 0.0) net dev ts =
  Support.usage_row ~network:net ~device:dev ~ts ~bytes ~rate

let all_rows t = (Table.query t Query.all).Table.rows

let test_insert_query_memtable_only () =
  let _, _, _, t = fresh () in
  Table.insert t [ row 1L 1L 10L; row 1L 2L 20L; row 2L 1L 30L ];
  let rows = all_rows t in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  Alcotest.(check bool) "sorted by key" true
    (Support.usage_tuples rows
    = [ (1L, 1L, 10L, 0L); (1L, 2L, 20L, 0L); (2L, 1L, 30L, 0L) ]);
  Alcotest.(check int) "no disk tablets yet" 0 (Table.tablet_count t)

let test_flush_and_query () =
  let _, _, _, t = fresh () in
  Table.insert t (List.init 100 (fun i -> row 1L (Int64.of_int i) (Int64.of_int i)));
  Table.flush_all t;
  Alcotest.(check int) "memtables flushed" 0 (Table.memtable_count t);
  Alcotest.(check bool) "tablets on disk" true (Table.tablet_count t >= 1);
  Alcotest.(check int) "all rows" 100 (List.length (all_rows t))

let test_query_bounds () =
  let _, _, _, t = fresh () in
  List.iter
    (fun (net, dev, ts) -> Table.insert_row t (row net dev ts))
    [ (1L, 1L, 10L); (1L, 1L, 20L); (1L, 2L, 15L); (2L, 1L, 5L); (2L, 2L, 25L) ];
  Table.flush_all t;
  (* Key prefix: network 1. *)
  let r = Table.query t (Query.prefix [ Value.Int64 1L ]) in
  Alcotest.(check int) "network 1" 3 (List.length r.Table.rows);
  (* Key prefix + ts range. *)
  let r =
    Table.query t (Query.between ~ts_min:12L ~ts_max:20L (Query.prefix [ Value.Int64 1L ]))
  in
  Alcotest.(check bool) "bounding box" true
    (Support.usage_tuples r.Table.rows = [ (1L, 1L, 20L, 0L); (1L, 2L, 15L, 0L) ]);
  (* Exclusive key bound. *)
  let q =
    { Query.all with Query.key_low = Query.Excl [ Value.Int64 1L ] }
  in
  Alcotest.(check int) "after network 1" 2 (List.length (Table.query t q).Table.rows);
  (* Descending with limit. *)
  let r =
    Table.query t (Query.with_limit 2 (Query.with_direction Query.Desc Query.all))
  in
  Alcotest.(check bool) "desc limit" true
    (Support.usage_tuples r.Table.rows = [ (2L, 2L, 25L, 0L); (2L, 1L, 5L, 0L) ]);
  (* Full-key point query. *)
  let q = Query.prefix [ Value.Int64 1L; Value.Int64 1L; Value.Timestamp 20L ] in
  Alcotest.(check int) "point" 1 (List.length (Table.query t q).Table.rows)

let test_query_merges_memtable_and_disk () =
  let _, _, _, t = fresh () in
  Table.insert t [ row 1L 1L 10L; row 1L 3L 30L ];
  Table.flush_all t;
  Table.insert t [ row 1L 2L 20L ];
  let rows = Support.usage_tuples (all_rows t) in
  Alcotest.(check bool) "interleaved" true
    (rows = [ (1L, 1L, 10L, 0L); (1L, 2L, 20L, 0L); (1L, 3L, 30L, 0L) ])

let test_duplicate_key_rejected () =
  let _, _, _, t = fresh () in
  Table.insert_row t (row 1L 1L 10L);
  (* Duplicate against the memtable. *)
  (match Table.insert_row t (row ~bytes:9L 1L 1L 10L) with
  | () -> Alcotest.fail "memtable duplicate accepted"
  | exception Table.Duplicate_key _ -> ());
  Table.flush_all t;
  (* Duplicate against the on-disk tablet. *)
  (match Table.insert_row t (row ~bytes:9L 1L 1L 10L) with
  | () -> Alcotest.fail "disk duplicate accepted"
  | exception Table.Duplicate_key _ -> ());
  (* Distinct ts is fine. *)
  Table.insert_row t (row 1L 1L 11L);
  Alcotest.(check int) "still 2 rows" 2 (List.length (all_rows t))

let test_unique_fast_path_newer_ts () =
  (* Rows with strictly increasing ts never hit the slow path; verify via
     behaviour: inserts succeed and data is intact. *)
  let _, _, _, t = fresh () in
  for i = 1 to 200 do
    Table.insert_row t (row 1L 1L (Int64.of_int i))
  done;
  Alcotest.(check int) "200 rows" 200 (List.length (all_rows t));
  Alcotest.(check bool) "max_ts" true (Table.max_ts t = Some 200L)

let test_unique_disabled () =
  let config = Config.make ~enforce_unique:false ~server_row_limit:10_000 () in
  let _, _, _, t = fresh ~config () in
  Table.insert_row t (row ~bytes:1L 1L 1L 10L);
  Table.flush_all t;
  Table.insert_row t (row ~bytes:2L 1L 1L 10L);
  (* The newer (memtable) row shadows the older at query time. *)
  match Support.usage_tuples (all_rows t) with
  | [ (1L, 1L, 10L, b) ] -> Alcotest.(check int64) "newest wins" 2L b
  | other -> Alcotest.failf "unexpected rows (%d)" (List.length other)

let test_more_available () =
  let config = Config.make ~server_row_limit:10 ~flush_size:(1 lsl 20) () in
  let _, _, _, t = fresh ~config () in
  Table.insert t (List.init 25 (fun i -> row 1L (Int64.of_int i) 1L));
  let r = Table.query t Query.all in
  Alcotest.(check int) "capped" 10 (List.length r.Table.rows);
  Alcotest.(check bool) "more available" true r.Table.more_available;
  (* Resubmit from the last key, exclusive — the SQLite adaptor's loop. *)
  let resume last =
    {
      Query.all with
      Query.key_low =
        Query.Excl [ Value.Int64 1L; Value.Int64 last; Value.Timestamp 1L ];
    }
  in
  let r2 = Table.query t (resume 9L) in
  Alcotest.(check int) "next page" 10 (List.length r2.Table.rows);
  let r3 = Table.query t (resume 19L) in
  Alcotest.(check int) "final page" 5 (List.length r3.Table.rows);
  Alcotest.(check bool) "exhausted" false r3.Table.more_available;
  (* A client limit below the cap does not set the flag. *)
  let r4 = Table.query t (Query.with_limit 3 Query.all) in
  Alcotest.(check int) "client limit" 3 (List.length r4.Table.rows);
  Alcotest.(check bool) "flag off" false r4.Table.more_available

let test_query_iter_streams () =
  let _, _, _, t = fresh () in
  Table.insert t (List.init 50 (fun i -> row 1L (Int64.of_int i) 1L));
  Table.flush_all t;
  let src = Table.query_iter t Query.all in
  let n = ref 0 in
  let rec go () = match src () with Some _ -> incr n; go () | None -> () in
  go ();
  Alcotest.(check int) "streamed all" 50 !n;
  Alcotest.(check bool) "stays exhausted" true (src () = None)

let test_ttl_filtering_and_expiry () =
  let ttl = Clock.week in
  let db, clock, _, t = fresh ~ttl () in
  ignore db;
  let t0 = Clock.now clock in
  Table.insert t [ row 1L 1L t0; row 1L 2L (Int64.add t0 1L) ];
  Table.flush_all t;
  (* Two weeks later, insert fresh rows. *)
  Clock.advance clock (Int64.mul 2L Clock.week);
  let t1 = Clock.now clock in
  Table.insert t [ row 1L 3L t1 ];
  Table.flush_all t;
  (* Old rows are filtered from queries even before reclamation. *)
  let rows = Support.usage_tuples (all_rows t) in
  Alcotest.(check bool) "only fresh rows" true (rows = [ (1L, 3L, t1, 0L) ]);
  (* And the expired tablet is physically reclaimed. *)
  let reclaimed = Table.expire t in
  Alcotest.(check int) "one tablet reclaimed" 1 reclaimed;
  Alcotest.(check int) "one tablet left" 1 (Table.tablet_count t);
  Alcotest.(check int) "stats" 1 (Table.stats t).Stats.tablets_expired

let test_ttl_partial_tablet () =
  (* A tablet straddling the cutoff: expired rows are filtered but the
     tablet is not reclaimed. Both rows sit in the same old week, so they
     share one tablet; the TTL cutoff then lands between them. *)
  let ttl = Int64.mul 3L Clock.week in
  let _, clock, _, t = fresh ~ttl () in
  let t0 = Clock.now clock in
  let w0 =
    Int64.sub (Period.align t0 ~unit_len:Clock.week) (Int64.mul 2L Clock.week)
  in
  Table.insert t
    [ row 1L 1L (Int64.add w0 Clock.day);
      row 1L 2L (Int64.add w0 (Int64.mul 5L Clock.day)) ];
  Table.flush_all t;
  Alcotest.(check int) "one tablet" 1 (Table.tablet_count t);
  (* Advance so the cutoff (now - 3 weeks) is w0 + 2 days. *)
  Clock.set clock (Int64.add w0 (Int64.mul 23L Clock.day));
  Alcotest.(check int) "nothing reclaimed" 0 (Table.expire t);
  Alcotest.(check int) "tablet kept" 1 (Table.tablet_count t);
  let rows = Support.usage_tuples (all_rows t) in
  Alcotest.(check int) "old row filtered" 1 (List.length rows)

let test_merge_reduces_tablets () =
  let _, clock, _, t = fresh () in
  (* Many small flushes within one (old) week period. *)
  let base = Int64.sub (Clock.now clock) (Int64.mul 3L Clock.week) in
  for batch = 0 to 9 do
    Table.insert t
      (List.init 20 (fun i ->
           row 1L (Int64.of_int ((batch * 20) + i)) (Int64.add base (Int64.of_int ((batch * 20) + i)))));
    Table.flush_all t
  done;
  Alcotest.(check int) "ten tablets" 10 (Table.tablet_count t);
  let merged = ref 0 in
  while Table.merge_step t do incr merged done;
  Alcotest.(check bool) "merges happened" true (!merged > 0);
  Alcotest.(check bool) "tablet count shrank" true (Table.tablet_count t < 10);
  Alcotest.(check int) "no rows lost" 200 (List.length (all_rows t));
  let s = Table.stats t in
  Alcotest.(check bool) "merge stats" true (s.Stats.merges = !merged)

let test_merge_respects_periods () =
  let _, clock, _, t = fresh () in
  let now = Clock.now clock in
  (* One tablet three weeks ago, one two weeks ago. *)
  Table.insert_row t (row 1L 1L (Int64.sub now (Int64.mul 3L Clock.week)));
  Table.flush_all t;
  Table.insert_row t (row 1L 2L (Int64.sub now (Int64.mul 2L Clock.week)));
  Table.flush_all t;
  Alcotest.(check bool) "different weeks never merge" false (Table.merge_step t)

let test_merge_drops_expired_rows () =
  let ttl = Clock.week in
  let _, clock, _, t = fresh ~ttl () in
  let now = Clock.now clock in
  let old = Int64.sub now (Int64.mul 3L Clock.week) in
  (* Two tablets in the same old week; all rows already past TTL. *)
  Table.insert_row t (row 1L 1L old);
  Table.flush_all t;
  Table.insert_row t (row 1L 2L (Int64.add old 1L));
  Table.flush_all t;
  Alcotest.(check int) "two tablets" 2 (Table.tablet_count t);
  Alcotest.(check bool) "merge runs" true (Table.merge_step t);
  (* Everything expired: merged away to nothing. *)
  Alcotest.(check int) "no tablets remain" 0 (Table.tablet_count t)

let test_latest_full_prefix () =
  let _, _, _, t = fresh () in
  Table.insert t [ row ~bytes:1L 1L 1L 10L; row ~bytes:2L 1L 1L 20L; row ~bytes:3L 1L 2L 30L ];
  Table.flush_all t;
  Table.insert t [ row ~bytes:4L 1L 1L 15L ];
  (* Latest for (network=1, device=1) — all key columns but ts. *)
  (match Table.latest t [ Value.Int64 1L; Value.Int64 1L ] with
  | Some r -> Alcotest.(check int64) "ts 20 wins" 20L (Support.ts_of_cell r.(2))
  | None -> Alcotest.fail "no row");
  (* Shorter prefix: latest across the whole network. *)
  (match Table.latest t [ Value.Int64 1L ] with
  | Some r -> Alcotest.(check int64) "ts 30 wins" 30L (Support.ts_of_cell r.(2))
  | None -> Alcotest.fail "no row");
  (* Missing prefix. *)
  Alcotest.(check bool) "absent network" true
    (Table.latest t [ Value.Int64 99L ] = None)

let test_latest_respects_ttl () =
  let ttl = Clock.week in
  let _, clock, _, t = fresh ~ttl () in
  let now = Clock.now clock in
  Table.insert_row t (row 1L 1L (Int64.sub now (Int64.mul 2L Clock.week)));
  Table.flush_all t;
  Alcotest.(check bool) "expired row invisible" true
    (Table.latest t [ Value.Int64 1L; Value.Int64 1L ] = None)

let test_latest_searches_far_past () =
  let _, clock, _, t = fresh () in
  let now = Clock.now clock in
  (* Device 1's only row is months old; newer tablets hold other devices. *)
  Table.insert_row t (row ~bytes:7L 1L 1L (Int64.sub now (Int64.mul 10L Clock.week)));
  Table.flush_all t;
  Table.insert_row t (row 1L 2L (Int64.sub now Clock.day));
  Table.flush_all t;
  Table.insert_row t (row 1L 3L now);
  match Table.latest t [ Value.Int64 1L; Value.Int64 1L ] with
  | Some r -> Alcotest.(check int64) "found in old group" 7L (Support.int64_of_cell r.(3))
  | None -> Alcotest.fail "missed old row"

let test_schema_evolution_live () =
  let _, _, _, t = fresh () in
  Table.insert_row t (row ~bytes:5L 1L 1L 10L);
  Table.flush_all t;
  Table.insert_row t (row ~bytes:6L 1L 2L 20L);
  (* Add a column while data exists both on disk and in memory. *)
  Table.add_column t
    { Schema.name = "errs"; ctype = Value.T_int32; default = Value.Int32 (-1l) };
  let rows = all_rows t in
  Alcotest.(check int) "both rows" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check int) "arity" 6 (Array.length r);
      Alcotest.(check bool) "default" true (r.(5) = Value.Int32 (-1l)))
    rows;
  (* Insert with the new schema, then widen. *)
  Table.insert_row t
    (Array.append (row ~bytes:7L 1L 3L 30L) [| Value.Int32 3l |]);
  Table.widen_column t "errs";
  let rows = all_rows t in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  let last = List.nth rows 2 in
  Alcotest.(check bool) "widened cell" true (last.(5) = Value.Int64 3L);
  (* Reopen-safe: descriptor carries the evolved schema. *)
  Alcotest.(check int) "version" 2 (Schema.version (Table.schema t))

let test_reopen_from_descriptor () =
  let db, clock, vfs, t = fresh () in
  ignore db;
  Table.insert t (List.init 10 (fun i -> row 1L (Int64.of_int i) (Int64.of_int i)));
  Table.flush_all t;
  Table.insert_row t (row 9L 9L 999L);
  (* Not flushed: lost on reopen. *)
  Table.close t;
  let t2 =
    Table.open_ vfs ~clock ~config:small_config ~dir:"dbroot/usage" ~name:"usage"
  in
  Alcotest.(check int) "flushed rows survive" 10 (List.length (all_rows t2));
  (* max_ts restored from tablet metadata. *)
  Alcotest.(check bool) "max_ts" true (Table.max_ts t2 = Some 9L);
  (* Inserts continue without id collisions. *)
  Table.insert_row t2 (row 10L 10L 100L);
  Table.flush_all t2;
  Alcotest.(check int) "new row visible" 11 (List.length (all_rows t2))

let test_flush_by_age () =
  let _, clock, _, t = fresh () in
  Table.insert_row t (row 1L 1L (Clock.now clock));
  Table.maintenance t;
  Alcotest.(check int) "young memtable kept" 1 (Table.memtable_count t);
  Clock.advance clock (Int64.mul 11L Clock.minute);
  Table.maintenance t;
  Alcotest.(check int) "aged memtable flushed" 0 (Table.memtable_count t);
  Alcotest.(check bool) "on disk" true (Table.tablet_count t >= 1)

let test_flush_before () =
  let _, clock, _, t = fresh ~config:(Config.make ~flush_size:(1 lsl 20) ()) () in
  let now = Clock.now clock in
  let old = Int64.sub now (Int64.mul 2L Clock.week) in
  Table.insert_row t (row 1L 1L old);
  Table.insert_row t (row 1L 2L now);
  Alcotest.(check int) "two memtables" 2 (Table.memtable_count t);
  Table.flush_before t ~ts:old;
  (* The old-period memtable flushed; but because the fresh memtable
     received a later insert, dependencies may pull it in — the paper
     only promises rows up to ts are durable. Verify durability of the
     old row via reopen semantics instead. *)
  Alcotest.(check bool) "old row on disk" true (Table.tablet_count t >= 1);
  let metas = Table.tablets t in
  Alcotest.(check bool) "covers old ts" true
    (List.exists (fun m -> m.Descriptor.min_ts <= old && old <= m.Descriptor.max_ts) metas)

(* Explicit durability is group-committed: a caller already covered by
   a completed round returns without flushing anything, and concurrent
   committers share one round's fsyncs instead of queueing identical
   rounds. Led/joined rounds are counted per table. *)
let test_group_commit () =
  let db, _, _, t = fresh () in
  let obs = Db.obs db in
  let commits mode =
    Lt_obs.Metrics.Counter.value
      (Lt_obs.Obs.group_commit obs ~table:"usage" ~mode)
  in
  Table.insert t (List.init 20 (fun i -> row 1L (Int64.of_int i) (Int64.of_int i)));
  Table.flush_all t;
  Alcotest.(check int) "first commit leads a round" 1 (commits "led");
  (* Nothing new since the round: covered callers flush nothing. *)
  Table.flush_all t;
  Table.flush_before t ~ts:5L;
  Table.flush_all t;
  Alcotest.(check int) "covered calls lead no round" 1 (commits "led");
  Alcotest.(check int) "covered calls join no round" 0 (commits "joined");
  let tablets_after_first = Table.tablet_count t in
  Alcotest.(check int) "covered calls write no tablets" tablets_after_first
    (Table.tablet_count t);
  (* New data un-covers the table; flush_before rides a fresh round. *)
  Table.insert_row t (row 9L 9L 99L);
  Table.flush_before t ~ts:99L;
  Alcotest.(check int) "new data leads a new round" 2 (commits "led");
  (* Concurrent committers: each call leads, joins an in-flight round,
     or rides a completed one; all rows are durable at the end. *)
  let n = 8 in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            Table.insert_row t (row 50L (Int64.of_int i) (Int64.of_int i));
            Table.flush_all t)
          ())
  in
  List.iter Thread.join threads;
  Alcotest.(check int) "everything durable" 0 (Table.memtable_count t);
  Alcotest.(check bool) "rounds bounded by callers" true
    (commits "led" + commits "joined" <= 2 + n);
  Alcotest.(check int) "no rows lost" (21 + n) (List.length (all_rows t))

let test_out_of_order_inserts_bin_correctly () =
  let _, clock, _, t = fresh ~config:(Config.make ~flush_size:(1 lsl 20) ()) () in
  let now = Clock.now clock in
  (* A device that was offline for a month delivers old events (§3.4.3). *)
  Table.insert t
    [
      row 1L 1L now;
      row 1L 1L (Int64.sub now (Int64.mul 30L Clock.day));
      row 1L 1L (Int64.sub now Clock.day);
      row 1L 1L (Int64.add now Clock.hour);
    ];
  (* Separate filling tablets per period: old week, yesterday, today(s). *)
  Alcotest.(check bool) "multiple bins" true (Table.memtable_count t >= 3);
  Table.flush_all t;
  (* Tablets have (mostly) disjoint timespans; verify sorted retrieval. *)
  Alcotest.(check int) "all rows" 4 (List.length (all_rows t));
  let metas = Table.tablets t in
  let rec disjoint = function
    | a :: (b :: _ as rest) ->
        a.Descriptor.max_ts < b.Descriptor.min_ts && disjoint rest
    | _ -> true
  in
  Alcotest.(check bool) "disjoint timespans" true (disjoint metas)

let test_drop_and_recreate_via_db () =
  let db, _, _, t = fresh () in
  Table.insert_row t (row 1L 1L 1L);
  Table.flush_all t;
  Db.drop_table db "usage";
  Alcotest.(check bool) "gone" true (Db.find_table db "usage" = None);
  let t2 = Db.create_table db "usage" (schema ()) ~ttl:None in
  Alcotest.(check int) "fresh table empty" 0 (List.length (all_rows t2))

let test_stats_scan_ratio () =
  let _, _, _, t = fresh () in
  (* Rows for one device across a wide ts range, all in one tablet. *)
  Table.insert t (List.init 100 (fun i -> row 1L 1L (Int64.of_int i)));
  Table.flush_all t;
  (* A narrow ts window must scan the key range but return few rows. *)
  let r = Table.query t (Query.between ~ts_min:10L ~ts_max:19L (Query.prefix [ Value.Int64 1L; Value.Int64 1L ])) in
  Alcotest.(check int) "returned" 10 (List.length r.Table.rows);
  Alcotest.(check bool) "scanned more than returned" true (r.Table.scanned >= 10)

(* ---- Concurrent readers vs maintenance -------------------------------- *)

(* N reader threads hammer queries while the main thread inserts,
   flushes, merges, expires, and advances the clock. Every result must
   be internally consistent: strictly ascending keys (the merge never
   interleaves wrongly) and self-checking row payloads (a torn read
   would break the bytes invariant), and Stats counters only grow. The
   parallel scan pool is active, so reader threads also share worker
   domains. *)

let stress_bytes net dev ts =
  Int64.add
    (Int64.add (Int64.mul net 1_000_000L) (Int64.mul dev 10_000L))
    (Int64.rem ts 10_000L)

let test_concurrent_readers () =
  let config =
    Config.make ~block_size:1024 ~flush_size:(8 * 1024)
      ~max_tablet_size:(64 * 1024) ~merge_delay:0L ~rollover_spread:0.0
      ~server_row_limit:10_000 ~query_domains:2 ()
  in
  let _, clock, _, t = fresh ~config ~ttl:Clock.hour () in
  let stop = Atomic.make false in
  let failure = ref None in
  let fail_mutex = Mutex.create () in
  let record_failure msg =
    Mutex.lock fail_mutex;
    if !failure = None then failure := Some msg;
    Mutex.unlock fail_mutex
  in
  let check_result rows =
    let tuples = Support.usage_tuples rows in
    let rec sorted = function
      | (a : int64 * int64 * int64 * int64) :: (b :: _ as tl) ->
          (let n0, d0, t0, _ = a and n1, d1, t1, _ = b in
           (n0, d0, t0) < (n1, d1, t1))
          && sorted tl
      | _ -> true
    in
    if not (sorted tuples) then record_failure "keys out of order";
    List.iter
      (fun (net, dev, ts, bytes) ->
        if bytes <> stress_bytes net dev ts then
          record_failure
            (Printf.sprintf "torn row: net=%Ld dev=%Ld ts=%Ld bytes=%Ld" net
               dev ts bytes))
      tuples
  in
  let reader () =
    let last_scanned = ref 0 and last_queries = ref 0 and last_returned = ref 0 in
    while not (Atomic.get stop) do
      check_result (all_rows t);
      check_result
        (Table.query t (Query.prefix [ Value.Int64 1L ])).Table.rows;
      let s = Table.stats t in
      if
        s.Stats.rows_scanned < !last_scanned
        || s.Stats.queries < !last_queries
        || s.Stats.rows_returned < !last_returned
      then record_failure "stats went backwards";
      last_scanned := s.Stats.rows_scanned;
      last_queries := s.Stats.queries;
      last_returned := s.Stats.rows_returned
    done
  in
  let readers = List.init 4 (fun _ -> Thread.create reader ()) in
  let ts_of i j = Int64.add Support.ts0 (Int64.of_int ((i * 100) + j)) in
  for i = 0 to 59 do
    Table.insert t
      (List.init 20 (fun j ->
           let net = Int64.of_int (i mod 4) and dev = Int64.of_int (j mod 5) in
           let ts = ts_of i j in
           row ~bytes:(stress_bytes net dev ts) net dev ts));
    (match i mod 6 with
    | 0 -> Table.flush_all t
    | 1 -> ignore (Table.merge_step t)
    | 2 ->
        Clock.advance clock Clock.minute;
        ignore (Table.expire t)
    | 3 -> Table.maintenance t
    | _ -> ());
    Thread.yield ()
  done;
  Atomic.set stop true;
  List.iter Thread.join readers;
  (match !failure with
  | Some msg -> Alcotest.fail msg
  | None -> ());
  (* Final sanity: everything inserted and unexpired is still there. *)
  check_result (all_rows t);
  Alcotest.(check int) "all rows present" (60 * 20)
    (List.length (all_rows t))

(* ---- Randomized comparison against a reference model ----------------- *)

let prop_matches_reference =
  QCheck.Test.make ~name:"table matches sorted-list reference" ~count:30
    QCheck.(
      list_of_size (Gen.int_range 1 120)
        (triple (int_bound 3) (int_bound 5) (int_bound 1000)))
    (fun ops ->
      let _, _, _, t = fresh () in
      let reference = Hashtbl.create 64 in
      List.iteri
        (fun i (net, dev, ts) ->
          let net = Int64.of_int net and dev = Int64.of_int dev in
          let ts = Int64.of_int ts in
          let key = (net, dev, ts) in
          (match Table.insert_row t (row ~bytes:(Int64.of_int i) net dev ts) with
          | () ->
              if Hashtbl.mem reference key then raise Exit;
              Hashtbl.replace reference key (Int64.of_int i)
          | exception Table.Duplicate_key _ ->
              if not (Hashtbl.mem reference key) then raise Exit);
          (* Periodically flush and merge to mix storage layers. *)
          if i mod 17 = 0 then Table.flush_all t;
          if i mod 41 = 0 then ignore (Table.merge_step t))
        ops;
      let expected =
        Hashtbl.fold (fun (n, d, ts) b acc -> (n, d, ts, b) :: acc) reference []
        |> List.sort compare
      in
      let got = Support.usage_tuples (all_rows t) in
      got = expected)

(* ---- Byte identity of flushed and merged tablets ---------------------- *)

(* A deterministic life of a string-keyed table whose keys contain 0x00
   and 0x01 (the escapes the Bloom boundary scan must step over): flushes
   before and after [add_column] / [widen_column], merges of tablets
   written under older schema versions, a layout rewrite to columnar,
   a merge of a columnar source with a row-major one into a columnar
   output, and a bulk delete that rewrites straddling columnar tablets.
   Each phase's digest covers every tablet file's bytes, Bloom filter
   included. *)
let ident_phase_digests () =
  let day = 86_400_000_000L in
  let config =
    Config.make ~block_size:1024 ~flush_size:(6 * 1024)
      ~max_tablet_size:(1024 * 1024) ~merge_delay:0L ~rollover_spread:0.0
      ~columnar_age:(Int64.mul 7L day) ~server_row_limit:100_000 ()
  in
  let db, clock, vfs = Support.fresh_db ~config () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let t = Db.create_table db "events" (Support.event_schema ()) ~ttl:None in
  let nets = [| "n\x00"; "n\x01"; "n"; "\x01\x00x"; "n\x00\x01" |] in
  let base = Int64.sub Support.ts0 (Int64.mul 2L day) in
  let row ?flags i =
    let cells =
      [
        Value.String nets.(i mod Array.length nets);
        Value.String (Printf.sprintf "d%c%03d" (Char.chr (i mod 3)) (i / 7));
        Value.Timestamp (Int64.add base (Int64.of_int (i * 1_000)));
        Value.Int64 (Int64.of_int (i * 37));
        Value.Blob (String.make (i mod 13) (Char.chr (i land 0xff)));
      ]
    in
    Array.of_list (cells @ Option.to_list flags)
  in
  let insert lo hi ?flags () =
    Table.insert t
      (List.init (hi - lo) (fun j ->
           let i = lo + j in
           row ?flags:(Option.map (fun f -> f i) flags) i))
  in
  let merge_fixpoint () =
    let fuel = ref 64 in
    while !fuel > 0 && Table.merge_step t do
      decr fuel
    done
  in
  let digest () =
    Lt_vfs.Vfs.readdir vfs (Table.dir t)
    |> List.filter (fun f -> Filename.check_suffix f ".tab")
    |> List.sort String.compare
    |> List.map (fun f ->
           f ^ ":" ^ Digest.to_hex (Digest.string (Lt_vfs.Vfs.read_all vfs (Filename.concat (Table.dir t) f))))
    |> String.concat ";"
    |> Digest.string |> Digest.to_hex
  in
  let phases = ref [] in
  let phase name = phases := (name, digest ()) :: !phases in
  insert 0 300 ();
  Table.flush_all t;
  phase "flush";
  Table.add_column t
    { Schema.name = "flags"; ctype = Value.T_int32; default = Value.Int32 7l };
  insert 300 600 ~flags:(fun i -> Value.Int32 (Int32.of_int (i mod 5))) ();
  Table.flush_all t;
  phase "flush after add_column";
  merge_fixpoint ();
  phase "merge across schema versions";
  Table.widen_column t "flags";
  insert 600 900 ~flags:(fun i -> Value.Int64 (Int64.of_int (i * 1_000_003))) ();
  Table.flush_all t;
  merge_fixpoint ();
  phase "merge after widen_column";
  Clock.advance clock (Int64.mul 10L day);
  merge_fixpoint ();
  phase "columnar rewrite";
  insert 900 1200 ~flags:(fun i -> Value.Int64 (Int64.of_int i)) ();
  Table.flush_all t;
  merge_fixpoint ();
  phase "columnar + row-major into columnar";
  ignore (Table.delete_prefix t [ Value.String "n\x01" ]);
  phase "straddling delete";
  let columnar =
    List.length (List.filter (fun m -> m.Descriptor.columnar) (Table.tablets t))
  in
  (List.rev !phases, columnar)

(* The digests were taken from the engine before merges moved encoded
   rows and the writer derived Bloom prefixes from key bytes: for the
   same inputs every flushed and merged tablet is the same file. *)
let test_tablets_byte_identical () =
  let phases, columnar = ident_phase_digests () in
  Alcotest.(check bool) "the scenario reaches columnar tablets" true (columnar > 0);
  Alcotest.(check (list (pair string string)))
    "tablet file digests per phase"
    [
      ("flush", "3583698ca1a99bad1430be66845b4c1e");
      ("flush after add_column", "40e05d6ac74a7d333e9ae37814fe0593");
      ("merge across schema versions", "93f37343c77e168e1899b6f4e62fa005");
      ("merge after widen_column", "f3a22adf5da888e7464f08299abdff2f");
      ("columnar rewrite", "5e9207a3d405488b09e7b1bfed09c456");
      ("columnar + row-major into columnar", "aefa5fc1ce86a59718cbd290347c1701");
      ("straddling delete", "f15bb1663c4c8ea4d5c99b8d869745f5");
    ]
    phases

let suite =
  [
    ("flushed and merged tablets byte-identical", `Quick, test_tablets_byte_identical);
    ("insert + query (memtable only)", `Quick, test_insert_query_memtable_only);
    ("flush and query", `Quick, test_flush_and_query);
    ("query bounding boxes", `Quick, test_query_bounds);
    ("query merges memtable and disk", `Quick, test_query_merges_memtable_and_disk);
    ("duplicate key rejected", `Quick, test_duplicate_key_rejected);
    ("unique fast path (newer ts)", `Quick, test_unique_fast_path_newer_ts);
    ("uniqueness disabled: newest shadows", `Quick, test_unique_disabled);
    ("more_available paging", `Quick, test_more_available);
    ("query_iter streams", `Quick, test_query_iter_streams);
    ("ttl filtering and expiry", `Quick, test_ttl_filtering_and_expiry);
    ("ttl: straddling tablet kept", `Quick, test_ttl_partial_tablet);
    ("merge reduces tablets", `Quick, test_merge_reduces_tablets);
    ("merge respects periods", `Quick, test_merge_respects_periods);
    ("merge drops expired rows", `Quick, test_merge_drops_expired_rows);
    ("latest: full prefix", `Quick, test_latest_full_prefix);
    ("latest: respects ttl", `Quick, test_latest_respects_ttl);
    ("latest: searches far past", `Quick, test_latest_searches_far_past);
    ("schema evolution live", `Quick, test_schema_evolution_live);
    ("reopen from descriptor", `Quick, test_reopen_from_descriptor);
    ("flush by age", `Quick, test_flush_by_age);
    ("flush_before (proposed extension)", `Quick, test_flush_before);
    ("group commit shares flush rounds", `Quick, test_group_commit);
    ("out-of-order inserts bin correctly", `Quick, test_out_of_order_inserts_bin_correctly);
    ("drop and recreate", `Quick, test_drop_and_recreate_via_db);
    ("stats scan ratio", `Quick, test_stats_scan_ratio);
    ("concurrent readers vs maintenance", `Quick, test_concurrent_readers);
    Support.qcheck prop_matches_reference;
  ]
