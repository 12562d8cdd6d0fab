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

(* Regression: a scan whose reader stops early — the SQL executor's
   LIMIT over a residual filter, an app search that reaches its limit —
   kept its tablet refs forever, so tablets merged away stayed on disk,
   and its query was never counted. *)
let test_abandoned_scan_releases_tablets () =
  let db, clock, vfs, t = fresh () in
  let base = Int64.sub (Clock.now clock) (Int64.mul 3L Clock.week) in
  for batch = 0 to 4 do
    Table.insert t
      (List.init 20 (fun i ->
           let k = (batch * 20) + i in
           row 1L (Int64.of_int k) (Int64.add base (Int64.of_int k))));
    Table.flush_all t
  done;
  let files () = List.map (fun m -> m.Descriptor.file) (Table.tablets t) in
  let flushed = files () in
  Alcotest.(check int) "five tablets" 5 (List.length flushed);
  Alcotest.(check bool) "scoped scan stopped after one row" true
    (Table.with_query t Query.all (fun src -> src ()) <> None);
  (match
     Lt_sql.Executor.execute (Lt_sql.Executor.local_backend db)
       "SELECT device FROM usage WHERE bytes = 0 LIMIT 1"
   with
  | Lt_sql.Executor.Rows { rows = [ _ ]; _ } -> ()
  | _ -> Alcotest.fail "LIMIT 1 over a residual filter gives one row");
  while Table.merge_step t do () done;
  let live = files () in
  let on_disk = Lt_vfs.Vfs.readdir vfs (Table.dir t) in
  Alcotest.(check bool) "merges retired tablets" true
    (List.exists (fun f -> not (List.mem f live)) flushed);
  Alcotest.(check (list string)) "no retired tablet left on disk" []
    (List.filter (fun f -> (not (List.mem f live)) && List.mem f on_disk)
       flushed);
  Alcotest.(check int) "both scans counted" 2 (Table.stats t).Stats.queries

(* Regression: a query whose block reads failed (an I/O error from
   [pread]) never closed its scan, so its tablet refs were never dropped
   and tablets that later merges retired stayed on disk. Reads fail
   either at once, while the merge cursor reads each tablet's first
   block as the scan opens, or after those first blocks, mid-scan; both
   the collecting [query] and the streaming [query_iter] are checked,
   sequential and staged on worker domains. *)
let failed_scan_releases_tablets ~domains =
  let clock = Clock.manual ~start:Support.ts0 () in
  (* [Some n]: the next [n] preads succeed, the ones after fail. *)
  let pread_budget = ref None in
  let vfs =
    Lt_vfs.Vfs.faulty
      ~should_fail:(fun ~op ~path:_ ->
        match !pread_budget with
        | Some n when op = "pread" ->
            pread_budget := Some (n - 1);
            n <= 0
        | _ -> false)
      (Lt_vfs.Vfs.memory ())
  in
  (* No block cache: every scan reads its blocks through the VFS. *)
  let config =
    { small_config with Config.cache_bytes = 0; query_domains = domains }
  in
  let db = Db.open_ ~config ~clock ~vfs ~dir:"dbroot" () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let t = Db.create_table db "usage" (schema ()) ~ttl:None in
  let base = Int64.sub (Clock.now clock) (Int64.mul 3L Clock.week) in
  let per_tablet = 100 in
  for batch = 0 to 4 do
    Table.insert t
      (List.init per_tablet (fun i ->
           let k = (batch * per_tablet) + i in
           row 1L (Int64.of_int k) (Int64.add base (Int64.of_int k))));
    Table.flush_all t
  done;
  let files () = List.map (fun m -> m.Descriptor.file) (Table.tablets t) in
  let flushed = files () in
  Alcotest.(check int) "five tablets" 5 (List.length flushed);
  Alcotest.(check bool) "tablets span several blocks" true
    (List.for_all (fun m -> m.Descriptor.size > 2 * config.Config.block_size)
       (Table.tablets t));
  (* A good query first, so the readers (and their footers) are open
     and the failing queries get as far as the block reads. *)
  Alcotest.(check int) "all rows" (5 * per_tablet) (List.length (all_rows t));
  List.iter
    (fun budget ->
      pread_budget := Some budget;
      (match Table.query t Query.all with
      | _ -> Alcotest.failf "budget %d: the block reads were meant to fail" budget
      | exception Lt_vfs.Vfs.Io_error _ -> ());
      pread_budget := Some budget;
      match
        let next = Table.query_iter t Query.all in
        while next () <> None do () done
      with
      | () -> Alcotest.failf "budget %d: the streamed reads were meant to fail" budget
      | exception Lt_vfs.Vfs.Io_error _ -> ())
    [ 0; List.length flushed ];
  pread_budget := None;
  while Table.merge_step t do () done;
  Alcotest.(check int) "merged to one tablet" 1 (Table.tablet_count t);
  let live = files () in
  let on_disk = Lt_vfs.Vfs.readdir vfs (Table.dir t) in
  Alcotest.(check (list string)) "no retired tablet left on disk" []
    (List.filter (fun f -> (not (List.mem f live)) && List.mem f on_disk)
       flushed);
  Alcotest.(check int) "rows intact" (5 * per_tablet) (List.length (all_rows t))

let test_failed_scan_releases_tablets () =
  failed_scan_releases_tablets ~domains:0;
  failed_scan_releases_tablets ~domains:2

(* A read's memtable snapshot is frozen: rows inserted into the same
   memtable after the read began, between the snapshot's keys, stay out
   of it. The scan is staged on the worker pool (a disk tablet makes it
   fan out), and the memtable holds more rows than the producers read
   ahead, so a worker domain walks the snapshot while the inserts land
   in place. *)
let test_snapshot_unchanged_by_inserts () =
  let config =
    Config.make ~flush_size:(64 * 1024 * 1024) ~rollover_spread:0.0
      ~server_row_limit:100_000 ~query_domains:2 ()
  in
  let db, clock, _ = Support.fresh_db ~config () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let t = Db.create_table db "usage" (schema ()) ~ttl:None in
  let now = Clock.now clock in
  Table.insert t [ row 9L 0L now ];
  Table.flush_all t;
  let n = 3000 in
  Table.insert t (List.init n (fun i -> row 1L (Int64.of_int (2 * i)) now));
  let next = Table.query_iter t Query.all in
  let first = Option.get (next ()) in
  Table.insert t (List.init n (fun i -> row 1L (Int64.of_int ((2 * i) + 1)) now));
  let rec drain acc =
    match next () with Some r -> drain (r :: acc) | None -> List.rev acc
  in
  let seen = Support.usage_tuples (List.map snd (first :: drain [])) in
  Alcotest.(check int) "the snapshot's rows" (n + 1) (List.length seen);
  Alcotest.(check bool) "no row inserted after the snapshot" true
    (List.for_all (fun (net, dev, _, _) -> net = 9L || Int64.rem dev 2L = 0L) seen);
  Alcotest.(check int) "a later read sees every row" ((2 * n) + 1)
    (List.length (all_rows t))

(* The usage table's sample count in duration histogram [name], and
   its value of counter [name], from the registry's snapshot. *)
let registry_children db name =
  List.concat_map
    (fun f ->
      if f.Lt_obs.Metrics.sn_name = name then
        List.filter
          (fun c -> c.Lt_obs.Metrics.sn_labels = [ ("table", "usage") ])
          f.Lt_obs.Metrics.sn_children
      else [])
    (Lt_obs.Metrics.snapshot (Lt_obs.Obs.registry (Db.obs db)))

let hist_samples db name =
  List.fold_left
    (fun n c -> n + c.Lt_obs.Metrics.sn_count)
    0 (registry_children db name)

let counter_value db name =
  List.fold_left
    (fun n c -> n + int_of_float c.Lt_obs.Metrics.sn_fval)
    0 (registry_children db name)

(* Regression: a [query_agg] or a [latest] whose block reads failed
   released its tablets but never closed its record, so it left no
   span, no histogram sample and no count, unlike a failed [query].
   Reads fail at once or after the first blocks; sequential and with
   worker domains. *)
let failed_agg_and_latest_close_their_reads ~domains =
  let clock = Clock.manual ~start:Support.ts0 () in
  let pread_budget = ref None in
  let vfs =
    Lt_vfs.Vfs.faulty
      ~should_fail:(fun ~op ~path:_ ->
        match !pread_budget with
        | Some n when op = "pread" ->
            pread_budget := Some (n - 1);
            n <= 0
        | _ -> false)
      (Lt_vfs.Vfs.memory ())
  in
  let config =
    { small_config with Config.cache_bytes = 0; query_domains = domains }
  in
  let db = Db.open_ ~config ~clock ~vfs ~dir:"dbroot" () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let t = Db.create_table db "usage" (schema ()) ~ttl:None in
  let base = Int64.sub (Clock.now clock) (Int64.mul 3L Clock.week) in
  let per_tablet = 100 in
  for batch = 0 to 4 do
    Table.insert t
      (List.init per_tablet (fun i ->
           let k = (batch * per_tablet) + i in
           row 1L (Int64.of_int k) (Int64.add base (Int64.of_int k))));
    Table.flush_all t
  done;
  let files () = List.map (fun m -> m.Descriptor.file) (Table.tablets t) in
  let flushed = files () in
  Alcotest.(check int) "all rows" (5 * per_tablet) (List.length (all_rows t));
  let trace = Lt_obs.Obs.trace (Db.obs db) in
  let specs =
    [| { Agg.a_fn = Agg.Count; a_col = None };
       { Agg.a_fn = Agg.Sum; a_col = Some 3 } |]
  in
  let fails what op hist budget f =
    let spans0 = Lt_obs.Trace.recorded trace in
    let samples0 = hist_samples db hist in
    let queries0 = (Table.stats t).Stats.queries in
    pread_budget := Some budget;
    (match f () with
    | () -> Alcotest.failf "%s, budget %d: the block reads were meant to fail" what budget
    | exception Lt_vfs.Vfs.Io_error _ -> ());
    pread_budget := None;
    let spans =
      Lt_obs.Trace.recent ~n:(Lt_obs.Trace.recorded trace - spans0) trace
    in
    Alcotest.(check (list string))
      (Printf.sprintf "%s, budget %d: one span" what budget)
      [ Lt_obs.Trace.op_name op ]
      (List.map (fun sp -> Lt_obs.Trace.op_name sp.Lt_obs.Trace.sp_op) spans);
    Alcotest.(check int)
      (Printf.sprintf "%s, budget %d: one histogram sample" what budget)
      (samples0 + 1) (hist_samples db hist);
    Alcotest.(check int)
      (Printf.sprintf "%s, budget %d: counted" what budget)
      (queries0 + 1) (Table.stats t).Stats.queries
  in
  List.iter
    (fun budget ->
      fails "query" Lt_obs.Trace.Query "lt_query_duration_seconds" budget
        (fun () -> ignore (Table.query t Query.all));
      fails "query_agg" Lt_obs.Trace.Query "lt_query_duration_seconds" budget
        (fun () -> ignore (Table.query_agg t Query.all ~specs)))
    [ 0; List.length flushed ];
  List.iter
    (fun budget ->
      fails "latest" Lt_obs.Trace.Latest "lt_latest_duration_seconds" budget
        (fun () -> ignore (Table.latest t [ Value.Int64 1L ])))
    [ 0; 1 ];
  while Table.merge_step t do () done;
  Alcotest.(check int) "merged to one tablet" 1 (Table.tablet_count t);
  let live = files () in
  let on_disk = Lt_vfs.Vfs.readdir vfs (Table.dir t) in
  Alcotest.(check (list string)) "no retired tablet left on disk" []
    (List.filter (fun f -> (not (List.mem f live)) && List.mem f on_disk)
       flushed);
  Alcotest.(check int) "rows intact" (5 * per_tablet) (List.length (all_rows t))

let test_failed_agg_and_latest_close_their_reads () =
  failed_agg_and_latest_close_their_reads ~domains:0;
  failed_agg_and_latest_close_their_reads ~domains:2

(* Regression: [latest] never handed its record's counters to the
   tablet scan, so the column sections it decompressed from columnar
   blocks reached neither [Stats.columns_decoded] nor
   [lt_columns_decoded_total]. *)
let test_latest_counts_columns_decoded () =
  let config = { small_config with Config.columnar_age = 0L } in
  let db, clock, _, t = fresh ~config () in
  let base = Int64.sub (Clock.now clock) (Int64.mul 3L Clock.week) in
  for batch = 0 to 3 do
    Table.insert t
      (List.init 50 (fun i ->
           let k = (batch * 50) + i in
           row ~bytes:(Int64.of_int k) 1L (Int64.of_int (k mod 7))
             (Int64.add base (Int64.of_int k))));
    Table.flush_all t
  done;
  while Table.merge_step t do () done;
  Alcotest.(check bool) "every tablet columnar" true
    (List.for_all (fun m -> m.Descriptor.columnar) (Table.tablets t));
  let cols0 = (Table.stats t).Stats.columns_decoded in
  let series0 = counter_value db "lt_columns_decoded_total" in
  (match Table.latest t [ Value.Int64 1L; Value.Int64 3L ] with
  | Some r ->
      Alcotest.(check int64) "newest row of device 3"
        (Int64.add base 199L) (Support.ts_of_cell r.(2))
  | None -> Alcotest.fail "no row");
  let cols1 = (Table.stats t).Stats.columns_decoded in
  Alcotest.(check bool) "Stats.columns_decoded rises" true (cols1 > cols0);
  Alcotest.(check int) "lt_columns_decoded_total agrees" cols1
    (counter_value db "lt_columns_decoded_total");
  Alcotest.(check bool) "the series rises" true
    (counter_value db "lt_columns_decoded_total" > series0)

(* Regression: a flush whose descriptor commit failed was recorded as a
   span and a latency sample but not counted, so the three disagreed
   after the retry. *)
let test_telemetry_after_failed_commit () =
  let clock = Clock.manual ~start:Support.ts0 () in
  let armed = ref false in
  let vfs =
    Lt_vfs.Vfs.faulty
      ~should_fail:(fun ~op ~path ->
        let hit =
          !armed && op = "append"
          && Filename.basename path = Descriptor.file_name ^ ".tmp"
        in
        if hit then armed := false;
        hit)
      (Lt_vfs.Vfs.memory ())
  in
  let db = Db.open_ ~config:small_config ~clock ~vfs ~dir:"dbroot" () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let t = Db.create_table db "usage" (schema ()) ~ttl:None in
  Table.insert t [ row 1L 1L Support.ts0; row 1L 2L Support.ts0 ];
  armed := true;
  (match Table.flush_all t with
  | () -> Alcotest.fail "the descriptor append was meant to fail"
  | exception Lt_vfs.Vfs.Io_error _ -> ());
  Table.flush_all t;
  let obs = Db.obs db in
  let hist_count =
    List.concat_map
      (fun f ->
        if f.Lt_obs.Metrics.sn_name = "lt_flush_duration_seconds" then
          List.filter_map
            (fun c ->
              if c.Lt_obs.Metrics.sn_labels = [ ("table", "usage") ] then
                Some c.Lt_obs.Metrics.sn_count
              else None)
            f.Lt_obs.Metrics.sn_children
        else [])
      (Lt_obs.Metrics.snapshot (Lt_obs.Obs.registry obs))
  in
  let spans =
    List.filter
      (fun sp -> sp.Lt_obs.Trace.sp_op = Lt_obs.Trace.Flush)
      (Lt_obs.Trace.recent (Lt_obs.Obs.trace obs))
  in
  let flushes = (Table.stats t).Stats.flushes in
  Alcotest.(check int) "one flush counted" 1 flushes;
  Alcotest.(check (list int)) "histogram agrees" [ flushes ] hist_count;
  Alcotest.(check int) "spans agree" flushes (List.length spans);
  Alcotest.(check int) "rows durable" 2 (List.length (all_rows t))

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

(* A row that fails validation ends its batch, but the rows before it
   are in: they count as inserted, and the next [flush_all] makes them
   durable instead of answering that everything is already covered. *)
let test_invalid_row_mid_batch () =
  let _, clock, vfs, t = fresh () in
  Table.insert_row t (row 1L 1L 10L);
  Table.flush_all t;
  let bad = [| Value.String "not a network" |] in
  (match Table.insert_report t [ row 1L 2L 20L; row 1L 3L 30L; bad ] with
  | Error (2, Schema.Invalid _) -> ()
  | Error (n, e) -> Alcotest.failf "landed %d, then %s" n (Printexc.to_string e)
  | Ok () -> Alcotest.fail "invalid row accepted");
  (* [insert] raises what ended the batch. *)
  (match Table.insert t [ row 1L 4L 40L; bad ] with
  | () -> Alcotest.fail "invalid row accepted"
  | exception Schema.Invalid _ -> ());
  Alcotest.(check int) "rows before the invalid ones are counted" 4
    (Table.stats t).Stats.rows_inserted;
  Table.flush_all t;
  Lt_vfs.Vfs.crash vfs;
  let t2 =
    Table.open_ vfs ~clock ~config:small_config ~dir:"dbroot/usage" ~name:"usage"
  in
  Alcotest.(check int) "and survive a crash after flush_all" 4
    (List.length (all_rows t2))

let test_flush_by_age () =
  let _, clock, _, t = fresh () in
  Table.insert_row t (row 1L 1L (Clock.now clock));
  Table.maintenance t;
  Alcotest.(check int) "young memtable kept" 1 (Table.memtable_count t);
  Clock.advance clock (Int64.mul 11L Clock.minute);
  Table.maintenance t;
  Alcotest.(check int) "aged memtable flushed" 0 (Table.memtable_count t);
  Alcotest.(check bool) "on disk" true (Table.tablet_count t >= 1)

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
  Table.flush_all t;
  Table.flush_all t;
  Alcotest.(check int) "covered calls lead no round" 1 (commits "led");
  Alcotest.(check int) "covered calls join no round" 0 (commits "joined");
  let tablets_after_first = Table.tablet_count t in
  Alcotest.(check int) "covered calls write no tablets" tablets_after_first
    (Table.tablet_count t);
  (* New data un-covers the table; the next call leads a fresh round. *)
  Table.insert_row t (row 9L 9L 99L);
  Table.flush_all t;
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
   output, a bulk delete that rewrites straddling columnar tablets, and
   a TTL change whose expiry drops every old tablet. Each phase yields
   two digests: one over every tablet file's bytes, Bloom filter
   included, and one over the descriptor file, so each tablet-set
   commit (flush, merge, delete, expire) is pinned. *)
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
  let file_digest f =
    Digest.to_hex
      (Digest.string (Lt_vfs.Vfs.read_all vfs (Filename.concat (Table.dir t) f)))
  in
  let digest () =
    Lt_vfs.Vfs.readdir vfs (Table.dir t)
    |> List.filter (fun f -> Filename.check_suffix f ".tab")
    |> List.sort String.compare
    |> List.map (fun f -> f ^ ":" ^ file_digest f)
    |> String.concat ";"
    |> Digest.string |> Digest.to_hex
  in
  let phases = ref [] in
  let phase name =
    phases := (name, (digest (), file_digest Descriptor.file_name)) :: !phases
  in
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
  (* Fresh rows an hour old, then a one-day TTL: expiry drops every
     older tablet and keeps the fresh one. *)
  let hour_ago = Int64.sub (Clock.now clock) 3_600_000_000L in
  Table.insert t
    (List.init 40 (fun j ->
         let r = row ~flags:(Value.Int64 (Int64.of_int j)) (1200 + j) in
         r.(2) <- Value.Timestamp (Int64.add hour_ago (Int64.of_int (j * 1_000)));
         r));
  Table.flush_all t;
  Table.set_ttl t (Some day);
  let expired = Table.expire t in
  phase "set_ttl + expire";
  (List.rev !phases, columnar, expired, List.length (Table.tablets t))

(* The digests were taken from the engine before merges moved encoded
   rows and the writer derived Bloom prefixes from key bytes: for the
   same inputs every flushed and merged tablet is the same file. *)
let test_tablets_byte_identical () =
  let phases, columnar, expired, left = ident_phase_digests () in
  Alcotest.(check bool) "the scenario reaches columnar tablets" true (columnar > 0);
  Alcotest.(check bool) "expiry drops old tablets" true (expired > 0);
  Alcotest.(check int) "expiry keeps the fresh tablet" 1 left;
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
      ("set_ttl + expire", "78975eac85e19d55f17bf4cfc6143f45");
    ]
    (List.map (fun (name, (tablets, _)) -> (name, tablets)) phases);
  (* Taken before the four descriptor swaps became one commit. *)
  Alcotest.(check (list (pair string string)))
    "descriptor digests per phase"
    [
      ("flush", "4ff1072180b779416478458315cff87c");
      ("flush after add_column", "08de4ad5d319b2fbd2fa169f6d979bdf");
      ("merge across schema versions", "c5763f71245e38939649d023f43852b3");
      ("merge after widen_column", "fc8ade6cf6e8c73747ce91db2b196c60");
      ("columnar rewrite", "2f8293b06d556976b5c5229e6eaef78d");
      ("columnar + row-major into columnar", "9a1fb7ad0a7afc3160a052cb191b4d4b");
      ("straddling delete", "48e733a5823521a38831021b1fef6ff1");
      ("set_ttl + expire", "b90f2a29b6cee42b3c71aef392350877");
    ]
    (List.map (fun (name, (_, desc)) -> (name, desc)) phases)

(* ---- Read-path accounting golden -------------------------------------- *)

(* A fixed life of a TTL'd usage table on the in-memory VFS — flushes,
   merges, a columnar rewrite, rows past the TTL cutoff, unflushed
   memtables, and a tablet holding only network 9 — with every read
   entry point run after each phase. Each read yields one line: a digest
   of the rows it returned, every non-time profile field, the fields of
   the spans it recorded (op/scanned/returned/tablets/cache hits/misses),
   and every field of the table's [Stats] snapshot afterwards, so a
   counter that moves shows by name. [latest]'s span [tablets] is
   reported apart, as [(label, tablets)]. *)
let accounting_transcript ~domains =
  let day = 86_400_000_000L in
  let config =
    Config.make ~block_size:1024 ~flush_size:(8 * 1024)
      ~max_tablet_size:(64 * 1024) ~merge_delay:0L ~rollover_spread:0.0
      ~columnar_age:(Int64.mul 7L day) ~server_row_limit:10_000
      ~query_domains:domains ()
  in
  let db, clock, _ = Support.fresh_db ~config () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let t = Db.create_table db "usage" (schema ()) ~ttl:(Some (Int64.mul 30L day)) in
  let trace = Lt_obs.Obs.trace (Db.obs db) in
  let lines = ref [] and latest_tablets = ref [] in
  let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 12 in
  let rows_digest rows =
    hex
      (String.concat "\n"
         (List.map
            (fun r ->
              String.concat "," (Array.to_list (Array.map Value.to_string r)))
            rows))
  in
  let prof_fields = function
    | None -> "-"
    | Some p ->
        let open Lt_obs.Profile in
        Printf.sprintf "s%d/r%d/t%d/p%d/h%d/m%d/f%d/c%d/n%d" p.p_rows_scanned
          p.p_rows_returned p.p_tablets p.p_tablets_pruned p.p_cache_hits
          p.p_cache_misses p.p_blocks_footer_answered p.p_columns_decoded
          (List.length p.p_shards)
  in
  (* [Stats.snapshot] in field order: inserted rows/batches, returned,
     scanned, queries, flushes/bytes, merges/bytes in/out, expired,
     flush retries, quarantined, footer blocks, columns decoded, bytes
     written; then the cache's hits/misses/evictions/inserted/resident
     bytes. *)
  let stats_fields (s : Stats.snapshot) =
    let open Stats in
    let c = s.cache in
    Printf.sprintf
      "ins%d/b%d/ret%d/scan%d/q%d/fl%d/flB%d/mg%d/mgI%d/mgO%d/exp%d/rty%d/qt%d/foot%d/cols%d/wr%d;ch%d/cm%d/ce%d/cin%d/cres%d"
      s.rows_inserted s.insert_batches s.rows_returned s.rows_scanned
      s.queries s.flushes s.flushed_bytes s.merges s.merged_bytes_in
      s.merged_bytes_out s.tablets_expired s.flush_retries
      s.tablets_quarantined s.blocks_footer_answered s.columns_decoded
      s.bytes_written c.cache_hits c.cache_misses c.cache_evictions
      c.cache_inserted_bytes c.cache_resident_bytes
  in
  let read label f =
    let before = Lt_obs.Trace.recorded trace in
    let rows, prof = f () in
    let spans =
      Lt_obs.Trace.recent ~n:(Lt_obs.Trace.recorded trace - before) trace
      |> List.rev
    in
    let span_fields sp =
      let open Lt_obs.Trace in
      let p = sp.sp_prof in
      let open Lt_obs.Profile in
      if sp.sp_op = Latest then
        latest_tablets := (label, p.p_tablets) :: !latest_tablets;
      Printf.sprintf "%s/s%d/r%d/t%s/h%d/m%d" (op_name sp.sp_op)
        p.p_rows_scanned p.p_rows_returned
        (if sp.sp_op = Latest then "_" else string_of_int p.p_tablets)
        p.p_cache_hits p.p_cache_misses
    in
    lines :=
      Printf.sprintf "%s rows=%s prof=%s spans=[%s] stats=%s" label
        (rows_digest rows) (prof_fields prof)
        (String.concat ";" (List.map span_fields spans))
        (stats_fields (Table.stats t))
      :: !lines
  in
  let reads phase =
    let l s = phase ^ ":" ^ s in
    let now = Clock.now clock in
    let recent = Int64.sub now (Int64.mul 12L day) in
    read (l "query all") (fun () ->
        let r = Table.query ~profile:true t Query.all in
        (r.Table.rows, r.Table.profile));
    read (l "query net 2, 12 days") (fun () ->
        let r =
          Table.query ~profile:true t
            (Query.between ~ts_min:recent (Query.prefix [ Value.Int64 2L ]))
        in
        (r.Table.rows, r.Table.profile));
    (* With worker domains, producers read ahead of a consumer that
       stops early by a timing-dependent amount, so a limited scan's
       cache and decode counts are fixed only when sequential. *)
    if domains = 0 then
      read (l "query desc limit 7") (fun () ->
          let r =
            Table.query ~profile:true t
              (Query.with_limit 7 (Query.with_direction Query.Desc Query.all))
          in
          (r.Table.rows, r.Table.profile));
    read (l "query_iter net 1") (fun () ->
        (Cursor.to_list (Table.query_iter t (Query.prefix [ Value.Int64 1L ]))
         |> List.map snd,
         None));
    let specs =
      [| { Agg.a_fn = Agg.Count; a_col = None };
         { Agg.a_fn = Agg.Sum; a_col = Some 3 };
         { Agg.a_fn = Agg.Max; a_col = Some 4 } |]
    in
    read (l "agg all") (fun () ->
        let r, p = Table.query_agg ~profile:true t Query.all ~specs in
        ([ r ], p));
    read (l "agg net 3, ts window") (fun () ->
        let r, p =
          Table.query_agg ~profile:true t
            (Query.between ~ts_min:(Int64.sub now (Int64.mul 25L day))
               ~ts_max:recent (Query.prefix [ Value.Int64 3L ]))
            ~specs
        in
        ([ r ], p));
    read (l "latest net 1 dev 3") (fun () ->
        (Option.to_list (Table.latest t [ Value.Int64 1L; Value.Int64 3L ]), None));
    read (l "latest net 2") (fun () ->
        (Option.to_list (Table.latest t [ Value.Int64 2L ]), None))
  in
  let insert ~nets ~devs ~days ~at =
    Table.insert t
      (List.concat_map
         (fun net ->
           List.concat_map
             (fun dev ->
               List.map
                 (fun d ->
                   let ts =
                     Int64.add
                       (Int64.sub (Clock.now clock) (Int64.mul (Int64.of_int d) day))
                       (Int64.of_int ((net * 1_000) + dev + at))
                   in
                   row
                     ~bytes:(Int64.of_int ((net * 7919) + (dev * 104729) + d))
                     ~rate:(float_of_int (d + dev) /. 8.0)
                     (Int64.of_int net) (Int64.of_int dev) ts)
                 days)
             devs)
         nets)
  in
  let merge_fixpoint () =
    let fuel = ref 64 in
    while !fuel > 0 && Table.merge_step t do
      decr fuel
    done
  in
  let range a b = List.init (b - a + 1) (fun i -> a + i) in
  insert ~nets:[ 1; 2; 3 ] ~devs:(range 0 9) ~days:(range 1 40) ~at:0;
  Table.flush_all t;
  reads "flushed";
  merge_fixpoint ();
  reads "merged";
  Clock.advance clock (Int64.mul 10L day);
  merge_fixpoint ();
  reads "columnar, past ttl";
  insert ~nets:[ 1; 2; 3 ] ~devs:(range 0 4) ~days:[ 0 ] ~at:500;
  reads "memtables";
  Table.flush_all t;
  insert ~nets:[ 9 ] ~devs:(range 0 9) ~days:[ 0; 1 ] ~at:700;
  Table.flush_all t;
  insert ~nets:[ 2 ] ~devs:[ 1 ] ~days:[ 0 ] ~at:900;
  reads "network 9 tablet";
  (List.rev !lines, List.rev !latest_tablets)

(* Values taken from the engine before [query], [query_iter], [query_agg]
   and [latest] shared one tablet selection and one accounting record:
   for the same life every read returns the same rows and reports the
   same counters. The one allowed difference is that [latest] may
   reference fewer tablets, since it now skips tablets whose key span
   cannot hold the prefix (the network 9 tablet) or whose rows are all
   past the TTL cutoff. Since [latest] streams through the same source
   builder as the other reads, the columns it decompresses from columnar
   blocks count too: from the first [latest] that reads a columnar block
   on, [cols] in [stats=] is higher than the engine before reported, and
   no other field moved. *)
let golden_lines_sequential =
  [
    "flushed:query all rows=c7bcbafc55c1 prof=s1020/r900/t14/p1/h0/m52/f0/c0/n0 spans=[query/s1020/r900/t14/h0/m52] stats=ins1200/b1/ret900/scan1020/q1/fl15/flB33990/mg0/mgI0/mgO0/exp0/rty0/qt0/foot0/cols0/wr33990;ch0/cm52/ce0/cin46972/cres46972";
    "flushed:query net 2, 12 days rows=1f230eb655c3 prof=s130/r120/t7/p8/h10/m0/f0/c0/n0 spans=[query/s130/r120/t7/h10/m0] stats=ins1200/b1/ret1020/scan1150/q2/fl15/flB33990/mg0/mgI0/mgO0/exp0/rty0/qt0/foot0/cols0/wr33990;ch10/cm52/ce0/cin46972/cres46972";
    "flushed:query desc limit 7 rows=96f888a9967b prof=s8/r7/t14/p1/h14/m0/f0/c0/n0 spans=[query/s8/r7/t14/h14/m0] stats=ins1200/b1/ret1027/scan1158/q3/fl15/flB33990/mg0/mgI0/mgO0/exp0/rty0/qt0/foot0/cols0/wr33990;ch24/cm52/ce0/cin46972/cres46972";
    "flushed:query_iter net 1 rows=58e7d3693bb3 prof=- spans=[query/s340/r300/t10/h22/m0] stats=ins1200/b1/ret1327/scan1498/q4/fl15/flB33990/mg0/mgI0/mgO0/exp0/rty0/qt0/foot0/cols0/wr33990;ch46/cm52/ce0/cin46972/cres46972";
    "flushed:agg all rows=199491e4b300 prof=s1020/r1/t14/p1/h52/m0/f0/c0/n0 spans=[query/s1020/r1/t14/h52/m0] stats=ins1200/b1/ret1328/scan2518/q5/fl15/flB33990/mg0/mgI0/mgO0/exp0/rty0/qt0/foot0/cols0/wr33990;ch98/cm52/ce0/cin46972/cres46972";
    "flushed:agg net 3, ts window rows=63cb3ca97412 prof=s210/r1/t6/p9/h12/m0/f0/c0/n0 spans=[query/s210/r1/t6/h12/m0] stats=ins1200/b1/ret1329/scan2728/q6/fl15/flB33990/mg0/mgI0/mgO0/exp0/rty0/qt0/foot0/cols0/wr33990;ch110/cm52/ce0/cin46972/cres46972";
    "flushed:latest net 1 dev 3 rows=cdef3fae076f prof=- spans=[latest/s1/r1/t_/h1/m0] stats=ins1200/b1/ret1330/scan2729/q7/fl15/flB33990/mg0/mgI0/mgO0/exp0/rty0/qt0/foot0/cols0/wr33990;ch111/cm52/ce0/cin46972/cres46972";
    "flushed:latest net 2 rows=0d1ba4bb283e prof=- spans=[latest/s10/r1/t_/h1/m0] stats=ins1200/b1/ret1331/scan2739/q8/fl15/flB33990/mg0/mgI0/mgO0/exp0/rty0/qt0/foot0/cols0/wr33990;ch112/cm52/ce0/cin46972/cres46972";
    "merged:query all rows=c7bcbafc55c1 prof=s900/r900/t13/p0/h21/m37/f0/c74/n0 spans=[query/s900/r900/t13/h21/m37] stats=ins1200/b1/ret2231/scan3639/q9/fl15/flB33990/mg8/mgI25501/mgO18592/exp0/rty0/qt0/foot0/cols74/wr52582;ch164/cm103/ce0/cin66731/cres27539";
    "merged:query net 2, 12 days rows=1f230eb655c3 prof=s130/r120/t7/p6/h10/m0/f0/c0/n0 spans=[query/s130/r120/t7/h10/m0] stats=ins1200/b1/ret2351/scan3769/q10/fl15/flB33990/mg8/mgI25501/mgO18592/exp0/rty0/qt0/foot0/cols74/wr52582;ch174/cm103/ce0/cin66731/cres27539";
    "merged:query desc limit 7 rows=96f888a9967b prof=s8/r7/t13/p0/h13/m0/f0/c12/n0 spans=[query/s8/r7/t13/h13/m0] stats=ins1200/b1/ret2358/scan3777/q11/fl15/flB33990/mg8/mgI25501/mgO18592/exp0/rty0/qt0/foot0/cols86/wr52582;ch187/cm103/ce0/cin66731/cres27539";
    "merged:query_iter net 1 rows=58e7d3693bb3 prof=- spans=[query/s300/r300/t10/h23/m0] stats=ins1200/b1/ret2658/scan4077/q12/fl15/flB33990/mg8/mgI25501/mgO18592/exp0/rty0/qt0/foot0/cols112/wr52582;ch210/cm103/ce0/cin66731/cres27539";
    "merged:agg all rows=199491e4b300 prof=s900/r1/t13/p0/h58/m0/f0/c74/n0 spans=[query/s900/r1/t13/h58/m0] stats=ins1200/b1/ret2659/scan4977/q13/fl15/flB33990/mg8/mgI25501/mgO18592/exp0/rty0/qt0/foot0/cols186/wr52582;ch268/cm103/ce0/cin66731/cres27539";
    "merged:agg net 3, ts window rows=63cb3ca97412 prof=s210/r1/t6/p7/h16/m0/f0/c26/n0 spans=[query/s210/r1/t6/h16/m0] stats=ins1200/b1/ret2660/scan5187/q14/fl15/flB33990/mg8/mgI25501/mgO18592/exp0/rty0/qt0/foot0/cols212/wr52582;ch284/cm103/ce0/cin66731/cres27539";
    "merged:latest net 1 dev 3 rows=cdef3fae076f prof=- spans=[latest/s1/r1/t_/h1/m0] stats=ins1200/b1/ret2661/scan5188/q15/fl15/flB33990/mg8/mgI25501/mgO18592/exp0/rty0/qt0/foot0/cols212/wr52582;ch285/cm103/ce0/cin66731/cres27539";
    "merged:latest net 2 rows=0d1ba4bb283e prof=- spans=[latest/s10/r1/t_/h1/m0] stats=ins1200/b1/ret2662/scan5198/q16/fl15/flB33990/mg8/mgI25501/mgO18592/exp0/rty0/qt0/foot0/cols212/wr52582;ch286/cm103/ce0/cin66731/cres27539";
    "columnar, past ttl:query all rows=ee1b92400013 prof=s600/r600/t5/p3/h16/m26/f0/c84/n0 spans=[query/s600/r600/t5/h16/m26] stats=ins1200/b1/ret3262/scan5798/q17/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols296/wr63487;ch323/cm129/ce0/cin73915/cres16992";
    "columnar, past ttl:query net 2, 12 days rows=705402dcbfbc prof=s60/r20/t1/p7/h5/m0/f0/c10/n0 spans=[query/s60/r20/t1/h5/m0] stats=ins1200/b1/ret3282/scan5858/q18/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols306/wr63487;ch328/cm129/ce0/cin73915/cres16992";
    "columnar, past ttl:query desc limit 7 rows=96f888a9967b prof=s8/r7/t5/p3/h5/m0/f0/c10/n0 spans=[query/s8/r7/t5/h5/m0] stats=ins1200/b1/ret3289/scan5866/q19/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols316/wr63487;ch333/cm129/ce0/cin73915/cres16992";
    "columnar, past ttl:query_iter net 1 rows=2e05746b2ae6 prof=- spans=[query/s200/r200/t3/h15/m0] stats=ins1200/b1/ret3489/scan6066/q20/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols346/wr63487;ch348/cm129/ce0/cin73915/cres16992";
    "columnar, past ttl:agg all rows=b330016f6e35 prof=s600/r1/t5/p3/h42/m0/f0/c84/n0 spans=[query/s600/r1/t5/h42/m0] stats=ins1200/b1/ret3490/scan6666/q21/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols430/wr63487;ch390/cm129/ce0/cin73915/cres16992";
    "columnar, past ttl:agg net 3, ts window rows=e6a4767369ff prof=s195/r1/t4/p4/h15/m0/f0/c30/n0 spans=[query/s195/r1/t4/h15/m0] stats=ins1200/b1/ret3491/scan6861/q22/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols460/wr63487;ch405/cm129/ce0/cin73915/cres16992";
    "columnar, past ttl:latest net 1 dev 3 rows=cdef3fae076f prof=- spans=[latest/s1/r1/t_/h1/m0] stats=ins1200/b1/ret3492/scan6862/q23/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols462/wr63487;ch406/cm129/ce0/cin73915/cres16992";
    "columnar, past ttl:latest net 2 rows=0d1ba4bb283e prof=- spans=[latest/s60/r1/t_/h6/m0] stats=ins1200/b1/ret3493/scan6922/q24/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols474/wr63487;ch412/cm129/ce0/cin73915/cres16992";
    "memtables:query all rows=e7ea2a14dd8b prof=s615/r615/t5/p3/h42/m0/f0/c84/n0 spans=[query/s615/r615/t5/h42/m0] stats=ins1215/b2/ret4108/scan7537/q25/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols558/wr63487;ch454/cm129/ce0/cin73915/cres16992";
    "memtables:query net 2, 12 days rows=57aa4d50ae50 prof=s65/r25/t1/p7/h5/m0/f0/c10/n0 spans=[query/s65/r25/t1/h5/m0] stats=ins1215/b2/ret4133/scan7602/q26/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols568/wr63487;ch459/cm129/ce0/cin73915/cres16992";
    "memtables:query desc limit 7 rows=96f888a9967b prof=s8/r7/t5/p3/h5/m0/f0/c10/n0 spans=[query/s8/r7/t5/h5/m0] stats=ins1215/b2/ret4140/scan7610/q27/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols578/wr63487;ch464/cm129/ce0/cin73915/cres16992";
    "memtables:query_iter net 1 rows=7cf3ea6fe441 prof=- spans=[query/s205/r205/t3/h15/m0] stats=ins1215/b2/ret4345/scan7815/q28/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols608/wr63487;ch479/cm129/ce0/cin73915/cres16992";
    "memtables:agg all rows=d3ccf16d64bd prof=s615/r1/t5/p3/h42/m0/f0/c84/n0 spans=[query/s615/r1/t5/h42/m0] stats=ins1215/b2/ret4346/scan8430/q29/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols692/wr63487;ch521/cm129/ce0/cin73915/cres16992";
    "memtables:agg net 3, ts window rows=e6a4767369ff prof=s195/r1/t4/p4/h15/m0/f0/c30/n0 spans=[query/s195/r1/t4/h15/m0] stats=ins1215/b2/ret4347/scan8625/q30/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols722/wr63487;ch536/cm129/ce0/cin73915/cres16992";
    "memtables:latest net 1 dev 3 rows=826b0acf1a36 prof=- spans=[latest/s1/r1/t_/h0/m0] stats=ins1215/b2/ret4348/scan8626/q31/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols722/wr63487;ch536/cm129/ce0/cin73915/cres16992";
    "memtables:latest net 2 rows=4ff01e675a30 prof=- spans=[latest/s5/r1/t_/h0/m0] stats=ins1215/b2/ret4349/scan8631/q32/fl15/flB33990/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols722/wr63487;ch536/cm129/ce0/cin73915/cres16992";
    "network 9 tablet:query all rows=d0d5d5ea32ae prof=s636/r636/t8/p3/h42/m3/f0/c84/n0 spans=[query/s636/r636/t8/h42/m3] stats=ins1236/b4/ret4985/scan9267/q33/fl18/flB35424/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols806/wr64921;ch578/cm132/ce0/cin75528/cres18605";
    "network 9 tablet:query net 2, 12 days rows=6443be0114f7 prof=s66/r26/t2/p9/h6/m0/f0/c10/n0 spans=[query/s66/r26/t2/h6/m0] stats=ins1236/b4/ret5011/scan9333/q34/fl18/flB35424/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols816/wr64921;ch584/cm132/ce0/cin75528/cres18605";
    "network 9 tablet:query desc limit 7 rows=b467fa876dfc prof=s8/r7/t8/p3/h8/m0/f0/c10/n0 spans=[query/s8/r7/t8/h8/m0] stats=ins1236/b4/ret5018/scan9341/q35/fl18/flB35424/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols826/wr64921;ch592/cm132/ce0/cin75528/cres18605";
    "network 9 tablet:query_iter net 1 rows=7cf3ea6fe441 prof=- spans=[query/s205/r205/t4/h16/m0] stats=ins1236/b4/ret5223/scan9546/q36/fl18/flB35424/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols856/wr64921;ch608/cm132/ce0/cin75528/cres18605";
    "network 9 tablet:agg all rows=0a99d39a246c prof=s636/r1/t8/p3/h45/m0/f0/c84/n0 spans=[query/s636/r1/t8/h45/m0] stats=ins1236/b4/ret5224/scan10182/q37/fl18/flB35424/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols940/wr64921;ch653/cm132/ce0/cin75528/cres18605";
    "network 9 tablet:agg net 3, ts window rows=e6a4767369ff prof=s195/r1/t4/p7/h15/m0/f0/c30/n0 spans=[query/s195/r1/t4/h15/m0] stats=ins1236/b4/ret5225/scan10377/q38/fl18/flB35424/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols970/wr64921;ch668/cm132/ce0/cin75528/cres18605";
    "network 9 tablet:latest net 1 dev 3 rows=826b0acf1a36 prof=- spans=[latest/s1/r1/t_/h1/m0] stats=ins1236/b4/ret5226/scan10378/q39/fl18/flB35424/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols970/wr64921;ch669/cm132/ce0/cin75528/cres18605";
    "network 9 tablet:latest net 2 rows=62379fbe930b prof=- spans=[latest/s6/r1/t_/h1/m0] stats=ins1236/b4/ret5227/scan10384/q40/fl18/flB35424/mg10/mgI36984/mgO29497/exp0/rty0/qt0/foot0/cols970/wr64921;ch670/cm132/ce0/cin75528/cres18605";
  ]

let golden_latest_tablets =
  [
    ("flushed:latest net 1 dev 3", 15);
    ("flushed:latest net 2", 15);
    ("merged:latest net 1 dev 3", 13);
    ("merged:latest net 2", 13);
    ("columnar, past ttl:latest net 1 dev 3", 8);
    ("columnar, past ttl:latest net 2", 8);
    ("memtables:latest net 1 dev 3", 8);
    ("memtables:latest net 2", 8);
    ("network 9 tablet:latest net 1 dev 3", 11);
    ("network 9 tablet:latest net 2", 11);
  ]

let test_read_accounting_golden () =
  let lines, latest = accounting_transcript ~domains:0 in
  Alcotest.(check (list string)) "sequential transcript" golden_lines_sequential
    lines;
  let lines2, latest2 = accounting_transcript ~domains:2 in
  Alcotest.(check string) "parallel transcript digest"
    "caeb98b2f1bb80611bf7c24607245e35"
    (Digest.to_hex (Digest.string (String.concat "\n" lines2)));
  List.iter
    (fun got ->
      Alcotest.(check (list string)) "latest labels"
        (List.map fst golden_latest_tablets) (List.map fst got);
      List.iter2
        (fun (label, was) (_, now) ->
          if now > was then
            Alcotest.failf "%s: latest references %d tablets, was %d" label now
              was)
        golden_latest_tablets got;
      (* No clock moves between these phases, so the TTL prunes the same
         tablets in both: only key spans can keep the network 9 tablets
         out of a search for network 1. *)
      let added l =
        List.assoc "network 9 tablet:latest net 1 dev 3" l
        - List.assoc "memtables:latest net 1 dev 3" l
      in
      Alcotest.(check bool) "latest skips the network 9 tablets" true
        (added got < added golden_latest_tablets))
    [ latest; latest2 ]

let suite =
  [
    ("read accounting golden", `Quick, test_read_accounting_golden);
    ( "a scan's snapshot is unchanged by later inserts (pool worker)",
      `Quick,
      test_snapshot_unchanged_by_inserts );
    ( "failed scan releases its tablets (faulty pread)",
      `Quick,
      test_failed_scan_releases_tablets );
    ( "failed query_agg and latest close their reads (faulty pread)",
      `Quick,
      test_failed_agg_and_latest_close_their_reads );
    ( "latest counts the columns it decodes",
      `Quick,
      test_latest_counts_columns_decoded );
    ("flushed and merged tablets byte-identical", `Quick, test_tablets_byte_identical);
    ("insert + query (memtable only)", `Quick, test_insert_query_memtable_only);
    ("flush and query", `Quick, test_flush_and_query);
    ( "rows before an invalid row are counted and made durable by flush_all",
      `Quick,
      test_invalid_row_mid_batch );
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
    ("abandoned scan releases its tablets", `Quick, test_abandoned_scan_releases_tablets);
    ( "telemetry agrees after a failed flush commit",
      `Quick,
      test_telemetry_after_failed_commit );
    ("merge drops expired rows", `Quick, test_merge_drops_expired_rows);
    ("latest: full prefix", `Quick, test_latest_full_prefix);
    ("latest: respects ttl", `Quick, test_latest_respects_ttl);
    ("latest: searches far past", `Quick, test_latest_searches_far_past);
    ("schema evolution live", `Quick, test_schema_evolution_live);
    ("reopen from descriptor", `Quick, test_reopen_from_descriptor);
    ("flush by age", `Quick, test_flush_by_age);
    ("group commit shares flush rounds", `Quick, test_group_commit);
    ("out-of-order inserts bin correctly", `Quick, test_out_of_order_inserts_bin_correctly);
    ("drop and recreate", `Quick, test_drop_and_recreate_via_db);
    ("stats scan ratio", `Quick, test_stats_scan_ratio);
    ("concurrent readers vs maintenance", `Quick, test_concurrent_readers);
    Support.qcheck prop_matches_reference;
  ]
