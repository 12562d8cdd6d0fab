(* Block-cache tests: SLRU mechanics in isolation, then the cache wired
   through the engine — invalidation on merge, crash-reopen equivalence
   with the cache on vs off, and scan resistance at table level. *)

open Littletable
open Lt_util
module Bcache = Lt_cache.Block_cache

(* ------------------------------------------------------------------ *)
(* Unit: SLRU mechanics                                               *)
(* ------------------------------------------------------------------ *)

let present c ~file ~block =
  (* Peeks via find; in these tests the recency side effect is intended
     or irrelevant. *)
  Bcache.find c ~file ~block <> None

let test_eviction_order () =
  let c = Bcache.create ~capacity:30 () in
  let f = Bcache.file_id c in
  for b = 0 to 2 do
    Bcache.insert c ~file:f ~block:b ~bytes:10 b
  done;
  Alcotest.(check int) "fits exactly" 30 (Bcache.counters c).Bcache.resident_bytes;
  (* One more evicts the probation LRU: block 0, the coldest. *)
  Bcache.insert c ~file:f ~block:3 ~bytes:10 3;
  Alcotest.(check int) "one eviction" 1 (Bcache.counters c).Bcache.evictions;
  Alcotest.(check bool) "LRU gone" false (present c ~file:f ~block:0);
  (* Touch block 1: the hit promotes it to the protected segment. *)
  Alcotest.(check bool) "block 1 resident" true (present c ~file:f ~block:1);
  (* Two more one-touch inserts churn probation around it, evicting the
     probation LRUs 2 then 3, never the protected 1. *)
  Bcache.insert c ~file:f ~block:4 ~bytes:10 4;
  Bcache.insert c ~file:f ~block:5 ~bytes:10 5;
  Alcotest.(check bool) "cold 2 evicted" false (present c ~file:f ~block:2);
  Alcotest.(check bool) "cold 3 evicted" false (present c ~file:f ~block:3);
  Alcotest.(check bool) "promoted 1 survives" true (present c ~file:f ~block:1);
  Alcotest.(check bool) "fresh 4 resident" true (present c ~file:f ~block:4);
  Alcotest.(check bool) "fresh 5 resident" true (present c ~file:f ~block:5);
  Alcotest.(check int) "evictions: 0, 2, 3" 3 (Bcache.counters c).Bcache.evictions

let test_capacity_accounting () =
  let c = Bcache.create ~capacity:100 () in
  let f = Bcache.file_id c in
  for b = 0 to 9 do
    Bcache.insert c ~file:f ~block:b ~bytes:17 b
  done;
  let k = Bcache.counters c in
  Alcotest.(check int) "insertions" 10 k.Bcache.insertions;
  Alcotest.(check int) "inserted bytes" 170 k.Bcache.inserted_bytes;
  Alcotest.(check bool) "bounded" true (k.Bcache.resident_bytes <= 100);
  Alcotest.(check int) "residents weigh 17"
    (k.Bcache.resident_entries * 17) k.Bcache.resident_bytes;
  Alcotest.(check int) "evicted the rest"
    (10 - k.Bcache.resident_entries) k.Bcache.evictions;
  (* Re-inserting a resident key counts nothing. *)
  Bcache.insert c ~file:f ~block:9 ~bytes:17 9;
  Alcotest.(check int) "no double count" 10 (Bcache.counters c).Bcache.insertions;
  Bcache.clear c;
  let k = Bcache.counters c in
  Alcotest.(check int) "clear empties" 0 k.Bcache.resident_bytes;
  Alcotest.(check int) "clear empties entries" 0 k.Bcache.resident_entries;
  Alcotest.(check int) "counters survive clear" 10 k.Bcache.insertions

let test_scan_resistance_unit () =
  let c = Bcache.create ~capacity:100 () in
  let hot = Bcache.file_id c and scan = Bcache.file_id c in
  (* Establish a hot set: insert, then touch once to promote. *)
  Bcache.insert c ~file:hot ~block:0 ~bytes:20 0;
  Bcache.insert c ~file:hot ~block:1 ~bytes:20 1;
  Alcotest.(check bool) "hot 0" true (present c ~file:hot ~block:0);
  Alcotest.(check bool) "hot 1" true (present c ~file:hot ~block:1);
  (* A one-pass scan of 3x capacity: every block touched exactly once. *)
  for b = 0 to 14 do
    Bcache.insert c ~file:scan ~block:b ~bytes:20 b
  done;
  Alcotest.(check bool) "hot 0 survives scan" true (present c ~file:hot ~block:0);
  Alcotest.(check bool) "hot 1 survives scan" true (present c ~file:hot ~block:1);
  (* The scan churned only itself. *)
  let k = Bcache.counters c in
  Alcotest.(check bool) "scan evicted scan blocks" true (k.Bcache.evictions >= 12)

(* The protected segment is 80% of the whole capacity: a hot set of
   60-75% of it, spread over several files, survives a one-pass scan of
   3x capacity without losing a block. (A cache split into hash shards,
   each with its own SLRU, loses the blocks that hash unevenly into a
   shard's smaller protected segment.) *)
let test_hot_set_survives_scan () =
  let weight = 1000 and blocks = 100 in
  let capacity = blocks * weight in
  List.iter
    (fun pct ->
      let c = Bcache.create ~capacity () in
      let files = Array.init 4 (fun _ -> Bcache.file_id c) in
      let hot = List.init (blocks * pct / 100) (fun i -> (files.(i mod 4), i / 4)) in
      List.iter (fun (file, block) -> Bcache.insert c ~file ~block ~bytes:weight 0) hot;
      (* A second touch promotes each hot block to the protected segment. *)
      List.iter (fun (file, block) -> ignore (Bcache.find c ~file ~block)) hot;
      let scan = Bcache.file_id c in
      for b = 0 to (3 * blocks) - 1 do
        Bcache.insert c ~file:scan ~block:b ~bytes:weight 1
      done;
      let lost =
        List.length (List.filter (fun (file, block) -> not (present c ~file ~block)) hot)
      in
      Alcotest.(check int) (Printf.sprintf "hot set at %d%%: none lost" pct) 0 lost;
      Alcotest.(check bool) "the scan overflowed the cache" true
        ((Bcache.counters c).Bcache.evictions >= 2 * blocks))
    [ 60; 70; 75 ]

let test_invalidate_file () =
  let c = Bcache.create ~capacity:10_000 () in
  let a = Bcache.file_id c and b = Bcache.file_id c in
  for blk = 0 to 4 do
    Bcache.insert c ~file:a ~block:blk ~bytes:10 blk;
    Bcache.insert c ~file:b ~block:blk ~bytes:10 (100 + blk)
  done;
  Bcache.invalidate_file c ~file:a;
  for blk = 0 to 4 do
    Alcotest.(check bool) "a gone" false (present c ~file:a ~block:blk);
    Alcotest.(check bool) "b stays" true (present c ~file:b ~block:blk)
  done;
  let k = Bcache.counters c in
  Alcotest.(check int) "five left" 5 k.Bcache.resident_entries;
  Alcotest.(check int) "bytes adjusted" 50 k.Bcache.resident_bytes;
  Alcotest.(check int) "not counted as evictions" 0 k.Bcache.evictions

let test_file_ids_fresh () =
  let c = Bcache.create ~capacity:100 () in
  let a = Bcache.file_id c and b = Bcache.file_id c and d = Bcache.file_id c in
  Alcotest.(check bool) "distinct" true (a <> b && b <> d && a <> d)

(* ------------------------------------------------------------------ *)
(* Engine integration                                                  *)
(* ------------------------------------------------------------------ *)

let cached_config ?(cache_bytes = 4 * 1024 * 1024) () =
  Config.make ~block_size:1024 ~flush_size:(8 * 1024)
    ~max_tablet_size:(64 * 1024) ~merge_delay:0L ~rollover_spread:0.0
    ~server_row_limit:10_000 ~cache_bytes ()

let row net dev ts = Support.usage_row ~network:net ~device:dev ~ts ~bytes:ts ~rate:0.0

let all_rows t = (Table.query t Query.all).Table.rows

let test_invalidation_on_merge () =
  let db, _, _, t =
    let config = cached_config () in
    let db, clock, vfs = Support.fresh_db ~config () in
    (db, clock, vfs, Db.create_table db "usage" (Support.usage_schema ()) ~ttl:None)
  in
  let cache = Option.get (Db.block_cache db) in
  (* Several flushed tablets over the same period bin. *)
  for batch = 0 to 4 do
    Table.insert t
      (List.init 100 (fun i ->
           row 1L (Int64.of_int ((batch * 100) + i)) (Int64.of_int ((batch * 100) + i))));
    Table.flush_all t
  done;
  Alcotest.(check bool) "several tablets" true (Table.tablet_count t > 1);
  let before = all_rows t in
  Alcotest.(check bool) "cache populated" true
    ((Bcache.counters cache).Bcache.resident_entries > 0);
  while Table.merge_step t do () done;
  (* Merging read the sources through the cache, then deleted them; every
     cached block belonged to a deleted file, so the cache must be empty
     until the merged tablet is read. *)
  Alcotest.(check int) "stale blocks invalidated" 0
    (Bcache.counters cache).Bcache.resident_entries;
  Alcotest.(check int) "merged down" 1 (Table.tablet_count t);
  Alcotest.(check bool) "identical rows after merge" true (before = all_rows t);
  Alcotest.(check bool) "identical rows again (warm)" true (before = all_rows t)

let test_invalidation_on_expiry () =
  let config = cached_config () in
  let db, clock, _ = Support.fresh_db ~config () in
  let ttl = Clock.week in
  let t = Db.create_table db "usage" (Support.usage_schema ()) ~ttl:(Some ttl) in
  let now = Clock.now clock in
  Table.insert t (List.init 50 (fun i -> row 1L (Int64.of_int i) (Int64.add now (Int64.of_int i))));
  Table.flush_all t;
  ignore (all_rows t);
  let cache = Option.get (Db.block_cache db) in
  Alcotest.(check bool) "cache warm" true
    ((Bcache.counters cache).Bcache.resident_entries > 0);
  Clock.advance clock (Int64.mul 3L Clock.week);
  Alcotest.(check bool) "expired" true (Table.expire t > 0);
  Alcotest.(check int) "expired tablet's blocks invalidated" 0
    (Bcache.counters cache).Bcache.resident_entries;
  Alcotest.(check int) "no rows served" 0 (List.length (all_rows t))

(* The same workload, crash, and reopen must read back identically with
   the cache on and off. *)
let test_crash_reopen_equivalence () =
  let run ~cache_bytes =
    let config =
      Config.make ~block_size:1024 ~flush_size:(4 * 1024) ~merge_delay:0L
        ~rollover_spread:0.0 ~enforce_unique:false ~cache_bytes ()
    in
    let db, clock, vfs = Support.fresh_db ~config () in
    let t = Db.create_table db "usage" (Support.usage_schema ()) ~ttl:None in
    let now = Clock.now clock in
    for i = 0 to 99 do
      Table.insert_row t (row 1L (Int64.of_int i) (Int64.add now (Int64.of_int i)))
    done;
    Table.flush_all t;
    (* Warm the cache (a no-op when disabled), then more unflushed rows. *)
    ignore (all_rows t);
    for i = 100 to 120 do
      Table.insert_row t (row 1L (Int64.of_int i) (Int64.add now (Int64.of_int i)))
    done;
    Lt_vfs.Vfs.crash vfs;
    let db2 = Db.open_ ~config ~clock ~vfs ~dir:"dbroot" () in
    let t2 = Db.table db2 "usage" in
    (* Twice: once cold (populating the cache) and once warm (served from
       it) — both must agree. *)
    let cold = all_rows t2 in
    let warm = all_rows t2 in
    Db.close db2;
    (cold, warm)
  in
  let cached_cold, cached_warm = run ~cache_bytes:(1024 * 1024) in
  let plain_cold, plain_warm = run ~cache_bytes:0 in
  Alcotest.(check int) "flushed prefix survives" 100 (List.length plain_cold);
  Alcotest.(check bool) "cache-off deterministic" true (plain_cold = plain_warm);
  Alcotest.(check bool) "cold reads agree" true (cached_cold = plain_cold);
  Alcotest.(check bool) "warm reads agree" true (cached_warm = plain_cold)

(* A whole-tablet scan must not displace the established hot set: the
   hot block lives in the protected segment, the scan churns probation. *)
let test_table_scan_resistance () =
  let config =
    Config.make ~block_size:1024 ~flush_size:max_int ~merge_delay:0L
      ~rollover_spread:0.0 ~server_row_limit:100_000
      ~cache_bytes:(64 * 1024) ()
  in
  let db, _, _ = Support.fresh_db ~config () in
  let t = Db.create_table db "usage" (Support.usage_schema ()) ~ttl:None in
  (* ~8000 rows -> a few hundred KB of blocks, several times the 64 KB
     cache; the hot query touches only a block or two, which fit in the
     protected segments comfortably. *)
  Table.insert t (List.init 8000 (fun i -> row 1L (Int64.of_int i) (Int64.of_int i)));
  Table.flush_all t;
  Alcotest.(check int) "one tablet" 1 (Table.tablet_count t);
  let cache = Option.get (Db.block_cache db) in
  let hot = Query.prefix [ Value.Int64 1L; Value.Int64 999L ] in
  let run_hot () =
    Alcotest.(check int) "hot row found" 1 (List.length (Table.query t hot).Table.rows)
  in
  (* Twice: first loads the block into probation, second promotes it. *)
  run_hot ();
  run_hot ();
  (* One pass over the whole tablet, far larger than the cache. *)
  Alcotest.(check int) "full scan" 8000 (List.length (all_rows t));
  let before = Bcache.counters cache in
  Alcotest.(check bool) "scan overflowed the cache" true
    (before.Bcache.evictions > 0);
  run_hot ();
  let after = Bcache.counters cache in
  Alcotest.(check int) "hot block still resident: no new misses"
    before.Bcache.misses after.Bcache.misses;
  Alcotest.(check bool) "hot query served from cache" true
    (after.Bcache.hits > before.Bcache.hits)

(* Cache counters survive the stats view on the wire: exported as
   series, carried in a metrics snapshot, read back by [of_metrics]. *)
let test_stats_protocol_roundtrip () =
  let stats = Stats.create () in
  Stats.note stats
    (Stats.of_op Lt_obs.Trace.Query
       { Lt_obs.Profile.empty with p_rows_scanned = 7; p_rows_returned = 3 });
  let cache =
    {
      Stats.cache_hits = 11;
      cache_misses = 5;
      cache_evictions = 2;
      cache_inserted_bytes = 123_456;
      cache_resident_bytes = 65_536;
    }
  in
  let snap = Stats.read ~cache stats in
  let registry = Lt_obs.Metrics.create_registry () in
  Lt_obs.Metrics.register_collector registry (fun () ->
      Stats.samples ~table:"t" snap @ Stats.cache_samples cache);
  let b = Buffer.create 64 in
  Lt_net.Protocol.write_response b
    (Lt_net.Protocol.Metrics_snapshot (Lt_obs.Metrics.snapshot registry));
  let cur = Lt_util.Binio.cursor (Buffer.contents b) in
  (match Lt_net.Protocol.read_response cur with
  | Lt_net.Protocol.Metrics_snapshot m ->
      let got =
        match Stats.of_metrics ~table:"t" m with
        | Ok got -> got
        | Error msg -> Alcotest.fail msg
      in
      Alcotest.(check bool) "roundtrips" true (got = snap);
      Alcotest.(check bool) "hit ratio" true
        (abs_float (Stats.cache_hit_ratio got -. 11.0 /. 16.0) < 1e-9)
  | _ -> Alcotest.fail "wrong response");
  let zeroed = Stats.read (Stats.create ()) in
  Alcotest.(check bool) "fresh counters read zero" true (zeroed = Stats.zero);
  Alcotest.(check bool) "fresh counters leave cache default" true
    (zeroed.Stats.cache = Stats.no_cache)

let suite =
  [
    Alcotest.test_case "slru: eviction order" `Quick test_eviction_order;
    Alcotest.test_case "slru: capacity accounting" `Quick test_capacity_accounting;
    Alcotest.test_case "slru: scan resistance" `Quick test_scan_resistance_unit;
    Alcotest.test_case "slru: hot set survives a 3x scan" `Quick test_hot_set_survives_scan;
    Alcotest.test_case "slru: invalidate file" `Quick test_invalidate_file;
    Alcotest.test_case "slru: fresh file ids" `Quick test_file_ids_fresh;
    Alcotest.test_case "engine: invalidation on merge" `Quick test_invalidation_on_merge;
    Alcotest.test_case "engine: invalidation on expiry" `Quick test_invalidation_on_expiry;
    Alcotest.test_case "engine: crash reopen equivalence" `Quick test_crash_reopen_equivalence;
    Alcotest.test_case "engine: scan resistance" `Quick test_table_scan_resistance;
    Alcotest.test_case "stats: protocol roundtrip + reset" `Quick test_stats_protocol_roundtrip;
  ]
