(* Ablation: the process-wide block cache on repeated dashboard queries.

   The paper leans on the OS page cache: "the first row is returned in
   well under a second ... subsequent queries for the same data are
   served from cache" (§3.5, Figure 6 measures the uncached case). Our
   engine runs on a Vfs where the only page-cache stand-in is
   lib/cache's scan-resistant block cache; this ablation measures what
   it buys.

   Setup: a usage-style table spread over several weekly tablets. A
   dashboard working set of devices is queried over and over (rounds x
   devices), with the modeled drive cache dropped before every query —
   the worst case Figure 6 measures, where only the process cache can
   absorb the re-reads. With the cache off every round pays the full
   seek + transfer cost; with it on, only the first round misses.

   A second phase checks scan resistance end to end: one full-table
   scan (far larger than the cache) runs between hot rounds, and the
   hot set must still be served from memory afterwards; a miss on that
   round fails the run. *)

open Littletable
open Support

let weeks = 8

let devices_per_week = 384

let pad = 256

let hot_devices = 32

let build ?block_size ~cache_bytes () =
  let config =
    Config.make ?block_size ~flush_size:max_int
      ~merge_delay:(Int64.mul 1000L Lt_util.Clock.day)
      ~cache_bytes ()
  in
  let env = make_env ~config () in
  let schema =
    let col name ctype default = { Schema.name; ctype; default } in
    Schema.create
      ~columns:
        [
          col "network" Value.T_int64 (Value.Int64 0L);
          col "device" Value.T_int64 (Value.Int64 0L);
          col "ts" Value.T_timestamp (Value.Timestamp 0L);
          col "bytes" Value.T_int64 (Value.Int64 0L);
          col "pad" Value.T_blob (Value.Blob "");
        ]
      ~pkey:[ "network"; "device"; "ts" ]
  in
  let table = Db.create_table env.db "usage" schema ~ttl:None in
  let now = Lt_util.Clock.now env.clock in
  let pad_rng = Lt_util.Xorshift.create 23L in
  for week = 0 to weeks - 1 do
    let base =
      Int64.sub now (Int64.mul (Int64.of_int (weeks - week)) Lt_util.Clock.week)
    in
    let rows =
      List.init devices_per_week (fun d ->
          [|
            Value.Int64 1L;
            Value.Int64 (Int64.of_int d);
            Value.Timestamp (Int64.add base (Int64.of_int d));
            Value.Int64 (Int64.of_int (week + d));
            (* Incompressible pad so tablets span multiple blocks. *)
            Value.Blob (Lt_util.Xorshift.bytes pad_rng pad);
          |])
    in
    Table.insert table rows;
    Table.flush_all table
  done;
  (env, table)

(* The dashboard working set: every device appears in every weekly
   tablet, so one prefix query touches blocks of all [weeks] tablets. *)
let hot_query table device =
  let q = Query.prefix [ Value.Int64 1L; Value.Int64 (Int64.of_int device) ] in
  let r = Table.query table q in
  if List.length r.Table.rows <> weeks then failwith "ablation: bad row count"

let run_rounds env table ~rounds =
  Disk_model.reset env.model;
  let t0 = wall () in
  for _ = 1 to rounds do
    for d = 0 to hot_devices - 1 do
      (* Cold drive cache per query: only the process cache can help. *)
      Disk_model.clear_cache env.model;
      hot_query table d
    done
  done;
  let cpu = wall () -. t0 in
  let n = float_of_int (rounds * hot_devices) in
  ( Disk_model.elapsed_s env.model /. n *. 1000.0,
    float_of_int (Disk_model.seeks env.model) /. n,
    Disk_model.bytes_read env.model,
    cpu /. n *. 1000.0 )

let hit_ratio db =
  match Db.block_cache db with
  | None -> 0.0
  | Some c ->
      let k = Lt_cache.Block_cache.counters c in
      let total = k.Lt_cache.Block_cache.hits + k.Lt_cache.Block_cache.misses in
      if total = 0 then 0.0
      else float_of_int k.Lt_cache.Block_cache.hits /. float_of_int total

let scan_resistance_check env table =
  (* Warm + promote the hot set, scan the world, re-query hot. *)
  for _ = 1 to 2 do
    for d = 0 to hot_devices - 1 do
      Disk_model.clear_cache env.model;
      hot_query table d
    done
  done;
  let cache = Option.get (Db.block_cache env.db) in
  Disk_model.clear_cache env.model;
  let scanned = List.length (Table.query table Query.all).Table.rows in
  let before = Lt_cache.Block_cache.counters cache in
  for d = 0 to hot_devices - 1 do
    Disk_model.clear_cache env.model;
    hot_query table d
  done;
  let after = Lt_cache.Block_cache.counters cache in
  let new_misses =
    after.Lt_cache.Block_cache.misses - before.Lt_cache.Block_cache.misses
  in
  (scanned, before.Lt_cache.Block_cache.evictions, new_misses)

let run ?(quick = true) () =
  header "Ablation: scan-resistant block cache on repeated queries";
  note "dashboard working set of %d devices x %d weekly tablets," hot_devices weeks;
  note "drive cache dropped before every query (the Figure 6 cold case).";
  let rounds = if quick then 6 else 20 in
  let cache_capacity = 8 * mib in
  let results =
    List.map
      (fun cache_bytes ->
        let env, table = build ~cache_bytes () in
        (* One pass to open readers and load footers, so the measured
           rounds isolate data-block reads. *)
        for d = 0 to hot_devices - 1 do
          hot_query table d
        done;
        (match Db.block_cache env.db with
        | Some c -> Lt_cache.Block_cache.reset_counters c
        | None -> ());
        let disk_ms, seeks, bytes_read, cpu_ms = run_rounds env table ~rounds in
        let hits = hit_ratio env.db in
        Db.close env.db;
        (cache_bytes, disk_ms, seeks, bytes_read, cpu_ms, hits))
      [ 0; cache_capacity ]
  in
  table_header
    [ ("cache", 8); ("disk ms/query", 14); ("seeks/query", 12);
      ("disk read", 10); ("cpu ms/query", 13); ("hit ratio", 9) ];
  List.iter
    (fun (cache_bytes, disk_ms, seeks, bytes_read, cpu_ms, hits) ->
      Printf.printf "%-8s  %-14.2f  %-12.2f  %-10s  %-13.3f  %-9s\n"
        (if cache_bytes = 0 then "off" else human_bytes cache_bytes)
        disk_ms seeks
        (human_bytes bytes_read)
        cpu_ms
        (if cache_bytes = 0 then "-" else Printf.sprintf "%.0f%%" (hits *. 100.0)))
    results;
  (match results with
  | [ (_, off_ms, off_seeks, off_read, _, _); (_, on_ms, on_seeks, on_read, _, _) ]
    ->
      if on_seeks = 0.0 && on_read = 0 then
        Printf.printf
          "\ncache absorbs every repeated read: %.1f seeks and %.1f ms of disk\n\
           per query down to zero (%s read off-cache vs none on)\n"
          off_seeks off_ms (human_bytes off_read)
      else
        Printf.printf
          "\ncache cuts modeled seeks %.1fx, disk latency %.1fx, bytes read %.1fx\n"
          (off_seeks /. Float.max on_seeks 1e-9)
          (off_ms /. Float.max on_ms 1e-9)
          (float_of_int off_read /. Float.max (float_of_int on_read) 1.0)
  | _ -> ());
  (* Scan resistance, end to end: small blocks and a cache well under
     the table size, so the scan must churn it. *)
  let env, table = build ~block_size:8192 ~cache_bytes:(384 * 1024) () in
  let scanned, scan_evictions, new_misses = scan_resistance_check env table in
  Db.close env.db;
  note "";
  note "scan resistance: a %d-row whole-table scan (%d cache evictions)" scanned
    scan_evictions;
  note "left the hot set resident: %d misses on the next hot round%s" new_misses
    (if new_misses = 0 then " (perfect)" else "");
  (* The SLRU's guarantee, end to end: a hot set inside the protected
     segment survives a one-pass scan, so the next round misses nothing. *)
  if new_misses > 0 then
    failwith
      (Printf.sprintf
         "ablation-cache: the whole-table scan evicted hot blocks (%d misses \
          on the next hot round)"
         new_misses)
