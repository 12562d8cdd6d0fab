(* Ablation: per-tablet Bloom filters for latest-row-for-prefix queries.

   §3.4.5 proposes storing "with each on-disk tablet a Bloom filter
   summarizing the tablet's keys, as in bLSM. This change would eliminate
   the need to check 99% of the tablets that do not contain any matching
   key at a storage cost of only 10 bits per row."

   Setup: one tablet per simulated week, each holding rows for a
   disjoint set of devices (a device appears in exactly one tablet, like
   a decommissioned client). Device ids interleave across weeks, so
   every tablet's key span covers every other's and key-span pruning
   alone cannot rule a tablet out. A latest-row query for such a device must,
   without filters, open a cursor on every tablet group walking
   backwards; with filters it touches only the one tablet whose filter
   passes (plus false positives). We run the same queries both ways and
   report modeled disk latency, seeks, and the per-tablet footer storage
   cost of the filters. *)

open Littletable
open Support

let weeks = 52

let devices_per_week = 256

let build ~bloom =
  let config =
    Config.make ~flush_size:max_int ~cache_bytes:0
      ~merge_delay:(Int64.mul 1000L Lt_util.Clock.day)
      ~bloom_bits_per_key:(if bloom then 10 else 0) ()
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
  let table = Db.create_table env.db "ab" schema ~ttl:None in
  let now = Lt_util.Clock.now env.clock in
  let pad_rng = Lt_util.Xorshift.create 17L in
  for week = 0 to weeks - 1 do
    let base = Int64.sub now (Int64.mul (Int64.of_int (weeks - week)) Lt_util.Clock.week) in
    let rows =
      List.init devices_per_week (fun d ->
          let device = Int64.of_int ((d * weeks) + week) in
          [|
            Value.Int64 1L;
            Value.Int64 device;
            Value.Timestamp (Int64.add base (Int64.of_int d));
            Value.Int64 device;
            (* Pad rows so each tablet spans several 64 kB blocks. *)
            Value.Blob (Lt_util.Xorshift.bytes pad_rng 512);
          |])
    in
    Table.insert table rows;
    Table.flush_all table
  done;
  (env, table)

let query_old_devices env table rng n =
  (* Warm the engine's footer caches so the measurement isolates the
     steady-state block reads the filters avoid: the oldest week's last
     device lies inside every tablet's key span, so its walk opens every
     reader. *)
  ignore
    (Table.latest table
       [ Value.Int64 1L; Value.Int64 (Int64.of_int ((devices_per_week - 1) * weeks)) ]);
  Disk_model.reset env.model;
  let t0 = wall () in
  for _ = 1 to n do
    (* Cold drive cache per query (the uncached dashboards this path
       serves); a device from one of the oldest five weeks is the worst
       case for the backwards walk. *)
    Disk_model.clear_cache env.model;
    let week = Lt_util.Xorshift.int rng 5 in
    let d = Lt_util.Xorshift.int rng devices_per_week in
    let device = Int64.of_int ((d * weeks) + week) in
    match Table.latest table [ Value.Int64 1L; Value.Int64 device ] with
    | Some _ -> ()
    | None -> failwith "ablation: device should exist"
  done;
  let cpu = wall () -. t0 in
  (Disk_model.elapsed_s env.model /. float_of_int n *. 1000.0,
   float_of_int (Disk_model.seeks env.model) /. float_of_int n,
   cpu /. float_of_int n *. 1000.0)

let run () =
  header "Ablation (§3.4.5): Bloom filters on latest-row-for-prefix queries";
  note "paper: filters should eliminate ~99%% of tablet checks at 10";
  note "bits/row. %d weekly tablets, device present in exactly one." weeks;
  let rng = Lt_util.Xorshift.create 31L in
  let results =
    List.map
      (fun bloom ->
        let env, table = build ~bloom in
        let disk_ms, seeks, cpu_ms = query_old_devices env table (Lt_util.Xorshift.copy rng) 20 in
        let size = Table.disk_size table in
        Db.close env.db;
        (bloom, disk_ms, seeks, cpu_ms, size))
      [ false; true ]
  in
  table_header
    [ ("bloom", 6); ("disk ms/query", 14); ("seeks/query", 12); ("cpu ms/query", 13);
      ("table size", 11) ];
  List.iter
    (fun (bloom, disk_ms, seeks, cpu_ms, size) ->
      Printf.printf "%-6s  %-14.1f  %-12.1f  %-13.2f  %-11s\n"
        (if bloom then "on" else "off")
        disk_ms seeks cpu_ms (human_bytes size))
    results;
  match results with
  | [ (_, off_ms, off_seeks, _, off_size); (_, on_ms, on_seeks, _, on_size) ] ->
      Printf.printf
        "\nfilters cut modeled latency %.0fx and seeks %.0fx for %.1f%% more storage\n"
        (off_ms /. on_ms) (off_seeks /. on_seeks)
        (float_of_int (on_size - off_size) /. float_of_int off_size *. 100.0)
  | _ -> ()
