(* Ablation: parallel tablet scans over a multi-spindle modeled disk.

   §3.5's full-table scans pay one pass over every live tablet. The
   sequential path interleaves the k-way merge's reads across all
   tablets from a single issuer, so on the modeled disk every tablet
   switch is a seek and the device runs one request at a time. With
   query_domains > 0 each tablet is drained by a pool worker on its own
   issuing channel: per-tablet reads stay sequential, and tablets that
   landed on distinct spindles transfer concurrently, so modeled disk
   time becomes the makespan instead of the sum.

   Setup: [tablets] 1 KiB-row tablets (random keys, so every tablet
   participates in the merge throughout) on an 8-spindle model, block
   cache off and the drive cache dropped before each scan — every run
   pays full modeled I/O. Each domain count rebuilds an identical
   database from the same seed; an FNV-1a hash over the merged
   (key, payload-length) stream proves parallel results byte-identical
   to sequential before any throughput number is reported.

   A second phase rebuilds each database with the default block cache,
   warms it with one scan, and measures one more scan that the worker
   domains serve from the cache, so they take the cache lock
   concurrently; its digest must equal the sequential one too. Its
   rows/s is printed without a speed gate. *)

open Littletable
open Support

let tablets = 16

let spindles = 8

let row_size = 1024

let build ~cached ~domains ~rows_per_tablet =
  let config =
    Config.make ~query_domains:domains
      ?cache_bytes:(if cached then None else Some 0)
      ~flush_size:max_int
      ~merge_delay:(Int64.mul 1000L Lt_util.Clock.day)
      ()
  in
  (* Modest readahead: the sequential interleave then pays a seek per
     tablet switch, as a real drive would between k cold streams. *)
  let env = make_env ~config ~readahead:(16 * 1024) ~spindles () in
  let table = Db.create_table env.db "scan" (row_schema ()) ~ttl:None in
  let rng = Lt_util.Xorshift.create 0x9a8a11e1L in
  for _ = 1 to tablets do
    Table.insert table
      (make_batch rng ~clock:env.clock ~n:rows_per_tablet ~row_size);
    Table.flush_all table;
    Lt_util.Clock.advance env.clock (Lt_util.Clock.sec rows_per_tablet)
  done;
  (env, table)

(* FNV-1a over the merged stream: order-sensitive, so any reordering or
   dropped/torn row between the sequential and parallel paths changes
   the digest. *)
let fnv_prime = 0x100000001b3L

let fnv_add h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) fnv_prime)
    s;
  !h

let scan_digest table =
  let src = Table.query_iter table Query.all in
  let h = ref 0xcbf29ce484222325L in
  let rows = ref 0 in
  let rec go () =
    match src () with
    | Some (key, row) ->
        incr rows;
        h := fnv_add !h key;
        (match row.(Array.length row - 1) with
        | Value.Blob b ->
            h :=
              Int64.mul
                (Int64.logxor !h (Int64.of_int (String.length b)))
                fnv_prime
        | _ -> ());
        go ()
    | None -> ()
  in
  go ();
  (!h, !rows)

let run ?(quick = true) () =
  header "Ablation: parallel tablet scans (query_domains sweep)";
  let rows_per_tablet = if quick then 512 else 4096 in
  let volume = tablets * rows_per_tablet * row_size in
  note "%d tablets x %d rows of %d B (%s) on %d modeled spindles," tablets
    rows_per_tablet row_size (human_bytes volume) spindles;
  note "block cache off, drive cache dropped before every scan.";
  (* One warm scan (readers open, footers loaded; with the cache on,
     every block cached), then one measured scan: with the cache off
     the drive cache is dropped first, so it pays full data I/O. *)
  let sweep ~cached =
    List.map
      (fun domains ->
        let env, table = build ~cached ~domains ~rows_per_tablet in
        ignore (scan_digest table);
        if not cached then Disk_model.clear_cache env.model;
        let digest = ref 0L and rows = ref 0 in
        let m =
          measure env ~bytes:volume (fun () ->
              let h, n = scan_digest table in
              digest := h;
              rows := n)
        in
        Db.close env.db;
        (domains, m, !digest, !rows))
      [ 0; 1; 2; 4; 8 ]
  in
  let results = sweep ~cached:false in
  let _, _, digest0, rows0 = List.hd results in
  let check_equal phase =
    List.iter (fun (domains, _, digest, rows) ->
        if digest <> digest0 || rows <> rows0 then
          failwith
            (Printf.sprintf
               "ablation-parallel: %s query_domains=%d diverged from \
                sequential (rows %d vs %d, digest %Lx vs %Lx)"
               phase domains rows rows0 digest digest0))
  in
  check_equal "cache off," results;
  metric ~name:"parallel_equality_ok" ~value:1.0 ~unit:"bool";
  table_header
    [ ("domains", 8); ("cpu s", 8); ("disk s", 8); ("rows/s", 10);
      ("MB/s", 8); ("speedup", 8) ];
  let throughput m = float_of_int rows0 /. Float.max m.cpu_s m.disk_s in
  let base = throughput (let _, m, _, _ = List.hd results in m) in
  List.iter
    (fun (domains, m, _, _) ->
      let rps = throughput m in
      Printf.printf "%-8d  %-8.3f  %-8.3f  %-10.0f  %-8.1f  %-8s\n" domains
        m.cpu_s m.disk_s rps (effective_mb_s m)
        (if domains = 0 then "1.0x"
         else Printf.sprintf "%.1fx" (rps /. base));
      metric
        ~name:(Printf.sprintf "scan_rows_per_s_domains_%d" domains)
        ~value:rps ~unit:"rows/s")
    results;
  (match List.find_opt (fun (d, _, _, _) -> d = 4) results with
  | Some (_, m, _, _) ->
      let speedup = throughput m /. base in
      metric ~name:"parallel_speedup_4_domains" ~value:speedup ~unit:"x";
      note "";
      note "query_domains=4 scans %.1fx faster than the sequential path."
        speedup
  | None -> ());
  let cached = sweep ~cached:true in
  check_equal "cache on," cached;
  metric ~name:"parallel_cached_equality_ok" ~value:1.0 ~unit:"bool";
  note "";
  note "Default block cache, one warm scan, then a scan served from the cache:";
  table_header [ ("domains", 8); ("cpu s", 8); ("rows/s", 10) ];
  List.iter
    (fun (domains, m, _, _) ->
      let rps = throughput m in
      Printf.printf "%-8d  %-8.3f  %-10.0f\n" domains m.cpu_s rps;
      metric
        ~name:(Printf.sprintf "cached_scan_rows_per_s_domains_%d" domains)
        ~value:rps ~unit:"rows/s")
    cached
