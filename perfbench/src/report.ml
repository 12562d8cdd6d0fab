(* Metric names, units and the result line.

   The two lists below are the benchmark's contract with BENCHMARK.json:
   a run with tracing off prints exactly [end_to_end], a traced run
   exactly [per_layer]. A missing, duplicated, unknown or non-finite
   metric aborts the run instead of being dropped. *)

type metric = { name : string; value : float; unit_ : string }

let metric name value unit_ = { name; value; unit_ }

exception Bad_metric of string

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_p99_ms", "ms");
    ("ops_per_s", "1/s");
    ("rows_per_s", "1/s");
    ("write_amp", "ratio");
    ("space_amp", "ratio");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("client.encode_us_per_krow", "us/krow");
    ("client.rows_per_frame", "rows");
    ("net.insert_wait_us", "us");
    ("net.req_bytes_per_row", "B/row");
    ("net.query_wait_us", "us");
    ("net.pages_per_query", "pages");
    ("protocol.decode_ns_per_row", "ns/row");
    ("protocol.encode_ns_per_row", "ns/row");
    ("server.insert_busy_us_per_krow", "us/krow");
    ("server.query_busy_us", "us");
    ("server.latest_busy_us", "us");
    ("server.errors", "count");
    ("router.insert_self_us", "us");
    ("placement.shard_of_row_ns", "ns/row");
    ("router.query_self_us", "us");
    ("router.rows_fetched_per_returned", "ratio");
    ("router.fanout_per_query", "shards");
    ("router.straggler_ratio", "ratio");
    ("table.insert_ns_per_row", "ns/row");
    ("table.flush_ms", "ms");
    ("table.flush_retries", "count");
    ("table.merge_ms", "ms");
    ("table.scanned_per_returned", "ratio");
    ("table.tablets_pruned_frac", "frac");
    ("table.tablets_per_query", "tablets");
    ("table.footer_blocks_per_agg", "blocks");
    ("table.columns_decoded_per_agg", "sections");
    ("key_codec.encode_ns_per_row", "ns/row");
    ("row_codec.encode_ns_per_row", "ns/row");
    ("memtable.insert_ns_per_row", "ns/row");
    ("row_codec.decode_ns_per_row", "ns/row");
    ("tablet.write_ns_per_row", "ns/row");
    ("lz.compress_ns_per_kib", "ns/KiB");
    ("crc32c.ns_per_kib", "ns/KiB");
    ("bloom.add_ns_per_row", "ns/row");
    ("lz.ratio", "ratio");
    ("merge_policy.bytes_rewritten_per_user_byte", "ratio");
    ("tablet.scan_ns_per_row", "ns/row");
    ("block.decode_us_per_block", "us/block");
    ("lz.decompress_ns_per_kib", "ns/KiB");
    ("cursor.merge_ns_per_row", "ns/row");
    ("sql.parse_plan_us", "us");
    ("cache.hit_ratio", "ratio");
    ("cache.evictions_per_query", "count");
    ("vfs.fsyncs_per_flush", "count");
    ("vfs.model_disk_s_per_krow", "s/krow");
    ("vfs.model_seeks_per_query", "seeks");
    ("vfs.model_seeks_per_latest", "seeks");
    ("gc.minor_words_per_row", "words/row");
    ("gc.minor_words_per_query", "words");
    ("gc.major_collections", "count");
    ("bench.gen_late_p99_ms", "ms");
    ("bench.trace_overhead_pct", "%");
    ("bench.seam_share_pct", "%");
  ]

(* Check [metrics] against [expected] (names with units) and return them
   in [expected] order. *)
let validate ~expected metrics =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.name then
        raise (Bad_metric ("duplicate metric " ^ m.name));
      if not (List.mem_assoc m.name expected) then
        raise (Bad_metric ("unexpected metric " ^ m.name));
      if not (Float.is_finite m.value) then
        raise (Bad_metric (Printf.sprintf "metric %s is %f" m.name m.value));
      if List.assoc m.name expected <> m.unit_ then
        raise (Bad_metric ("wrong unit for " ^ m.name));
      Hashtbl.replace seen m.name m)
    metrics;
  List.map
    (fun (name, _) ->
      match Hashtbl.find_opt seen name with
      | Some m -> m
      | None -> raise (Bad_metric ("missing metric " ^ name)))
    expected

let json_number v = Printf.sprintf "%.17g" v

(* The last line of standard output: one JSON object. *)
let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)
