type t = {
  (* One private lock per counter block: [note_*] callers already hold
     assorted table locks, but [read] and [reset] run from exporter and
     bench threads that hold none of them. The mutex is uncontended on
     the hot path and makes snapshots coherent instead of merely
     field-wise monotonic. *)
  m : Mutex.t;
  mutable rows_inserted : int;
  mutable insert_batches : int;
  mutable rows_returned : int;
  mutable rows_scanned : int;
  mutable queries : int;
  mutable flushes : int;
  mutable flushed_bytes : int;
  mutable merges : int;
  mutable merged_bytes_in : int;
  mutable merged_bytes_out : int;
  mutable tablets_expired : int;
  mutable flush_retries : int;
  mutable tablets_quarantined : int;
  mutable blocks_footer_answered : int;
  mutable columns_decoded : int;
}

type cache_snapshot = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_inserted_bytes : int;
  cache_resident_bytes : int;
}

let no_cache =
  {
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
    cache_inserted_bytes = 0;
    cache_resident_bytes = 0;
  }

type snapshot = {
  rows_inserted : int;
  insert_batches : int;
  rows_returned : int;
  rows_scanned : int;
  queries : int;
  flushes : int;
  flushed_bytes : int;
  merges : int;
  merged_bytes_in : int;
  merged_bytes_out : int;
  tablets_expired : int;
  flush_retries : int;
  tablets_quarantined : int;
  blocks_footer_answered : int;
  columns_decoded : int;
  bytes_written : int;
  cache : cache_snapshot;
}

let create () =
  {
    m = Mutex.create ();
    rows_inserted = 0;
    insert_batches = 0;
    rows_returned = 0;
    rows_scanned = 0;
    queries = 0;
    flushes = 0;
    flushed_bytes = 0;
    merges = 0;
    merged_bytes_in = 0;
    merged_bytes_out = 0;
    tablets_expired = 0;
    flush_retries = 0;
    tablets_quarantined = 0;
    blocks_footer_answered = 0;
    columns_decoded = 0;
  }

let reset (t : t) =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.rows_inserted <- 0;
      t.insert_batches <- 0;
      t.rows_returned <- 0;
      t.rows_scanned <- 0;
      t.queries <- 0;
      t.flushes <- 0;
      t.flushed_bytes <- 0;
      t.merges <- 0;
      t.merged_bytes_in <- 0;
      t.merged_bytes_out <- 0;
      t.tablets_expired <- 0;
      t.flush_retries <- 0;
      t.tablets_quarantined <- 0;
      t.blocks_footer_answered <- 0;
      t.columns_decoded <- 0)

let read ?(cache = no_cache) (t : t) =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      {
        rows_inserted = t.rows_inserted;
        insert_batches = t.insert_batches;
        rows_returned = t.rows_returned;
        rows_scanned = t.rows_scanned;
        queries = t.queries;
        flushes = t.flushes;
        flushed_bytes = t.flushed_bytes;
        merges = t.merges;
        merged_bytes_in = t.merged_bytes_in;
        merged_bytes_out = t.merged_bytes_out;
        tablets_expired = t.tablets_expired;
        flush_retries = t.flush_retries;
        tablets_quarantined = t.tablets_quarantined;
        blocks_footer_answered = t.blocks_footer_answered;
        columns_decoded = t.columns_decoded;
        bytes_written = t.flushed_bytes + t.merged_bytes_out;
        cache;
      })

(* Field-wise sum of two snapshots. Used by the cluster router to
   aggregate per-shard table stats into one cluster-wide answer;
   [cache_resident_bytes] is not monotonic but summing footprints of
   disjoint caches is still the meaningful total. *)
let add (a : snapshot) (b : snapshot) =
  {
    rows_inserted = a.rows_inserted + b.rows_inserted;
    insert_batches = a.insert_batches + b.insert_batches;
    rows_returned = a.rows_returned + b.rows_returned;
    rows_scanned = a.rows_scanned + b.rows_scanned;
    queries = a.queries + b.queries;
    flushes = a.flushes + b.flushes;
    flushed_bytes = a.flushed_bytes + b.flushed_bytes;
    merges = a.merges + b.merges;
    merged_bytes_in = a.merged_bytes_in + b.merged_bytes_in;
    merged_bytes_out = a.merged_bytes_out + b.merged_bytes_out;
    tablets_expired = a.tablets_expired + b.tablets_expired;
    flush_retries = a.flush_retries + b.flush_retries;
    tablets_quarantined = a.tablets_quarantined + b.tablets_quarantined;
    blocks_footer_answered = a.blocks_footer_answered + b.blocks_footer_answered;
    columns_decoded = a.columns_decoded + b.columns_decoded;
    bytes_written = a.bytes_written + b.bytes_written;
    cache =
      {
        cache_hits = a.cache.cache_hits + b.cache.cache_hits;
        cache_misses = a.cache.cache_misses + b.cache.cache_misses;
        cache_evictions = a.cache.cache_evictions + b.cache.cache_evictions;
        cache_inserted_bytes =
          a.cache.cache_inserted_bytes + b.cache.cache_inserted_bytes;
        cache_resident_bytes =
          a.cache.cache_resident_bytes + b.cache.cache_resident_bytes;
      };
  }

(* Guard only the denominator: a query that scanned rows but returned
   none is pure waste and must show up as a large ratio, not hide
   behind a 1.0 placeholder. *)
let scan_ratio s =
  float_of_int s.rows_scanned /. float_of_int (max 1 s.rows_returned)

let write_amplification s =
  if s.flushed_bytes = 0 then 1.0
  else float_of_int s.bytes_written /. float_of_int s.flushed_bytes

let cache_hit_ratio s =
  let total = s.cache.cache_hits + s.cache.cache_misses in
  if total = 0 then 0.0
  else float_of_int s.cache.cache_hits /. float_of_int total

(* Counters only ever grow (asserted below), so any two snapshots are
   ordered: later reads dominate earlier ones field by field. *)
let bump v delta =
  assert (delta >= 0);
  v + delta

let note_insert (t : t) ~rows =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.rows_inserted <- bump t.rows_inserted rows;
      t.insert_batches <- bump t.insert_batches 1)

let note_query (t : t) ~scanned ~returned =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.queries <- bump t.queries 1;
      t.rows_scanned <- bump t.rows_scanned scanned;
      t.rows_returned <- bump t.rows_returned returned)

let note_flush (t : t) ~bytes =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.flushes <- bump t.flushes 1;
      t.flushed_bytes <- bump t.flushed_bytes bytes)

let note_merge (t : t) ~bytes_in ~bytes_out =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.merges <- bump t.merges 1;
      t.merged_bytes_in <- bump t.merged_bytes_in bytes_in;
      t.merged_bytes_out <- bump t.merged_bytes_out bytes_out)

let note_expired (t : t) ~tablets =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.tablets_expired <- bump t.tablets_expired tablets)

let note_flush_retry (t : t) =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.flush_retries <- bump t.flush_retries 1)

let note_quarantined (t : t) ~tablets =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.tablets_quarantined <- bump t.tablets_quarantined tablets)

let note_pushdown (t : t) ~footer_blocks ~columns =
  Lt_util.Mutexes.with_lock t.m (fun () ->
      t.blocks_footer_answered <- bump t.blocks_footer_answered footer_blocks;
      t.columns_decoded <- bump t.columns_decoded columns)

(* ---- Metric series ---------------------------------------------------- *)

(* The one mapping between snapshot fields and exported series. [f name
   help kind v] is called once per field with the field's value in the
   argument and returns the field's value in the result, so a single
   traversal serves both directions: exporting ({!samples}) and reading
   back ({!of_metrics}). [bytes_written] is derived, not exported. *)
let map_table_series f s =
  let c name help v = f name help `Counter v in
  {
    s with
    rows_inserted = c "lt_rows_inserted_total" "Rows inserted." s.rows_inserted;
    insert_batches =
      c "lt_insert_batches_total" "Insert batches." s.insert_batches;
    queries =
      c "lt_queries_total" "Queries (including latest-row searches)."
        s.queries;
    rows_returned =
      c "lt_rows_returned_total" "Rows returned by queries." s.rows_returned;
    rows_scanned =
      c "lt_rows_scanned_total" "Rows scanned by queries." s.rows_scanned;
    flushes = c "lt_flushes_total" "Memtable flushes." s.flushes;
    flushed_bytes =
      c "lt_flushed_bytes_total" "Bytes written by flushes." s.flushed_bytes;
    merges = c "lt_merges_total" "Tablet merges." s.merges;
    merged_bytes_in =
      c "lt_merged_bytes_in_total" "Bytes read by merges." s.merged_bytes_in;
    merged_bytes_out =
      c "lt_merged_bytes_out_total" "Bytes written by merges."
        s.merged_bytes_out;
    tablets_expired =
      c "lt_tablets_expired_total" "Tablets reclaimed by TTL expiry."
        s.tablets_expired;
    flush_retries =
      c "lt_flush_retries_total"
        "Flush attempts requeued after a transient I/O error." s.flush_retries;
    tablets_quarantined =
      c "lt_tablets_quarantined_total"
        "Corrupt tablets quarantined at table open." s.tablets_quarantined;
    blocks_footer_answered =
      c "lt_blocks_footer_answered_total"
        "Columnar blocks whose aggregates were answered from footer stats."
        s.blocks_footer_answered;
    columns_decoded =
      c "lt_columns_decoded_total"
        "Columnar column sections decompressed by scans." s.columns_decoded;
  }

let map_cache_series f k =
  {
    cache_hits =
      f "lt_cache_hits_total" "Block cache hits." `Counter k.cache_hits;
    cache_misses =
      f "lt_cache_misses_total" "Block cache misses." `Counter k.cache_misses;
    cache_evictions =
      f "lt_cache_evictions_total" "Block cache evictions." `Counter
        k.cache_evictions;
    cache_inserted_bytes =
      f "lt_cache_inserted_bytes_total" "Bytes inserted into the block cache."
        `Counter k.cache_inserted_bytes;
    cache_resident_bytes =
      f "lt_cache_resident_bytes" "Block cache resident bytes." `Gauge
        k.cache_resident_bytes;
  }

let collect map labels v =
  let acc = ref [] in
  ignore
    (map
       (fun name help kind n ->
         acc :=
           { Lt_obs.Metrics.s_name = name; s_help = help; s_kind = kind;
             s_labels = labels; s_value = float_of_int n }
           :: !acc;
         n)
       v);
  !acc

let samples ~table s = collect map_table_series [ ("table", table) ] s

let cache_samples k = collect map_cache_series [] k

let of_metrics ~table (snap : Lt_obs.Metrics.snapshot) =
  let open Lt_obs.Metrics in
  let children name =
    match List.find_opt (fun f -> f.sn_name = name) snap with
    | Some f -> f.sn_children
    | None -> []
  in
  let value labels name =
    List.find_map
      (fun c ->
        if c.sn_labels = labels then Some (int_of_float c.sn_fval) else None)
      (children name)
  in
  let labels = [ ("table", table) ] in
  let down =
    List.filter (fun c -> c.sn_fval = 0.0) (children Lt_obs.Obs.shard_up)
  in
  match (down, value labels "lt_rows_inserted_total") with
  | c :: _, _ ->
      let label (k, v) = k ^ "=" ^ v in
      Error
        (Printf.sprintf "backend unavailable: %s"
           (String.concat "," (List.map label c.sn_labels)))
  | [], None -> Error (Printf.sprintf "no such table %S" table)
  | [], Some _ ->
      let get labels name _ _ _ = Option.value ~default:0 (value labels name) in
      let s = map_table_series (get labels) (read (create ())) in
      Ok
        {
          s with
          bytes_written = s.flushed_bytes + s.merged_bytes_out;
          cache = map_cache_series (get []) no_cache;
        }

let pp ppf s =
  Format.fprintf ppf
    "@[<v>inserted %d rows in %d batches; %d queries returned %d rows \
     (scanned %d, ratio %.2f); %d flushes (%d B), %d merges (%d B in, %d B \
     out), write amp %.2f; %d tablets expired; %d flush retries, %d tablets \
     quarantined; pushdown: %d blocks footer-answered, %d columns decoded; \
     block cache %d hits / %d misses (%.0f%%), %d evictions, \
     %d B resident@]"
    s.rows_inserted s.insert_batches s.queries s.rows_returned s.rows_scanned
    (scan_ratio s) s.flushes s.flushed_bytes s.merges s.merged_bytes_in
    s.merged_bytes_out (write_amplification s) s.tablets_expired
    s.flush_retries s.tablets_quarantined s.blocks_footer_answered
    s.columns_decoded s.cache.cache_hits
    s.cache.cache_misses
    (cache_hit_ratio s *. 100.0)
    s.cache.cache_evictions s.cache.cache_resident_bytes
