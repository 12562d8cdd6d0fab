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

let cache_of c =
  let k = Lt_cache.Block_cache.counters c in
  {
    cache_hits = k.hits;
    cache_misses = k.misses;
    cache_evictions = k.evictions;
    cache_inserted_bytes = k.inserted_bytes;
    cache_resident_bytes = k.resident_bytes;
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

let zero =
  {
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
    bytes_written = 0;
    cache = no_cache;
  }

(* Field-wise sum of two snapshots: how a table's counters take an
   operation's delta, and how the cluster router aggregates per-shard
   table stats into one cluster-wide answer. [bytes_written] is derived
   rather than summed; [cache_resident_bytes] is not monotonic but
   summing footprints of disjoint caches is still the meaningful
   total. *)
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
    bytes_written =
      a.flushed_bytes + b.flushed_bytes + a.merged_bytes_out
      + b.merged_bytes_out;
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
      (* [add] derives [bytes_written], which has no series. *)
      let s = add zero (map_table_series (get labels) zero) in
      Ok { s with cache = map_cache_series (get []) no_cache }

(* ---- The fold over finished operations ------------------------------ *)

module Trace = Lt_obs.Trace
module Profile = Lt_obs.Profile

let of_op op (p : Profile.t) =
  match op with
  | Trace.Query | Trace.Latest ->
      {
        zero with
        queries = 1;
        rows_scanned = p.p_rows_scanned;
        rows_returned = p.p_rows_returned;
        blocks_footer_answered = p.p_blocks_footer_answered;
        columns_decoded = p.p_columns_decoded;
      }
  | Trace.Insert ->
      {
        zero with
        rows_inserted = p.p_rows_returned;
        insert_batches = (if p.p_rows_returned > 0 then 1 else 0);
      }
  | Trace.Flush -> { zero with flushes = 1; flushed_bytes = p.p_bytes_out }
  | Trace.Merge ->
      {
        zero with
        merges = 1;
        merged_bytes_in = p.p_bytes_in;
        merged_bytes_out = p.p_bytes_out;
      }
  | Trace.Stall | Trace.Request | Trace.Route | Trace.Backend
  | Trace.Failover ->
      zero

(* One private leaf lock: [note] callers already hold assorted table
   locks, but [read] runs from exporter and bench threads that hold none
   of them. The mutex is uncontended on the hot path and makes
   snapshots coherent instead of merely field-wise monotonic. *)
type t = { m : Mutex.t; mutable s : snapshot }

let create () = { m = Mutex.create (); s = zero }

(* Counters only ever grow: every exported field of a delta is
   non-negative, so any two snapshots are ordered — later reads
   dominate earlier ones field by field. *)
let note t d =
  ignore
    (map_table_series
       (fun _ _ _ v ->
         assert (v >= 0);
         v)
       d);
  Lt_util.Mutexes.with_lock t.m (fun () -> t.s <- add t.s d)

let read ?(cache = no_cache) t =
  Lt_util.Mutexes.with_lock t.m (fun () -> { t.s with cache })

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
