(** Per-table operation counters.

    These back the production-metrics figures: rows scanned vs rows
    returned (Figure 9, §5.2.4), insert/query rates (§5.2.3), flush and
    merge activity, and write amplification (§5.1.3).

    The counters are a fold over finished operations: each operation's
    one record ({!Lt_obs.Profile.t}) maps through {!of_op} to a delta
    that {!note} adds, so the counters, the operation's trace span and
    its latency histogram all count the same operations. The only other
    deltas are the three counters no operation record carries (expired
    tablets, flush retries, quarantined tablets).

    Counters are guarded by a private leaf mutex (so {!read} is a
    coherent snapshot even against concurrent writers holding only
    table locks) and are strictly monotonic (every delta is
    non-negative, asserted in {!note}): of any two {!snapshot}s of the
    same table, the later dominates the earlier field by field, so
    rates may be computed by differencing snapshots. *)

type t

val create : unit -> t

(** Block-cache counters (see {!Lt_cache.Block_cache}). The cache is
    process-wide, shared by every table of a {!Db}, so these fields are
    identical across the tables of one database. All-zero ({!no_cache})
    when the cache is disabled. *)
type cache_snapshot = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_inserted_bytes : int;
  cache_resident_bytes : int;  (** current footprint, not monotonic *)
}

val no_cache : cache_snapshot

(** The current counters of a block cache. *)
val cache_of : 'a Lt_cache.Block_cache.t -> cache_snapshot

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
  flush_retries : int;  (** flush attempts requeued after a transient I/O error *)
  tablets_quarantined : int;
      (** corrupt tablets set aside at {!Table.open_} instead of failing the open *)
  blocks_footer_answered : int;
      (** whole blocks whose aggregates came straight from footer stats,
          with no block read or row decode *)
  columns_decoded : int;
      (** columnar column sections decompressed by scans — projection
          and aggregate pushdown keep this below columns-per-block *)
  bytes_written : int;  (** flushes + merge output *)
  cache : cache_snapshot;
}

(** All counters zero, no cache. *)
val zero : snapshot

(** [of_op op r] — the delta one finished operation contributes, from
    its record [r]: a query or latest search counts one query, its rows
    scanned and returned, footer-answered blocks and decoded columns;
    an insert its rows (and one batch when any landed); a flush one
    flush and its bytes out; a merge one merge and its bytes in and
    out. Other ops contribute nothing. *)
val of_op : Lt_obs.Trace.op -> Lt_obs.Profile.t -> snapshot

(** [note t d] adds the delta [d] to [t]'s counters. Every counter of
    [d] must be non-negative. *)
val note : t -> snapshot -> unit

(** Monotonic snapshot; [cache] defaults to {!no_cache}. *)
val read : ?cache:cache_snapshot -> t -> snapshot

(** Field-wise sum ([bytes_written] recomputed from the sums), for
    aggregating per-shard snapshots of one logical table into a
    cluster-wide snapshot. *)
val add : snapshot -> snapshot -> snapshot

(** Rows scanned per row returned, computed as
    [scanned / max 1 returned] so pure-waste scans (rows scanned but
    none returned) report their full scan count instead of hiding
    behind a placeholder. 0.0 only when nothing was scanned. *)
val scan_ratio : snapshot -> float

(** Bytes written to disk per byte of first-time flush; >= 1. *)
val write_amplification : snapshot -> float

(** Block-cache hits / (hits + misses); 0 when the cache is cold or
    disabled. *)
val cache_hit_ratio : snapshot -> float

(** {1 Metric series}

    How snapshots join the Prometheus exposition, and how a remote
    reader gets them back from a {!Lt_obs.Metrics.snapshot}: every
    field but the derived [bytes_written] is one series. *)

(** The table's counters as [lt_*_total{table="<table>"}] samples. *)
val samples : table:string -> snapshot -> Lt_obs.Metrics.sample list

(** The block-cache counters as unlabelled [lt_cache_*] samples. *)
val cache_samples : cache_snapshot -> Lt_obs.Metrics.sample list

(** [of_metrics ~table snap] reads [table]'s snapshot back out of a
    metrics snapshot carrying {!samples} and {!cache_samples} series —
    a node's own, or a router's federation, whose unlabelled aggregate
    children sum the shards. [Error] when [snap] has no series for
    [table], or when it marks a shard unreachable
    ([Lt_obs.Obs.shard_up] at 0), since the sum would be partial.
    Missing cache series read as {!no_cache}. *)
val of_metrics :
  table:string -> Lt_obs.Metrics.snapshot -> (snapshot, string) result

val pp : Format.formatter -> snapshot -> unit
