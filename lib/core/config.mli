(** Engine tuning knobs, with the paper's defaults. *)

type t = {
  block_size : int;
      (** on-disk block target, bytes — 64 kB (§3.2) *)
  flush_size : int;
      (** freeze a memtable at this many bytes — 16 MB, "large enough to
          sustain roughly 95% of the disk's peak write rate" (§3.3) *)
  flush_age : int64;
      (** freeze a memtable this long after its first row, microseconds —
          10 minutes, bounding crash data loss (§3.4.1) *)
  max_tablet_size : int;
      (** merged tablets never exceed this — 128 MB (§5.1.3) *)
  merge_delay : int64;
      (** leave a tablet alone this long after writing it, so merges see
          as many inputs as possible — 90 s (§5.1.3) *)
  rollover_spread : float;
      (** when a tablet's data ages into a larger time period, delay its
          merging by a pseudorandom fraction of that period times this
          factor, spreading rollover merge load (§3.4.2); 0 disables *)
  bloom_bits_per_key : int;
      (** per-tablet Bloom filters (§3.4.5) — 10 bits/row; 0 disables *)
  flush_backlog : int;
      (** force a synchronous flush when this many frozen memtables are
          waiting; 1 = flush immediately on freeze (Figure 3 uses 100) *)
  server_row_limit : int;
      (** the server's own per-query row cap behind the more-available
          flag (§3.5) *)
  enforce_unique : bool;
      (** primary-key uniqueness checks on insert (§3.4.4) *)
  cache_bytes : int;
      (** process-wide block-cache capacity, bytes — the in-process
          stand-in for the OS page cache the paper relies on (§3.2,
          §3.5); 64 MB default, 0 disables *)
  obs_enabled : bool;
      (** collect latency histograms and slow-op spans ([Lt_obs]);
          disabling reduces every instrumentation site to a boolean
          load *)
  slow_op_micros : int64;
      (** operations at least this slow (microseconds) are kept in the
          slow-op ring's [.slow] view and logged through ["lt.slowop"]
          — 100 ms default *)
  query_domains : int;
      (** worker domains for parallel tablet scans ([Lt_exec]); queries
          touching more than one tablet fan out over a pool of this
          size and are k-way merged back into primary-key order, with
          results byte-identical to a sequential scan. 0 forces the
          sequential path; default [max 1 (ncpu - 2)] *)
  columnar_age : int64;
      (** merges rewrite a tablet column-major once its newest row is at
          least this old (microseconds), so fresh timespans stay
          row-major for point lookups while aged timespans serve
          aggregation from per-column runs and footer stats (the HTAP
          layout split of real-time LSM-trees). [0] makes every merge
          output columnar; [Int64.max_int] (the default) disables the
          columnar layout entirely, so it is an opt-in knob *)
}

val default : t

(** [default] with selective overrides. *)
val make :
  ?block_size:int ->
  ?flush_size:int ->
  ?flush_age:int64 ->
  ?max_tablet_size:int ->
  ?merge_delay:int64 ->
  ?rollover_spread:float ->
  ?bloom_bits_per_key:int ->
  ?flush_backlog:int ->
  ?server_row_limit:int ->
  ?enforce_unique:bool ->
  ?cache_bytes:int ->
  ?obs_enabled:bool ->
  ?slow_op_micros:int64 ->
  ?query_domains:int ->
  ?columnar_age:int64 ->
  unit ->
  t
