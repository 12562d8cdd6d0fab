(** On-disk tablets.

    File layout (§3.2, §3.5):

    {v
      block frame *           rows sorted by key, ~64 kB raw per block
      footer frame            schema, stats, per-block index, Bloom filter
      trailer (24 bytes)      footer offset, footer frame length, magic
    v}

    Each frame is independently compressed (LZ or stored raw when
    incompressible) and protected by a CRC-32C. The index records the
    last key of each block — "on average, these indexes are only 0.5% of
    their tablets' sizes, so LittleTable caches them almost indefinitely
    in main memory"; here the whole footer is held by the open
    {!reader}.

    The footer also carries the Bloom filter of §3.4.5 (built over full
    keys and every column-boundary prefix) when enabled. The writer
    finds the prefix boundaries in the encoded key bytes and hashes each
    key once for all of its prefixes.

    Every consumer of a tablet reads it through one stream, {!iter}'s
    row handles: queries force the rows they keep, and flushes, merges
    and bulk-delete rewrites hand the handles to {!add}, which copies a
    row already encoded under the output's schema (a row-major entry, or
    a memtable row) as its stored bytes and decodes and encodes every
    other row once.

    Reading a cold tablet costs the paper's three repositionings —
    open (inode), trailer, footer — and one more per block; the disk
    model observes exactly that pattern. *)

type summary = {
  row_count : int;
  size : int;  (** file size in bytes *)
  min_ts : int64;
  max_ts : int64;
  min_key : string;
  max_key : string;
  columnar : bool;  (** data blocks are column-major *)
}

(** {1 Row handles}

    Scans hand out rows as handles and decode a row only once the query
    has accepted it. A handle is a row already decoded (a row of a
    columnar block's materialized window), a memtable row as its stored
    key and value bytes with the schema they are encoded under, or a
    reference to an entry of a loaded row-major block: the block, the
    entry index, the key and the schemas to decode under. {!force}
    decodes it, translated to the target schema the reader had when the
    scan was created. So a row that {!Cursor.filter_ts} drops, that
    {!Cursor.merge} shadows, or that a limit cuts off is never decoded.

    Loaded blocks are immutable and a handle holds nothing mutable, so a
    handle stays valid after its block leaves the cache or its tablet is
    released, and a {!Lt_exec.Pscan} worker may hand it to the consumer
    domain, which forces it there. *)

type row

(** A row that is already decoded. *)
val decoded : Value.t array -> row

(** [encoded schema ~key value] is a row held as its encoded key and
    its value encoding under [schema] ({!Row_codec}), as a memtable
    holds it. *)
val encoded : Schema.t -> key:string -> string -> row

(** The row under the target schema. Decodes a block entry each time it
    is called; force a handle once. *)
val force : row -> Value.t array

(** {1 Writing} *)

type writer

(** [writer vfs ~path ~schema ~block_size ~bloom_bits_per_key
    ~expected_rows] starts a tablet file. [bloom_bits_per_key = 0]
    disables the filter; otherwise the filter is created here, sized for
    [expected_rows] rows (a flush knows its memtable's count, a merge or
    rewrite the sum of its inputs' — an upper bound is fine) and each
    row's key prefixes. [layout] (default row-major) selects the
    data-block encoding; column-major writers record per-column footer
    stats for aggregate pushdown. *)
val writer :
  Lt_vfs.Vfs.t ->
  path:string ->
  schema:Schema.t ->
  block_size:int ->
  bloom_bits_per_key:int ->
  expected_rows:int ->
  ?layout:Block.layout ->
  unit ->
  writer

(** Add a row; keys must arrive in strictly ascending order. [row] is
    under the writer's schema: a decoded row, or a handle from {!iter}
    on a reader whose target was the writer's schema when the stream
    was created. This is the one place that decides how a row reaches a
    block: a row-major writer copies a row-major entry or an {!encoded}
    row stored under its own schema version as its stored bytes
    ({!Block.add_entry}, {!Block.add}) and encodes any other row once;
    a column-major writer takes the decoded row. *)
val add : writer -> key:string -> ts:int64 -> row -> unit

(** [add_row w ~key ~key_prefixes ~ts row] is [add w ~key ~ts (decoded
    row)]; [key_prefixes] is ignored (the writer derives the Bloom
    prefixes from [key]). *)
val add_row :
  writer -> key:string -> key_prefixes:string list -> ts:int64 ->
  Value.t array -> unit

(** Flush remaining rows, write footer and trailer, [fsync], close.
    @raise Invalid_argument if no rows were added — empty tablets are
    never written. *)
val finish : writer -> summary

(** Abort and delete the partial file. *)
val abandon : writer -> unit

(** {1 Reading} *)

type reader

(** Open a tablet and load its footer. [into] is the schema rows are
    translated to on read. [cache], when given, is consulted before
    every block read and filled on miss (see {!Lt_cache.Block_cache});
    the reader allocates itself a fresh file id in it. [obs] receives
    per-block read/decompress stage latencies (default: none). *)
val open_reader :
  ?cache:Block.t Lt_cache.Block_cache.t ->
  ?obs:Lt_obs.Obs.t ->
  Lt_vfs.Vfs.t ->
  path:string ->
  into:Schema.t ->
  reader

(** Close the file handle and invalidate this reader's blocks in the
    cache (readers close exactly when their file dies or the table
    shuts down). *)
val close : reader -> unit

val summary : reader -> summary

(** Schema the tablet was written with. *)
val stored_schema : reader -> Schema.t

(** Replace the translation target (after a schema evolution). *)
val set_target_schema : reader -> Schema.t -> unit

(** [false] only when no stored key has [prefix] as a byte prefix at a
    column boundary (or equals it); always [true] when the tablet has no
    Bloom filter. *)
val may_contain_prefix : reader -> string -> bool

(** Exact-key membership, going to disk only when the Bloom filter (if
    any) passes. *)
val mem : reader -> string -> bool

(** Per-scan pushdown counters, shared across the fan-out of one query
    (hence atomic): blocks answered entirely from footer stats, and
    columnar column sections actually decompressed. *)
type scan_counters = {
  sc_footer_blocks : int Atomic.t;
  sc_cols_decoded : int Atomic.t;
}

val fresh_counters : unit -> scan_counters

(** [iter r ~asc ?lo ?hi ?projection ?counters ()] streams the rows with
    encoded keys in [\[lo, hi)], ascending or descending, as handles.
    Row-major entries stay encoded until forced. A columnar block
    materializes only its window [\[search_geq lo, search_geq hi)] when
    the scan loads it ({!Block.columnar_rows}): the rows the bounds can
    reach, none outside them. [projection] (target-schema column
    indices) lets columnar blocks decode only the named columns —
    unprojected non-key cells are unspecified (defaults); row-major
    blocks ignore it. [counters] receives per-block pushdown tallies.
    Rows are translated to the reader's target schema as it stands when
    the stream is created. The returned thunk is single-consumer. *)
val iter :
  reader ->
  asc:bool ->
  ?lo:string ->
  ?hi:string ->
  ?projection:int list ->
  ?counters:scan_counters ->
  unit ->
  unit ->
  (string * row) option

(** [fold_aggs r ?counters ~lo ~hi ~ts_min ~ts_max ~specs ~accs ()]
    folds every row with key in [\[lo, hi)] and timestamp in
    [\[ts_min, ts_max\]] into [accs] (one accumulator per spec, target
    schema column indices). Columnar blocks whose whole key and
    timestamp ranges fall inside the bounds are absorbed from footer
    stats without being read; remaining blocks decode only the rows
    the key bounds reach — columnar ones only referenced columns of
    those rows, row-major ones only rows inside the timestamp bounds. The result is
    bit-identical to feeding the same rows through {!Agg.feed} one at a
    time. *)
val fold_aggs :
  reader ->
  ?counters:scan_counters ->
  lo:string option ->
  hi:string option ->
  ts_min:int64 ->
  ts_max:int64 ->
  specs:Agg.spec array ->
  accs:Agg.acc array ->
  unit ->
  unit

val block_count : reader -> int
