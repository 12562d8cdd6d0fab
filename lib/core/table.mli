(** A LittleTable table: a union of in-memory and on-disk tablets (§3.2).

    The table owns one directory holding its {!Descriptor} file and its
    tablet files. Rows are binned into filling memtables by time period
    (§3.4.2/§3.4.3); frozen memtables flush — together with every
    memtable holding a row inserted before theirs, atomically — into
    on-disk tablets; a
    background maintenance step merges tablets (§3.4.1) and reclaims
    those whose rows have all passed the table's TTL.

    Concurrency: inserts and schema changes serialize on a per-table
    writer lock (the paper's applications are single-writer per table
    anyway, §2.3.4); queries snapshot the memtables (a snapshot is
    frozen: later inserts copy, never write, its nodes) and the tablet
    list under a brief state lock and then scan without blocking
    inserts. On-disk tablets are reference-counted so a merge or expiry
    never deletes a file out from under a running scan. *)

type t

exception Duplicate_key of string
(** Raised on a primary-key violation; the payload renders the key. *)

(** {1 Lifecycle} *)

(** [create vfs ~clock ~config ~dir ~name schema ~ttl] makes a fresh
    table (its directory must not already hold one) and writes the
    initial descriptor. [ttl] is in microseconds, [None] = retain
    forever. [cache] is the process-wide block cache the table's readers
    share (normally supplied by {!Db}); omitted = uncached reads.
    [obs] is the observability bundle operations report latency spans
    to (also normally supplied by {!Db}); omitted = no instrumentation
    ({!Lt_obs.Obs.noop}). [pool] enables parallel tablet scans: queries
    touching disk through more than one source fan out over its worker
    domains and k-way merge back into key order, byte-identical to the
    sequential path; omitted = sequential scans. *)
val create :
  ?cache:Block.t Lt_cache.Block_cache.t ->
  ?obs:Lt_obs.Obs.t ->
  ?pool:Lt_exec.Pool.t ->
  Lt_vfs.Vfs.t ->
  clock:Lt_util.Clock.t ->
  config:Config.t ->
  dir:string ->
  name:string ->
  Schema.t ->
  ttl:int64 option ->
  t

(** Open an existing table from its descriptor. Unflushed data from a
    previous process is gone, per the durability contract. *)
val open_ :
  ?cache:Block.t Lt_cache.Block_cache.t ->
  ?obs:Lt_obs.Obs.t ->
  ?pool:Lt_exec.Pool.t ->
  Lt_vfs.Vfs.t ->
  clock:Lt_util.Clock.t ->
  config:Config.t ->
  dir:string ->
  name:string ->
  t

(** Flush nothing, close readers. The caller should normally
    [flush_all] first; anything unflushed is lost, which is exactly the
    crash behaviour. *)
val close : t -> unit

val name : t -> string
val dir : t -> string
val schema : t -> Schema.t
val ttl : t -> int64 option
val set_ttl : t -> int64 option -> unit

(** {1 Schema evolution} (§3.5) *)

val add_column : t -> Schema.column -> unit
val widen_column : t -> string -> unit

(** {1 Inserts} *)

(** Insert a batch. Every row must match the schema; a row's timestamp
    may lie in the past or future (§3.1). Raises {!Duplicate_key} on a
    uniqueness violation and {!Schema.Invalid} on a row that does not
    match the schema; rows earlier in the batch stay inserted. *)
val insert : t -> Value.t array list -> unit

(** [insert_report t rows] is {!insert} reporting whatever ended the
    batch early as data: [Error (landed, e)] says exactly how many
    leading rows committed before exception [e] (they stay inserted and
    the next flush covers them), so wire servers can tell clients what
    not to re-send. *)
val insert_report : t -> Value.t array list -> (unit, int * exn) result

val insert_row : t -> Value.t array -> unit

(** [insert_encoded t rows] is {!insert_report} for rows that arrive
    already in stored form, so none is boxed as a [Value.t] on its way
    in. [rows schema] is called once, under the table's writer lock,
    with the schema the rows must fit; each call of the puller it
    returns gives the next row's encoded key ({!Key_codec.encode_key})
    and value encoding ({!Row_codec.encode_value}), or [None] at the
    end of the batch. A puller raises on a row that does not fit the
    schema; the rows before it stay inserted and are counted in
    [Error (landed, e)], as in {!insert_report}. Both kinds of insert
    share one landing loop. *)
val insert_encoded :
  t -> (Schema.t -> unit -> (string * string) option) -> (unit, int * exn) result

(** {1 Queries} *)

type result = {
  rows : Value.t array list;
  more_available : bool;
      (** the server's own row limit was hit before the client's (§3.5);
          resubmit with the key bound advanced past the last row *)
  scanned : int;  (** rows examined, for the §5.2.4 efficiency metric *)
  profile : Lt_obs.Profile.t option;
      (** per-stage breakdown, present iff the query asked for one *)
}

(** [query ?profile t q] — [~profile:true] additionally measures a
    per-stage {!Lt_obs.Profile.t} (plan/scan/stall times, rows, tablet
    pruning, cache deltas) using the table's own clock; it works even
    when [Config.obs_enabled] is false and never changes the rows
    returned.
    @raise Invalid_argument on a negative limit, as {!query_iter} and
    {!with_query} do. *)
val query : ?profile:bool -> t -> Query.t -> result

(** Streaming scan (no server row cap). The source holds references on
    the tablets it reads, and its query is counted, only once it is
    drained: it must be read to [None]. A caller that may stop early
    uses {!with_query}. *)
val query_iter : t -> Query.t -> Cursor.source

(** [with_query t q f] runs [f] on a streaming scan of [q], like
    {!query_iter}'s, that [f] may stop reading at any point. On return
    or exception it joins the scan's producers, releases its tablet
    references and counts the query with the rows pulled so far. The
    source must not be used after [f] returns. *)
val with_query : t -> Query.t -> (Cursor.source -> 'a) -> 'a

(** [query_agg t q ~specs] evaluates one row of aggregates over every
    row matching [q]'s key/timestamp bounds ([q]'s direction and limit
    are ignored). Columnar tablets answer whole blocks from footer
    stats where possible and decode only referenced columns otherwise;
    the result is bit-identical to scanning the rows and feeding them
    through {!Agg.feed}, at any layout mix or parallelism setting. *)
val query_agg :
  ?profile:bool ->
  t ->
  Query.t ->
  specs:Agg.spec array ->
  Value.t array * Lt_obs.Profile.t option

(** [latest t prefix] finds the newest row whose key starts with
    [prefix], working backwards through groups of tablets with
    overlapping timespans and consulting Bloom filters (§3.4.5).
    Tablets whose key span cannot hold [prefix], or whose rows are all
    past the TTL, are skipped without being opened. *)
val latest : t -> Value.t list -> Value.t array option

(** Largest row timestamp inserted ([None] if the table has always
    been empty). Rows a bulk delete drops from a filling memtable stop
    counting. *)
val max_ts : t -> int64 option

(** {1 Maintenance} *)

(** Freeze and flush every memtable.

    Explicit durability is group-committed: concurrent callers share
    one flush round — and its fsyncs — instead of queueing identical
    rounds; a caller whose inserts are already covered by a completed
    round returns immediately. Led and joined commits are counted as
    [lt_group_commit_total{mode}]. A round covers every row inserted
    before the call, whatever its timestamp, so it also serves the
    §4.1.2 flush-before-timestamp command. *)
val flush_all : t -> unit

(** One merge per the policy; [true] if a merge happened. *)
val merge_step : t -> bool

(** Reclaim tablets whose rows have all expired; returns how many. *)
val expire : t -> int

(** [delete_prefix t prefix] bulk-deletes every row whose key starts
    with [prefix] — the feature §7 describes Meraki building "to
    simplify compliance with regional privacy laws" (e.g. purge one
    customer). Tablets fully inside the range are unlinked; straddling
    tablets are rewritten without the range; memtables are filtered.
    Atomic via one descriptor update. Returns rows deleted.
    @raise Schema.Invalid on a prefix/type mismatch. *)
val delete_prefix : t -> Value.t list -> int

(** Age-based freezes + pending flushes + merges to fixpoint + expiry —
    what the background maintenance thread runs each tick. *)
val maintenance : t -> unit

(** {1 Introspection} *)

val tablet_count : t -> int
val memtable_count : t -> int

(** Per-tablet metadata, in timespan order. *)
val tablets : t -> Descriptor.tablet_meta list

(** Operation counters; the [cache] fields reflect the shared
    process-wide block cache (identical across a {!Db}'s tables). *)
val stats : t -> Stats.snapshot

(** Total bytes of on-disk tablets. *)
val disk_size : t -> int
