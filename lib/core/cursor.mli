(** Merge cursors.

    Query execution "opens a cursor on each tablet, filters any rows that
    fall outside the query's timestamp bounds (which generally do not
    align exactly with the tablets' timespans), and merge-sorts the
    resulting streams to form a single result stream ordered by primary
    key" (§3.2). This module is that merge-sort: a heap of per-tablet
    pull iterators.

    Each source carries a priority (its tablet id; memtables are newer
    than any on-disk tablet they shadow). When two sources yield the same
    key — possible only if uniqueness enforcement was bypassed — the
    higher-priority row wins and the others are dropped. *)

(** A pull iterator over [(encoded key, payload)] pairs: [None] means
    exhausted. Single-consumer. Queries, flushes, merges and rewrites
    all stream row handles ({!Tablet.row}).

    Nothing here decodes a row. {!merge}, {!filter_ts} and {!take} read
    only keys and pass payloads through, so a handle that the merge
    shadows, the ts filter drops or the limit cuts is never forced. A
    query forces a handle with {!Tablet.force} only where the row leaves
    the engine or is folded: [Table.query]'s collect loop,
    [Table.query_iter]'s output, [Table.latest]'s answer and the merged
    residue of [Table.query_agg]; a flush, merge or rewrite hands each
    handle to {!Tablet.add}, which copies a stored entry without
    decoding it when its encoding is already the output's. Handles
    reference immutable loaded blocks, so a stream staged on a
    {!Lt_exec.Pscan} worker may hand them to the consuming domain. *)
type 'a stream = unit -> (string * 'a) option

(** A stream of decoded rows, as queries hand them to callers. *)
type source = Value.t array stream

(** [merge ~asc sources] merge-sorts [(priority, stream)] pairs into one
    ordered, deduplicated stream. *)
val merge : asc:bool -> (int * 'a stream) list -> 'a stream

(** [filter_ts ~scanned ?ts_min ?ts_max src] drops rows whose key
    timestamp (last 8 key bytes) falls outside the inclusive bounds,
    incrementing [scanned] for every row examined — the numerator of the
    paper's rows-scanned/rows-returned efficiency metric (§5.2.4). *)
val filter_ts :
  scanned:int ref -> ?ts_min:int64 -> ?ts_max:int64 -> 'a stream -> 'a stream

(** Stop after [n] rows. *)
val take : int -> 'a stream -> 'a stream

(** [cap ~limit ~row_limit f src] is the server row cap of §3.5: the
    first [min limit row_limit] items of [src] through [f], then one
    probe pull to learn whether more exist. The flag is
    [more_available]: [true] only when the probe found a row and the
    client's own [limit] did not bind first, so a client that asked for
    fewer rows than the cap is never told to resubmit. [Table.query] and
    the router's merged shard streams both answer a page with it. *)
val cap :
  limit:int option -> row_limit:int -> (string * 'a -> 'b) -> 'a stream ->
  'b list * bool

(** Drain the stream through an accumulator — how aggregate pushdown
    consumes the residue streams that footer stats could not answer. *)
val fold : ('acc -> string * 'a -> 'acc) -> 'acc -> 'a stream -> 'acc

val to_list : 'a stream -> (string * 'a) list
