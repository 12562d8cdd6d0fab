(** A shared, scan-resistant block cache.

    The paper leans on the OS page cache for hot tablet blocks (§3.2,
    §3.5); this is the process-owned equivalent: a byte-capacity-bounded
    cache keyed by [(file id, block index)] that the tablet read path
    consults before decompressing a block frame from the {!Lt_vfs.Vfs}.

    Eviction is segmented LRU (SLRU). New blocks enter a {e probation}
    segment; a block touched again while on probation is promoted to a
    {e protected} segment holding roughly 80% of the capacity. Capacity
    evictions always take the probation LRU first, so a single large
    range scan — whose blocks are each touched once — churns only
    probation and cannot displace the established hot set.

    The whole capacity is one SLRU under one mutex: one hash table and
    one pair of intrusive LRU lists, so lookups are O(1) and the
    protected segment's 80% and probation-first eviction hold over the
    configured capacity, not over a hash partition of it. The lock
    covers only the table lookup and the list relinks; callers read,
    check and decompress blocks outside it.

    Values are polymorphic ('v is {!Littletable.Block.t} in the engine)
    and weighed by a caller-supplied byte size: a row-major block weighs
    its decompressed bytes, a columnar block its stored frame, whose
    column sections stay compressed until a scan decodes them. *)

type 'v t

(** Cache counters. [hits]/[misses]/[evictions]/[insertions]/
    [inserted_bytes] are monotonic; [resident_bytes] and
    [resident_entries] are the current footprint. File invalidations do
    not count as evictions. *)
type counters = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  inserted_bytes : int;
  resident_bytes : int;
  resident_entries : int;
}

(** [create ~capacity ()] makes a cache bounded at [capacity] bytes.
    @raise Invalid_argument if [capacity <= 0]. *)
val create : capacity:int -> unit -> 'v t

val capacity : 'v t -> int

(** Allocate a fresh file id. Ids are never reused, so blocks cached
    under a dead file's id can never be served to a reincarnation of the
    same path. *)
val file_id : 'v t -> int

(** O(1) lookup. A probation hit promotes the block to the protected
    segment; a protected hit refreshes its recency. *)
val find : 'v t -> file:int -> block:int -> 'v option

(** Insert a block of [bytes] weight into the probation segment, then
    evict from the probation (then protected) LRU until the cache is
    within capacity. Inserting a key that is already present refreshes
    the resident entry and is not counted as an insertion. *)
val insert : 'v t -> file:int -> block:int -> bytes:int -> 'v -> unit

(** Drop every cached block of [file] — called when a merge, TTL expiry,
    or bulk delete removes the tablet file, so stale blocks can never be
    served. *)
val invalidate_file : 'v t -> file:int -> unit

(** Drop everything (counters keep accumulating). *)
val clear : 'v t -> unit

val counters : 'v t -> counters

(** Zero the monotonic counters (resident state is untouched) — for
    benchmarks measuring a phase in isolation. *)
val reset_counters : 'v t -> unit
