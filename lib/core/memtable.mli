(** In-memory (filling) tablets.

    A memtable accumulates freshly inserted rows for one time period,
    ordered by encoded primary key in a B+tree ({!Btree}). When it
    reaches the configured size or age, the table freezes it and flushes
    it to disk as an on-disk tablet (§3.2). The engine's memtables hold
    each row as its stored value bytes, encoded once at insert
    ([string t]); the payload type is a parameter so the tree can be
    measured with any payload.

    {b The epoch contract.} A memtable has one owner, the table, which
    calls {!insert}, {!mem} and {!snapshot} under its own lock. An
    insert mutates in place the tree nodes created since the last
    {!snapshot} and copies any older node it has to change; inserts
    that follow one another in key order land through the tree's
    finger without a descent. {!snapshot}
    moves the memtable to a new epoch, so the root it returns is frozen:
    no later insert writes a node that root reaches. A snapshot can
    therefore be handed to readers in other threads or domains (query
    handlers, parallel-scan workers) and walked without any lock, and
    it reads back the same rows however many inserts follow. Only a
    snapshot may leave the owner's lock; the live tree never does. *)

type 'v t

(** [create ~id ~period ~created_at] — [id] becomes the tablet id of
    the on-disk tablet this memtable flushes into; [created_at] starts the
    age-based flush timer (§3.4.1: at most 10 minutes of data at risk). *)
val create : id:int -> period:Period.t -> created_at:int64 -> 'v t

val id : 'v t -> int

val period : 'v t -> Period.t

val created_at : 'v t -> int64

(** [insert t ~key ~ts v] adds a row under its encoded key.
    [`Duplicate] when the key is already present; [t] is then
    unchanged. *)
val insert : 'v t -> key:string -> ts:int64 -> 'v -> [ `Ok | `Duplicate ]

(** [mem t ~ts key] is whether [key], whose timestamp is [ts], is
    present; a [ts] outside the rows' span answers without a lookup. *)
val mem : 'v t -> ts:int64 -> string -> bool

val row_count : 'v t -> int

(** Approximate bytes of row data held (encoded key + value sizes). *)
val byte_size : 'v t -> int

(** Row-timestamp range actually present ([None] when empty). *)
val ts_range : 'v t -> (int64 * int64) option

(** The current contents, frozen: later inserts leave the returned tree
    as it is (see the epoch contract above). *)
val snapshot : 'v t -> 'v Btree.t

(** Record the encoded bytes a row contributes. Separated from
    {!insert} so the memtable does not need to know its payload's
    size. *)
val add_bytes : 'v t -> int -> unit

(** {1 Insert order (§3.4.3)}

    A table numbers the rows it lands with one increasing counter, its
    insert sequence number; a memtable records the first and last number
    it holds. A crash must leave a prefix of each table's insert order,
    so a memtable may only become durable together with every memtable
    holding a row inserted before its last one. *)

(** [stamp t seq] widens [t]'s span of insert sequence numbers to
    cover [seq]. *)
val stamp : 'v t -> int -> unit

(** The first and last insert sequence numbers stamped ([None] when
    none was). *)
val seq_span : 'v t -> (int * int) option

(** [closure m queued] is every memtable of [queued] that must flush
    no later than [m], and [m] itself: those whose first row came before
    [m]'s last row, and, transitively, before the last row of one of
    those. Ordered by first sequence number. *)
val closure : 'v t -> 'v t list -> 'v t list
