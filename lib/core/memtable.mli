(** In-memory (filling) tablets.

    A memtable accumulates freshly inserted rows for one time period,
    ordered by encoded primary key in a persistent AVL tree. When it
    reaches the configured size or age, the table freezes it and flushes
    it to disk as an on-disk tablet (§3.2). Because the tree is
    persistent, {!snapshot} hands queries an immutable view for free. *)

type t

(** [create ~id ~period ~created_at ()] — [id] becomes the tablet id of
    the on-disk tablet this memtable flushes into; [created_at] starts the
    age-based flush timer (§3.4.1: at most 10 minutes of data at risk). *)
val create : id:int -> period:Period.t -> created_at:int64 -> t

val id : t -> int

val period : t -> Period.t

val created_at : t -> int64

(** [insert t ~key ~ts row] adds a row under its encoded key.
    [`Duplicate] when the key is already present. *)
val insert : t -> key:string -> ts:int64 -> Value.t array -> [ `Ok | `Duplicate ]

val mem : t -> string -> bool

val row_count : t -> int

(** Approximate bytes of row data held (encoded key + value sizes). *)
val byte_size : t -> int

(** Row-timestamp range actually present ([None] when empty). *)
val ts_range : t -> (int64 * int64) option

(** An immutable snapshot of the current contents. *)
val snapshot : t -> Value.t array Avl.t

(** Record encoded bytes contributed by a row (called by the table with
    [Row_codec.stored_size]). Separated from {!insert} so the memtable
    does not need the schema. *)
val add_bytes : t -> int -> unit
