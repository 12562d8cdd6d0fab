(** B+trees with epoch-owned nodes: the memtable's sorted index.

    "LittleTable places newly inserted rows into an in-memory tablet,
    implemented as a balanced binary tree" (§3.2). This one is a B+tree
    of small sorted arrays (up to 32 keys per leaf, 32 children per
    inner node) instead: a lookup follows a few array nodes rather than
    a node and a key string per binary level, and the leaf a poll
    cycle's next row lands in is usually the one its last row did.

    Every node records the epoch that owns it. {!add} under a writer's
    current epoch shifts keys inside the nodes that epoch owns and
    copies into it every other node it changes, so a filling memtable
    pays for a leaf copy once per epoch, not per row.

    The contract that keeps readers safe: a root handed out while epoch
    [e] was current is never written once the writer has moved on to a
    later epoch. Its nodes all belong to [e] or earlier, and a later
    epoch only ever copies them. So {!freeze} bumps the epoch as it
    hands out a root ({!Memtable.snapshot}), and every node a reader can
    reach is frozen from then on. Readers in other threads or domains
    may walk such a root without a lock; only the owner, under its own
    lock, may use the writer.

    {b The finger.} A writer remembers the leaf its last insert landed
    in and the separator bounds that route keys to it. An insert whose
    key falls inside those bounds, into a leaf the current epoch owns
    that has room, goes straight to that leaf's binary search; any
    other insert descends from the root. So ascending runs skip the
    descent, and random-order input pays one failed bounds check.

    Keys are byte strings compared with [String.compare] (encoded
    primary keys); an insert refuses a key already present, which is
    how primary-key uniqueness is enforced within a filling tablet. *)

(** A frozen tree: the root a writer handed out, and its size. *)
type 'v t

(** The live tree of one owner. *)
type 'v writer

val writer : unit -> 'v writer

(** [add w k v] binds [k] to [v] under [w]'s current epoch; [false],
    with [w] unchanged, when [k] is already bound. Every root [w]
    handed out before is left as it was. *)
val add : 'v writer -> string -> 'v -> bool

val writer_mem : 'v writer -> string -> bool

val writer_length : 'v writer -> int

(** [freeze w] is [w]'s current contents, frozen: [w] moves to a new
    epoch, so later inserts copy every node the result reaches rather
    than write it. *)
val freeze : 'v writer -> 'v t

val length : 'v t -> int

val min_key : 'v t -> string option

val max_key : 'v t -> string option

(** In-order fold over all bindings, ascending. *)
val fold : (string -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc

(** {1 Range iteration}

    Pull-based iterators for the merge cursor. Bounds are half open:
    ascending iterators yield keys in [\[lo, hi)]; descending iterators
    yield keys in [\[lo, hi)] in reverse. A missing bound is infinite.
    An iterator reads the tree as it goes, so it walks a frozen tree
    only. *)

type 'v iter

val iter_asc : ?lo:string -> ?hi:string -> 'v t -> 'v iter

val iter_desc : ?lo:string -> ?hi:string -> 'v t -> 'v iter

(** [next it f] is [f k v] of the next binding, or [None] past the
    last; the binding itself is never boxed as a pair. *)
val next : 'v iter -> (string -> 'v -> 'a) -> 'a option

(** Structural invariant check, exposed for property tests: every node
    sorted and inside its separators' bounds, every leaf at one depth,
    node occupancy within the fanout, and the size the leaves' total. *)
val invariant_ok : 'v t -> bool
