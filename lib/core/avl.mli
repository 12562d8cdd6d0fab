(** AVL trees with epoch-owned nodes.

    "LittleTable places newly inserted rows into an in-memory tablet,
    implemented as a balanced binary tree" (§3.2). Every node records
    the epoch that owns it. {!insert_owned} under epoch [e] mutates in
    place the nodes [e] owns and copies into [e] every other node on
    its way, so a filling memtable pays for one node per row, not for a
    copied path.

    The contract that keeps readers safe: a root handed out while
    epoch [e] was current is never written once the owner has moved on
    to a later epoch. Its nodes all belong to [e] or earlier, and a
    later epoch only ever copies them. So the owner bumps its epoch when
    it hands out a root ({!Memtable.snapshot}), and every node a reader
    can reach is frozen from then on. Readers in other threads or
    domains may walk such a root without a lock; only the owner, under
    its own lock, may walk the live tree.

    {!insert} is the persistent insert (it owns nothing, so it copies
    its whole path), the reference the owned insert is checked against.

    Keys are byte strings compared with [String.compare] (encoded primary
    keys); insertion rejects duplicates, which is how primary-key
    uniqueness is enforced within a filling tablet. *)

type 'v t

val empty : 'v t

val is_empty : 'v t -> bool

val length : 'v t -> int

(** [insert k v t] is [`Duplicate] when [k] is already bound. [t] is
    left as it was either way. *)
val insert : string -> 'v -> 'v t -> [ `Ok of 'v t | `Duplicate ]

exception Duplicate

(** [insert_owned ~epoch k v t] binds [k] to [v], mutating the nodes
    of [t] that [epoch] owns and copying into [epoch] the others it
    changes; returns the new root. Every tree that shares nodes with
    [t] and was handed out before [epoch] began is left as it was.
    @raise Duplicate when [k] is already bound; [t] is then unchanged.
    @raise Invalid_argument when [epoch] is negative. *)
val insert_owned : epoch:int -> string -> 'v -> 'v t -> 'v t

val find : string -> 'v t -> 'v option

val mem : string -> 'v t -> bool

val min_key : 'v t -> string option

val max_key : 'v t -> string option

(** In-order fold over all bindings, ascending. *)
val fold : (string -> 'v -> 'acc -> 'acc) -> 'v t -> 'acc -> 'acc

(** {1 Range iteration}

    Pull-based iterators for the merge cursor. Bounds are half open:
    ascending iterators yield keys in [\[lo, hi)]; descending iterators
    yield keys in [\[lo, hi)] in reverse. A missing bound is infinite.
    An iterator reads the tree as it goes, so it must walk a tree no
    insert writes while it runs: a frozen root (see above). *)

type 'v iter

val iter_asc : ?lo:string -> ?hi:string -> 'v t -> 'v iter

val iter_desc : ?lo:string -> ?hi:string -> 'v t -> 'v iter

(** [next it f] is [f k v] of the next binding, or [None] past the
    last; the binding itself is never boxed as a pair. *)
val next : 'v iter -> (string -> 'v -> 'a) -> 'a option

(** Internal balance invariant check, exposed for property tests:
    height difference of every node's children is at most one. *)
val invariant_ok : 'v t -> bool
