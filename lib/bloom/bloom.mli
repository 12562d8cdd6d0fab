(** Bloom filters over tablet keys.

    Section 3.4.5 of the paper proposes storing "with each on-disk tablet a
    Bloom filter summarizing the tablet's keys, as in bLSM", at a cost of
    10 bits per row, to skip ~99 % of tablets on latest-row-for-prefix
    queries and duplicate-key checks. We implement that extension: each
    tablet footer carries one filter built over the encoded primary keys
    {e and} every proper key prefix at column granularity, so prefix
    membership tests work too.

    Standard double-hashing construction: k index functions derived from
    two 64-bit hashes of the key. *)

type t

(** [create ~bits_per_key ~expected_keys] sizes a filter for
    [expected_keys] insertions at [bits_per_key] bits each (the paper's
    default is 10, giving ~1 % false positives). *)
val create : ?bits_per_key:int -> expected_keys:int -> unit -> t

val add : t -> string -> unit

(** [add_with_prefixes t ~seen key ends] sets exactly the bits of {!add}
    [t key] plus {!add} [t (String.sub key 0 e)] for every [e] in
    [ends], but hashes [key] once and allocates nothing: each prefix's
    hashes are the running hash state at its boundary. [ends] must be
    strictly ascending, each in [\[1, String.length key)].

    [seen] lets a writer that adds sorted keys skip prefixes it just
    added: it holds, per boundary [j], the hash pair last inserted there
    (slots [2j] and [2j + 1]), and a boundary whose pair matches is not
    set again, since it would set the same bits. The bits of [t] are
    those {!add} would set provided every pair [seen] holds was inserted
    into [t]: fill it with [-1] whenever the filter it serves is
    created.
    @raise Invalid_argument if an end lies outside the key, or [seen]
    has fewer than two slots per end. *)
val add_with_prefixes : t -> seen:int array -> string -> int array -> unit

(** [mem t key] is [false] only if [key] was never added; [true] may be a
    false positive. *)
val mem : t -> string -> bool

(** Number of bits in the filter. *)
val bit_count : t -> int

val hash_count : t -> int

(** {1 Serialization} (stored in the tablet footer) *)

val encode : Buffer.t -> t -> unit

val decode : Lt_util.Binio.cursor -> t
