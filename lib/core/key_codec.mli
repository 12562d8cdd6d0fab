(** Order-preserving primary-key encoding.

    LittleTable sorts rows within tablets by primary key and answers every
    query as an ordered scan over a key range (§3.1). We encode each key
    as a byte string such that

    - byte-wise [String.compare] on encodings equals the column-by-column
      value order, and
    - the encoding is {e prefix-preserving}: the encoding of key columns
      [v1..vk] is a byte prefix of any full key beginning with those
      values, so a key-prefix query is exactly a byte-prefix range.

    Per-type forms: integers and timestamps are sign-flipped big-endian;
    doubles use the IEEE total-order transform; strings and blobs escape
    0x00/0x01 (as 0x01 0x01 / 0x01 0x02) and end with a 0x00 terminator,
    which sorts below every escaped byte.

    Because the timestamp is the last key column, the final 8 bytes of any
    full encoded key are its timestamp — {!ts_of_key} exploits this to
    filter scans without decoding rows. *)

(** [encode_value buf v] appends the order-preserving form of [v]. *)
val encode_value : Buffer.t -> Value.t -> unit

(** {2 Cells in stored form}

    A cell of type [ctype] held in [data] as {!Value.encode} stores it:
    a number's 4 or 8 little-endian bytes at [off], or a string's or
    blob's [len] bytes at [off] (the bytes after its length prefix). Its
    key form is {!encode_value} of the decoded cell, read in place: how
    rows arriving in wire form get their keys without a [Value.t].
    Both raise [Invalid_argument] when the cell runs past [data]. *)

(** Byte length of the cell's key form. *)
val cell_size : Value.ctype -> string -> off:int -> len:int -> int

(** [blit_cell ctype data ~off ~len dst ~pos] writes the cell's key form
    into [dst] at [pos] and returns the position after it. *)
val blit_cell :
  Value.ctype -> string -> off:int -> len:int -> Bytes.t -> pos:int -> int

(** [decode_value ctype cur] inverts {!encode_value}. *)
val decode_value : Value.ctype -> Lt_util.Binio.cursor -> Value.t

(** Exact byte length {!encode_value} would produce, allocation-free. *)
val encoded_size : Value.t -> int

(** Exact byte length of {!encode_key}, allocation-free. *)
val key_size : Schema.t -> Value.t array -> int

(** Full primary key of a validated row. *)
val encode_key : Schema.t -> Value.t array -> string

(** [encode_key_into buf schema row] appends {!encode_key}'s bytes to
    [buf]. *)
val encode_key_into : Buffer.t -> Schema.t -> Value.t array -> unit

(** [encode_key_with_prefixes schema row] is the full encoded key paired
    with every proper column-boundary prefix (1 to k-1 key columns) —
    the strings inserted into a tablet's Bloom filter so that prefix
    membership tests work (§3.4.5). *)
val encode_key_with_prefixes : Schema.t -> Value.t array -> string * string list

(** [prefix_ends schema key ends] stores in [ends.(i)] the byte length of
    the proper column-boundary prefix with [i + 1] key columns (for [i]
    below k-1), read off the encoded full [key] in one scan without
    decoding it: fixed-width columns advance by their width, and a
    string or blob column ends at its terminating 0x00, which escaping
    keeps unique. These are the lengths of the prefixes
    {!encode_key_with_prefixes} returns. [ends] needs at least k-1
    slots. @raise Invalid_argument on a truncated key. *)
val prefix_ends : Schema.t -> string -> int array -> unit

(** [encode_prefix schema vs] encodes the first [List.length vs] key
    columns. @raise Schema.Invalid if the values do not match the leading
    key column types. *)
val encode_prefix : Schema.t -> Value.t list -> string

(** Key-column values of an encoded full key, in key order. *)
val decode_key : Schema.t -> string -> Value.t array

(** [decode_key_into schema cur row] decodes the full key held in [cur]'s
    window into [row]'s primary-key columns (schema indices), with no
    intermediate array. @raise Lt_util.Binio.Corrupt unless the window
    holds exactly one key. *)
val decode_key_into : Schema.t -> Lt_util.Binio.cursor -> Value.t array -> unit

(** Timestamp (microseconds) carried in the last 8 bytes of a full key. *)
val ts_of_key : string -> int64

(** [ts_at s ~off ~len] is {!ts_of_key} of the key held in the [len]
    bytes of [s] at [off], read in place. *)
val ts_at : string -> off:int -> len:int -> int64

(** [prefix_succ p] is the smallest byte string greater than every string
    having [p] as a prefix, or [None] when no such string exists (all
    0xff). Used to turn prefix bounds into half-open byte ranges. *)
val prefix_succ : string -> string option
