(** On-disk tablet blocks.

    "LittleTable writes an on-disk tablet as a sequence of rows sorted by
    their primary keys and grouped into 64 kB blocks" (§3.2). A block is
    the unit of read, decompression, and checksum. The serialized form is

    {v varint row_count | u32 offsets[row_count] | payload v}

    where [payload] holds, per row, a length-prefixed encoded key and a
    length-prefixed value. The offsets array supports the binary search
    within a block that query execution performs after the index search
    (§3.2).

    Blocks also come in a self-describing {e column-major} form (chosen
    at merge time for timespans older than [Config.columnar_age], after
    the HTAP layout split of real-time LSM-trees):

    {v u8 0xC7 | u8 version | varint rows | varint ncols
       | key section
       | per non-key column: u8 presence | [bitmap] | section v}

    where a section is [u8 codec | varint comp_len | varint raw_len |
    payload], independently LZ-compressed when that shrinks it. Key
    columns are not stored as sections — they are recovered from the
    key section's order-preserving encodings. A presence bitmap (bit
    set = value stored) elides cells equal to the stored schema's
    column default, and readers decompress only the columns a scan
    references. *)

type layout = Row_major | Col_major

(** A decoded block, row- or column-major (see {!decode}). *)
type t

(** {1 Building} *)

type builder

val builder : unit -> builder

(** Keys must be added in strictly ascending order (checked). *)
val add : builder -> key:string -> value:string -> unit

(** [add_enc b ~key value] is {!add} with the value encoding held in a
    caller-owned buffer, appended to the block payload without an
    intermediate string: how a tablet writer adds a row it has just
    encoded. *)
val add_enc : builder -> key:string -> Buffer.t -> unit

(** [add_entry b ~key src i] appends entry [i] of the row-major block
    [src], whose key is [key], as its stored bytes: the same ordering
    check as {!add}, no value string and no re-encoding. How merges and
    rewrites copy a row whose stored encoding is already the output's.
    @raise Invalid_argument when [src] is columnar or [key] is not the
    entry's key (by length).
    @raise Lt_util.Binio.Corrupt when the entry's key and value lengths
    do not exactly fill its span in [src]. *)
val add_entry : builder -> key:string -> t -> int -> unit

val entry_count : builder -> int

(** Bytes the block will occupy before compression. *)
val raw_size : builder -> int

val last_key : builder -> string option
val first_key : builder -> string option

(** Serialize and reset the builder. *)
val finish : builder -> string

(** {1 Columnar building} *)

type col_builder

(** Rows are buffered (not streamed) because every column's run must be
    contiguous in the output; the builder is sized and flushed by the
    tablet writer exactly like the row builder. *)
val col_builder : Schema.t -> col_builder

(** Keys must be added in strictly ascending order (checked); the row is
    a full validated row under the builder's schema. *)
val col_add : col_builder -> key:string -> Value.t array -> unit

val col_count : col_builder -> int

(** Approximate serialized size, for the flush threshold. *)
val col_raw_size : col_builder -> int

val col_last_key : col_builder -> string option

(** Serialize and reset the builder; also returns the per-column
    min/max/sum stats the tablet writer records in its footer so
    aggregate queries can answer whole blocks without reading them. *)
val col_finish : col_builder -> string * Agg.col_stats array

(** {1 Reading} *)

(** Decode a row-major block. The offset table is checked for length
    and read in place, so decoding copies nothing.
    @raise Lt_util.Binio.Corrupt on malformed input. *)
val decode : string -> t

(** Decode a column-major block written under the given (stored)
    schema. The key section is inflated eagerly and indexed (one offset
    and length per key), but no key is copied out of it; column
    sections stay compressed until {!columnar_rows} asks for them.
    @raise Lt_util.Binio.Corrupt on malformed input. *)
val decode_columnar : Schema.t -> string -> t

val layout : t -> layout

val count : t -> int

(** [key t i] copies entry [i]'s key out of the block; {!compare_key}
    and {!key_ts} read it in place. *)
val key : t -> int -> string

(** [compare_key t i k] is [String.compare (key t i) k], without the
    copy. *)
val compare_key : t -> int -> string -> int

(** [key_ts t i] is [Key_codec.ts_of_key (key t i)], without the copy. *)
val key_ts : t -> int -> int64

(** The decoded block's backing bytes — pair with {!value_span} for
    copy-free value access. *)
val data : t -> string

(** [value_span t i] is the [(offset, length)] window of entry [i]'s
    value encoding within {!data}, so scans can decode rows straight out
    of the block without allocating a value string per row. Row-major
    only. @raise Invalid_argument on a columnar block. *)
val value_span : t -> int -> int * int

(** [search_geq t k] is the smallest index whose key is [>= k], or
    [count t] when every key is smaller. Keys are compared in place. *)
val search_geq : t -> string -> int

(** {1 Columnar reading} *)

(** [columnar_rows ?cols t schema ~first ~last] materializes rows
    [\[first, last)] of a columnar block under its stored schema: row
    [first + i] is element [i] of the result. Primary-key columns are
    always filled from the keys; non-key columns are decoded only when
    listed in [cols] (default: all), others keep their schema defaults.
    Cells outside the window are stepped over with {!Value.skip}, which
    allocates nothing, so every wanted section is checked to its end
    whatever the window, an empty one included. Returns the rows and the
    number of column sections decoded.
    @raise Invalid_argument unless [0 <= first <= last <= count t].
    @raise Lt_util.Binio.Corrupt on a malformed section. *)
val columnar_rows :
  ?cols:int list ->
  t ->
  Schema.t ->
  first:int ->
  last:int ->
  Value.t array array * int
