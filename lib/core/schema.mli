(** Table schemas.

    "The schema of a table in LittleTable consists of a set of columns,
    each of which has a name, type, and default value. An ordered subset
    of these columns form the table's primary key. The final column in
    this subset must be of type timestamp and named 'ts'." (§3.1)

    Supported evolutions (§3.5): appending columns, widening int32
    value (non-key) columns to int64, and changing the TTL (the TTL lives in the table
    descriptor, not here). Each evolution bumps {!version}; tablet footers
    record the schema they were written with and readers translate rows
    forward with {!translate_row}. *)

type column = { name : string; ctype : Value.ctype; default : Value.t }

type t

exception Invalid of string

(** [create ~columns ~pkey] validates and builds a schema.
    @raise Invalid when: [columns] is empty or has duplicate names; a
    default does not match its column type; [pkey] is empty, names an
    unknown or duplicate column, or does not end with a [timestamp]
    column named ["ts"]. *)
val create : columns:column list -> pkey:string list -> t

val columns : t -> column array

(** Indices (into {!columns}) of the primary-key columns, in key order. *)
val pkey : t -> int array

(** Index of the row-timestamp column (the last primary-key column). *)
val ts_index : t -> int

val version : t -> int

val column_count : t -> int

val find_column : t -> string -> int option

val pkey_names : t -> string list

(** [is_pkey t i] holds when column [i] participates in the primary key. *)
val is_pkey : t -> int -> bool

(** [validate_row t row] checks arity and per-column types.
    @raise Invalid otherwise. *)
val validate_row : t -> Value.t array -> unit

(** Timestamp of a validated row (microseconds). *)
val row_ts : t -> Value.t array -> int64

(** {1 Evolution} *)

(** [add_column t col] appends a column (never to the key).
    @raise Invalid on a duplicate name or type/default mismatch. *)
val add_column : t -> column -> t

(** [widen_column t name] turns an int32 column into int64. A key
    column cannot be widened: its cell grows from 4 to 8 bytes in every
    encoded key, and tablets already on disk, never rewritten, would
    then sort and look up their rows under the old width.
    @raise Invalid if [name] is unknown, not int32, or in the key. *)
val widen_column : t -> string -> t

(** [translate_row ~from ~into row] rewrites a row written under schema
    [from] for reading under [into]: widened cells are promoted and
    missing columns take [into]'s defaults. Assumes [into] evolved from
    [from] by the supported operations. @raise Invalid otherwise. *)
val translate_row : from:t -> into:t -> Value.t array -> Value.t array

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Serialization} (descriptor files and tablet footers) *)

val encode : Buffer.t -> t -> unit

val decode : Lt_util.Binio.cursor -> t

(** Single-column codec (used by the wire protocol's ALTER message). *)
val encode_column : Buffer.t -> column -> unit

val decode_column : Lt_util.Binio.cursor -> column
