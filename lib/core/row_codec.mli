(** Row serialization for storage.

    A stored row is split into its encoded primary key (see {!Key_codec})
    and a compact value part holding the non-key columns in schema order;
    nothing is stored twice. Decoding recovers the full row in schema
    column order, translating forward when the tablet was written under an
    older schema version.

    The [_into] / [_slice] forms are the batched hot path: encoders append
    straight into a caller-owned buffer (one block payload, one wire
    frame) and decoders read a window of a larger string, so neither side
    allocates a per-row intermediate value string. *)

(** Non-key columns of a validated row, in schema order. *)
val encode_value : Schema.t -> Value.t array -> string

(** Append the value encoding of [row] to [buf] — {!encode_value} without
    the intermediate string. *)
val encode_value_into : Buffer.t -> Schema.t -> Value.t array -> unit

(** [decode schema ~key ~value] rebuilds the full row. *)
val decode : Schema.t -> key:string -> value:string -> Value.t array

(** [decode_translated ~from ~into ~key ~value] decodes a row written
    under schema [from] and translates it to [into] (§3.5: cells are
    widened or filled with defaults; on-disk tablets are never
    rewritten). *)
val decode_translated :
  from:Schema.t -> into:Schema.t -> key:string -> value:string -> Value.t array

(** Slice form of {!decode_translated}. *)
val decode_translated_slice :
  from:Schema.t -> into:Schema.t -> key:string -> data:string -> off:int ->
  len:int -> Value.t array

(** Exact byte length of {!encode_value}'s output, allocation-free. *)
val value_size : Schema.t -> Value.t array -> int

(** Exact stored size of a row in bytes (key + value encodings),
    computed without running either encoder. *)
val stored_size : Schema.t -> Value.t array -> int
