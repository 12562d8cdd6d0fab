(** Column types and cell values.

    LittleTable supports "32-bit and 64-bit integers, double precision
    floating point numbers, timestamps, variable length strings, and byte
    arrays", and deliberately has no nulls (§3.5). Timestamps are [int64]
    microseconds since the Unix epoch. *)

(** The declared type of a column. *)
type ctype =
  | T_int32
  | T_int64
  | T_double
  | T_timestamp
  | T_string
  | T_blob

type t =
  | Int32 of int32
  | Int64 of int64
  | Double of float
  | Timestamp of int64  (** microseconds since the epoch *)
  | String of string
  | Blob of string

val type_of : t -> ctype

val type_name : ctype -> string

val type_of_name : string -> ctype option

(** The conventional default for a type: zero / the epoch / empty. *)
val zero : ctype -> t

(** [matches ctype v] holds when [v] inhabits [ctype]. *)
val matches : ctype -> t -> bool

(** [widen ~from ~into v]: the only supported type promotion is
    [T_int32 -> T_int64] (§3.5 allows increasing the precision of 32-bit
    integer columns). Returns [None] for any other changed type. *)
val widen : from:ctype -> into:ctype -> t -> t option

(** Total order within a type; comparing values of different types is a
    programming error. @raise Invalid_argument on a type mismatch. *)
val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** {1 Serialization} (compact, non-order-preserving; see {!Key_codec}
    for the order-preserving key form) *)

val encode : Buffer.t -> t -> unit

(** Exact byte length {!encode} would produce, allocation-free. *)
val encoded_size : t -> int

val decode : ctype -> Lt_util.Binio.cursor -> t

(** [skip ctype cur] advances [cur] past one encoded value of [ctype],
    exactly as far as {!decode} would, without allocating — how a
    columnar scan steps over the cells outside its window.
    @raise Lt_util.Binio.Corrupt on truncated input. *)
val skip : ctype -> Lt_util.Binio.cursor -> unit
