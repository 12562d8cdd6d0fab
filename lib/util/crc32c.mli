(** CRC-32C (Castagnoli), the checksum used to protect tablet blocks and
    footers on disk. Table-driven slicing-by-8: eight 256-entry tables,
    two little-endian 32-bit loads per 8 input bytes, and a bytewise
    tail. *)

type t = int32

(** [string ?off ?len s] is the CRC-32C of the given substring of [s]
    (defaults: the whole string). *)
val string : ?off:int -> ?len:int -> string -> t

val bytes : ?off:int -> ?len:int -> bytes -> t

(** Incremental interface: [update crc s off len] extends [crc]. Start from
    {!empty}. *)
val empty : t

val update : t -> string -> int -> int -> t
