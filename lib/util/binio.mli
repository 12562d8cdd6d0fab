(** Binary encoding and decoding helpers.

    All multi-byte integers are little-endian unless the function name says
    otherwise. Encoders append to a [Buffer.t]; decoders read from a
    [string] at an explicit cursor so that callers can stream through a
    buffer without copies. Decoders raise {!Corrupt} on any malformed
    input rather than returning partial results. *)

exception Corrupt of string

(** A read cursor over an immutable string, bounded by [limit] so a
    decoder can be confined to a slice of a larger buffer (a block
    payload, a frame) without copying the slice out first. *)
type cursor = { data : string; mutable pos : int; limit : int }

(** [cursor ?pos ?len data] reads [data] from [pos] (default 0) for
    [len] bytes (default: to the end). {!expect_end} and {!remaining}
    are relative to the window, so slice decoders keep the same
    trailing-garbage checks as whole-string decoders. *)
val cursor : ?pos:int -> ?len:int -> string -> cursor

val remaining : cursor -> int

(** [skip c n] advances past [n] bytes without decoding them — the
    zero-copy scan primitive: a reader that only needs a row's byte
    span steps over the values it does not care about. *)
val skip : cursor -> int -> unit

(** {1 Fixed-width encoders} *)

val put_u8 : Buffer.t -> int -> unit
val put_u16 : Buffer.t -> int -> unit
val put_u32 : Buffer.t -> int -> unit
val put_i32 : Buffer.t -> int32 -> unit
val put_i64 : Buffer.t -> int64 -> unit
val put_double : Buffer.t -> float -> unit

(** {1 Fixed-width decoders} *)

val get_u8 : cursor -> int
val get_u16 : cursor -> int
val get_u32 : cursor -> int
val get_i32 : cursor -> int32
val get_i64 : cursor -> int64
val get_double : cursor -> float

(** {1 Variable-width integers}

    LEB128 unsigned varints; used for lengths and counts. *)

val put_varint : Buffer.t -> int -> unit
val get_varint : cursor -> int

(** Bytes {!put_varint} would emit — for allocation-free size math. *)
val varint_size : int -> int

(** {1 Length-prefixed byte strings} *)

val put_string : Buffer.t -> string -> unit
val get_string : cursor -> string

(** [get_bytes c n] reads exactly [n] bytes. *)
val get_bytes : cursor -> int -> string

val expect_end : cursor -> unit
(** Raise {!Corrupt} unless the cursor consumed its whole input. *)
