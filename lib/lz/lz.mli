(** Byte-oriented LZ77 block compression.

    LittleTable compresses tablet blocks and footers with a fast,
    low-ratio codec — the paper uses LZO1X-1 (§3.5). This module is a
    from-scratch equivalent in the same family: a single-pass greedy LZ77
    with a hash table over 4-byte windows, 16-bit match offsets, and a
    token format in the LZ4 style (high nibble literal length, low nibble
    match length, 255-extension bytes).

    Properties the engine relies on:
    - exact round trip: [decompress (compress s) = s] for every [s];
    - incompressible input (e.g. the xorshift benchmark data) expands by
      at most ~0.5 % plus a small constant;
    - compression never reads outside the input and decompression never
      writes outside the declared output size, raising {!Corrupt} on any
      malformed block. *)

exception Corrupt of string

(** [compress s] is the compressed representation of [s]. The empty
    string compresses to the empty string. *)
val compress : string -> string

(** [decompress ?off ?len ~raw_len s] inflates the [len] bytes of [s]
    starting at [off] (default: all of [s]), which must decode to exactly
    [raw_len] bytes. The window lets a caller inflate a payload straight
    out of the frame that holds it, without copying it out first.
    @raise Corrupt if the window is not a valid block or decodes to a
    different length.
    @raise Invalid_argument if the window lies outside [s]. *)
val decompress : ?off:int -> ?len:int -> raw_len:int -> string -> string

(** [max_compressed_len n] is an upper bound on [String.length (compress s)]
    for any [s] with [String.length s = n]. *)
val max_compressed_len : int -> int
