(** A stable 64-bit string hash: FNV-1a 64 with a murmur-style fmix64
    finalizer.

    Deterministic across processes and OCaml versions, unlike
    [Hashtbl.hash], so shard placement computed by a router and by any
    other process agrees byte for byte. The finalizer matters: bare
    FNV-1a diffuses its low bits poorly and barely moves the high bits
    for short inputs that differ only in their last bytes (consecutive
    int64 keys, vnode indices), which would collapse a placement ring
    and skew the leading-zero statistic HyperLogLog relies on. *)

val hash : string -> int64
