exception Corrupt of string

type cursor = { data : string; mutable pos : int; limit : int }

let cursor ?(pos = 0) ?len data =
  let limit =
    match len with None -> String.length data | Some n -> pos + n
  in
  if limit > String.length data then
    invalid_arg "Binio.cursor: window past end of data";
  { data; pos; limit }

let remaining c = c.limit - c.pos

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let need c n =
  if remaining c < n then
    corrupt "unexpected end of input: need %d bytes at offset %d, have %d" n
      c.pos (remaining c)

let skip c n =
  if n < 0 then corrupt "skip: negative count %d" n;
  need c n;
  c.pos <- c.pos + n

let rest c =
  let s = String.sub c.data c.pos (remaining c) in
  (c.pos <- c.limit)
  [@lint.allow
    "domain-race: a cursor is call-local decode state that never \
     outlives the decoding call that allocated it, so every access \
     happens-before the next on the same thread; any lock a caller \
     happens to hold at one site is incidental, not a contract"];
  s

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_u16 b v =
  put_u8 b v;
  put_u8 b (v lsr 8)

let put_i32 b v = Buffer.add_int32_le b v

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then corrupt "put_u32: %d out of range" v;
  Buffer.add_int32_le b (Int32.of_int v)

let put_i64 b v = Buffer.add_int64_le b v

let put_double b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  let lo = get_u8 c in
  let hi = get_u8 c in
  lo lor (hi lsl 8)

let get_i32 c =
  need c 4;
  let v = String.get_int32_le c.data c.pos in
  c.pos <- c.pos + 4;
  v

let get_u32 c = Int32.to_int (get_i32 c) land 0xffff_ffff

let get_i64 c =
  need c 8;
  let v = String.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  v

let get_double c = Int64.float_of_bits (get_i64 c)

(* The varint loops are loops, not local recursive functions: a local
   function that captures the buffer or cursor is a closure allocated on
   every call, and every length prefix on the read and write paths goes
   through here. *)
let put_varint b v =
  if v < 0 then corrupt "put_varint: negative %d" v;
  let v = ref v in
  while !v >= 0x80 do
    put_u8 b (0x80 lor (!v land 0x7f));
    v := !v lsr 7
  done;
  put_u8 b !v

let varint_size v =
  if v < 0 then corrupt "varint_size: negative %d" v;
  let rec go v n = if v < 0x80 then n else go (v lsr 7) (n + 1) in
  go v 1

let get_varint c =
  let shift = ref 0 and acc = ref 0 and more = ref true in
  while !more do
    if !shift > 62 then corrupt "varint too long at offset %d" c.pos;
    let byte = get_u8 c in
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    if byte land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

let get_bytes c n =
  if n < 0 then corrupt "negative byte count %d" n;
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_string c =
  let n = get_varint c in
  get_bytes c n

let expect_end c =
  if remaining c <> 0 then corrupt "%d trailing bytes at offset %d" (remaining c) c.pos
