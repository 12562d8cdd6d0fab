type t = int32

(* Reflected CRC-32C, polynomial 0x1EDC6F41 (reversed: 0x82F63B78).
   The hot loop works on native ints: OCaml's int32 is boxed, and a
   per-byte boxed operation would dominate the flush path. *)
let poly = 0x82F63B78

(* Slicing-by-8: table [k] (entries [k * 256 .. k * 256 + 255]) advances
   a byte's contribution past [k] further zero bytes, so one step folds
   eight input bytes with eight independent lookups. Table 0 is the
   classic bytewise table. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         let lsb = !c land 1 in
         c := !c lsr 1;
         if lsb <> 0 then c := !c lxor poly
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let empty = 0l

let mask32 = 0xFFFFFFFF

external get32u : string -> int -> int32 = "%caml_string_get32u"

external bswap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian 32-bit load as a non-negative native int. *)
let le32 s i =
  let x = get32u s i in
  Int32.to_int (if Sys.big_endian then bswap32 x else x) land mask32

let update crc s off len =
  let t = Lazy.force tables in
  let c = ref (Int32.to_int (Int32.lognot crc) land mask32) in
  let i = ref off in
  let stop8 = off + len - 8 in
  while !i <= stop8 do
    let one = le32 s !i lxor !c in
    let two = le32 s (!i + 4) in
    c :=
      Array.unsafe_get t ((7 * 256) + (one land 0xff))
      lxor Array.unsafe_get t ((6 * 256) + ((one lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 * 256) + ((one lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 * 256) + (one lsr 24))
      lxor Array.unsafe_get t ((3 * 256) + (two land 0xff))
      lxor Array.unsafe_get t ((2 * 256) + ((two lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((two lsr 16) land 0xff))
      lxor Array.unsafe_get t (two lsr 24);
    i := !i + 8
  done;
  for j = !i to off + len - 1 do
    let idx = (!c lxor Char.code (String.unsafe_get s j)) land 0xff in
    c := (!c lsr 8) lxor Array.unsafe_get t idx
  done;
  Int32.lognot (Int32.of_int !c)

let string ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc32c.string: bad substring";
  update empty s off len

let bytes ?off ?len b = string ?off ?len (Bytes.unsafe_to_string b)
