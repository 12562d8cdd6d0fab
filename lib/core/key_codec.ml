open Lt_util

(* Big-endian bytes of [x lxor mask]. The mask is applied inside the
   loop so a caller passes the value it already holds: a computed int64
   handed to a function that is not inlined is boxed. *)
let put_be64_xor buf x mask =
  for i = 7 downto 0 do
    Buffer.add_char buf
      (Char.unsafe_chr
         (Int64.to_int (Int64.shift_right_logical (Int64.logxor x mask) (i * 8))
         land 0xff))
  done

(* One bounds-checked 8-byte read. *)
let get_be64 cur =
  if Binio.remaining cur < 8 then
    raise (Binio.Corrupt "key: truncated 8-byte column");
  let x = String.get_int64_be cur.Binio.data cur.Binio.pos in
  cur.Binio.pos <- cur.Binio.pos + 8;
  x

let flip_i64 x = Int64.logxor x Int64.min_int

(* Inverts the total-order transform of [encode_value]'s doubles. *)
let double_of_ordered x =
  if Int64.compare x 0L < 0 then Int64.float_of_bits (flip_i64 x)
  else Int64.float_of_bits (Int64.lognot x)

(* Most strings hold no 0x00/0x01 byte and are appended in one piece. *)
let encode_string buf s =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && Char.code (String.unsafe_get s !i) > 0x01 do incr i done;
  Buffer.add_substring buf s 0 !i;
  for j = !i to n - 1 do
    match String.unsafe_get s j with
    | '\x00' -> Buffer.add_string buf "\x01\x01"
    | '\x01' -> Buffer.add_string buf "\x01\x02"
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '\x00'

(* The slow path: unescape from the cursor into a buffer. *)
let decode_escaped cur =
  let b = Buffer.create 16 in
  let rec go () =
    match Binio.get_u8 cur with
    | 0x00 -> Buffer.contents b
    | 0x01 -> (
        match Binio.get_u8 cur with
        | 0x01 ->
            Buffer.add_char b '\x00';
            go ()
        | 0x02 ->
            Buffer.add_char b '\x01';
            go ()
        | n ->
            raise (Binio.Corrupt (Printf.sprintf "key string: bad escape %02x" n)))
    | n ->
        Buffer.add_char b (Char.chr n);
        go ()
  in
  go ()

(* Most strings hold no 0x00/0x01 byte, so their encoding is the string
   itself and a terminator: one [String.sub] up to the first byte below
   0x02, falling back to unescaping when that byte is an escape. *)
let decode_string cur =
  let data = cur.Binio.data and start = cur.Binio.pos in
  let limit = cur.Binio.limit in
  let i = ref start in
  while !i < limit && Char.code (String.unsafe_get data !i) > 0x01 do
    incr i
  done;
  if !i < limit && String.unsafe_get data !i = '\x00' then begin
    cur.Binio.pos <- !i + 1;
    String.sub data start (!i - start)
  end
  else decode_escaped cur

let encode_value buf = function
  | Value.Int32 x ->
      let x = Int32.logxor x Int32.min_int in
      for i = 3 downto 0 do
        Buffer.add_char buf
          (Char.unsafe_chr
             (Int32.to_int (Int32.shift_right_logical x (i * 8)) land 0xff))
      done
  | Value.Int64 x | Value.Timestamp x -> put_be64_xor buf x Int64.min_int
  | Value.Double f ->
      (* IEEE-754 total order: flip all bits of negatives, just the sign
         bit of non-negatives. Monotone w.r.t. Float.compare (including
         -0.0 < 0.0). *)
      let bits = Int64.bits_of_float f in
      let bits =
        if bits < 0L then Int64.lognot bits else Int64.logxor bits Int64.min_int
      in
      for i = 7 downto 0 do
        Buffer.add_char buf
          (Char.unsafe_chr
             (Int64.to_int (Int64.shift_right_logical bits (i * 8)) land 0xff))
      done
  | Value.String s | Value.Blob s -> encode_string buf s

(* Cells held as {!Value.encode} stores them: a number's little-endian
   bytes, a string's bytes after its length. Their key form is written
   straight into the key's bytes, whose length is known up front. *)
let check_cell data ~off ~len =
  if off < 0 || len < 0 || off + len > String.length data then
    invalid_arg "Key_codec: cell outside the data"

let cell_size ctype data ~off ~len =
  check_cell data ~off ~len;
  match ctype with
  | Value.T_int32 -> 4
  | Value.T_int64 | Value.T_timestamp | Value.T_double -> 8
  | Value.T_string | Value.T_blob ->
      let n = ref (len + 1) in
      for i = off to off + len - 1 do
        if Char.code (String.unsafe_get data i) <= 0x01 then incr n
      done;
      !n

let blit_cell ctype data ~off ~len dst ~pos =
  check_cell data ~off ~len;
  match ctype with
  | Value.T_int32 ->
      Bytes.set_int32_be dst pos
        (Int32.logxor (String.get_int32_le data off) Int32.min_int);
      pos + 4
  | Value.T_int64 | Value.T_timestamp ->
      Bytes.set_int64_be dst pos
        (Int64.logxor (String.get_int64_le data off) Int64.min_int);
      pos + 8
  | Value.T_double ->
      (* The total-order transform of [encode_value]. *)
      let bits = String.get_int64_le data off in
      Bytes.set_int64_be dst pos
        (if bits < 0L then Int64.lognot bits else Int64.logxor bits Int64.min_int);
      pos + 8
  | Value.T_string | Value.T_blob ->
      let p = ref pos in
      for i = off to off + len - 1 do
        (match String.unsafe_get data i with
        | ('\x00' | '\x01') as c ->
            Bytes.set dst !p '\x01';
            incr p;
            Bytes.set dst !p (Char.unsafe_chr (Char.code c + 1))
        | c -> Bytes.set dst !p c);
        incr p
      done;
      Bytes.set dst !p '\x00';
      !p + 1

(* Exact size of [encode_value]'s output, without producing it: strings
   pay one extra byte per escaped 0x00/0x01 plus the terminator. *)
let encoded_size = function
  | Value.Int32 _ -> 4
  | Value.Int64 _ | Value.Timestamp _ | Value.Double _ -> 8
  | Value.String s | Value.Blob s ->
      let esc = ref 0 in
      String.iter (fun c -> if c = '\x00' || c = '\x01' then incr esc) s;
      String.length s + !esc + 1

let key_size schema row =
  Array.fold_left
    (fun acc i -> acc + encoded_size row.(i))
    0 (Schema.pkey schema)

let decode_value ctype cur =
  match ctype with
  | Value.T_int32 ->
      if Binio.remaining cur < 4 then
        raise (Binio.Corrupt "key: truncated 4-byte column");
      let x = String.get_int32_be cur.Binio.data cur.Binio.pos in
      cur.Binio.pos <- cur.Binio.pos + 4;
      Value.Int32 (Int32.logxor x Int32.min_int)
  | Value.T_int64 -> Value.Int64 (flip_i64 (get_be64 cur))
  | Value.T_timestamp -> Value.Timestamp (flip_i64 (get_be64 cur))
  | Value.T_double -> Value.Double (double_of_ordered (get_be64 cur))
  | Value.T_string -> Value.String (decode_string cur)
  | Value.T_blob -> Value.Blob (decode_string cur)

let encode_key_into buf schema row =
  let pkey = Schema.pkey schema in
  for j = 0 to Array.length pkey - 1 do
    encode_value buf row.(pkey.(j))
  done

let encode_key schema row =
  let buf = Buffer.create 32 in
  encode_key_into buf schema row;
  Buffer.contents buf

let encode_key_with_prefixes schema row =
  let buf = Buffer.create 32 in
  let pkey = Schema.pkey schema in
  let k = Array.length pkey in
  let prefixes = ref [] in
  Array.iteri
    (fun i col ->
      encode_value buf row.(col);
      if i < k - 1 then prefixes := Buffer.contents buf :: !prefixes)
    pkey;
  (Buffer.contents buf, List.rev !prefixes)

let prefix_ends schema key ends =
  let pkey = Schema.pkey schema in
  let cols = Schema.columns schema in
  let pos = ref 0 in
  for i = 0 to Array.length pkey - 2 do
    (pos :=
       match cols.(pkey.(i)).Schema.ctype with
       | Value.T_int32 -> !pos + 4
       | Value.T_int64 | Value.T_timestamp | Value.T_double -> !pos + 8
       | Value.T_string | Value.T_blob -> (
           match String.index_from key !pos '\x00' with
           | z -> z + 1
           | exception Not_found ->
               invalid_arg "Key_codec.prefix_ends: unterminated string"));
    if !pos >= String.length key then
      invalid_arg "Key_codec.prefix_ends: truncated key";
    ends.(i) <- !pos
  done

let encode_prefix schema values =
  let pkey = Schema.pkey schema in
  let cols = Schema.columns schema in
  let n = List.length values in
  if n > Array.length pkey then
    raise (Schema.Invalid "key prefix longer than the primary key");
  let buf = Buffer.create 32 in
  List.iteri
    (fun i v ->
      let col = cols.(pkey.(i)) in
      if not (Value.matches col.Schema.ctype v) then
        raise
          (Schema.Invalid
             (Printf.sprintf "key prefix: column %S expects %s, got %s"
                col.Schema.name
                (Value.type_name col.Schema.ctype)
                (Value.type_name (Value.type_of v))));
      encode_value buf v)
    values;
  Buffer.contents buf

let decode_key schema key =
  let cur = Binio.cursor key in
  let pkey = Schema.pkey schema in
  let cols = Schema.columns schema in
  let vs =
    Array.map (fun i -> decode_value cols.(i).Schema.ctype cur) pkey
  in
  Binio.expect_end cur;
  vs

let decode_key_into schema cur row =
  let cols = Schema.columns schema and pkey = Schema.pkey schema in
  for j = 0 to Array.length pkey - 1 do
    let i = pkey.(j) in
    row.(i) <- decode_value cols.(i).Schema.ctype cur
  done;
  Binio.expect_end cur

let ts_at s ~off ~len =
  if len < 8 then invalid_arg "ts_of_key: key shorter than 8 bytes";
  flip_i64 (String.get_int64_be s (off + len - 8))

let ts_of_key key = ts_at key ~off:0 ~len:(String.length key)

let prefix_succ p =
  let n = String.length p in
  let b = Bytes.of_string p in
  let rec go i =
    if i < 0 then None
    else if Bytes.get b i = '\xff' then go (i - 1)
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  go (n - 1)
