open Lt_util

type layout = Row_major | Col_major

(* The payload is built incrementally in one buffer, so a row reaches it
   either as its stored entry bytes ({!add_entry}) or as a value encoded
   once into a caller-owned buffer ({!add_enc}), never as a per-row
   value string. The offset table is built as its serialized bytes, and
   the first and last keys are plain fields read only once [count > 0],
   so an entry costs the builder no allocation of its own. *)
type builder = {
  payload : Buffer.t;
  offsets : Buffer.t;  (** u32 per entry, as {!finish} writes them *)
  mutable count : int;
  mutable first : string;
  mutable last : string;
}

let builder () =
  { payload = Buffer.create 4096;
    offsets = Buffer.create 1024;
    count = 0;
    first = "";
    last = "" }

(* The ordering check and bookkeeping every entry goes through, before
   its bytes are appended at the recorded offset. *)
let start_entry b ~key =
  if b.count > 0 && String.compare key b.last <= 0 then
    invalid_arg "Block.add: keys must be strictly ascending";
  Binio.put_u32 b.offsets (Buffer.length b.payload);
  if b.count = 0 then b.first <- key;
  b.count <- b.count + 1;
  b.last <- key

let add_enc b ~key value =
  start_entry b ~key;
  Binio.put_string b.payload key;
  Binio.put_varint b.payload (Buffer.length value);
  Buffer.add_buffer b.payload value

let add b ~key ~value =
  start_entry b ~key;
  Binio.put_string b.payload key;
  Binio.put_string b.payload value

let entry_count b = b.count

let raw_size b = Buffer.length b.payload + Buffer.length b.offsets + 5

let last_key b = if b.count = 0 then None else Some b.last

let first_key b = if b.count = 0 then None else Some b.first

let finish b =
  let out = Buffer.create (raw_size b) in
  Binio.put_varint out b.count;
  Buffer.add_buffer out b.offsets;
  Buffer.add_buffer out b.payload;
  Buffer.clear b.payload;
  Buffer.clear b.offsets;
  b.count <- 0;
  b.first <- "";
  b.last <- "";
  Buffer.contents out

(* {1 Columnar building} *)

let col_magic = 0xC7

let col_version = 1

type col_builder = {
  cb_schema : Schema.t;
  mutable cb_rows : (string * Value.t array) list;  (** reversed *)
  mutable cb_count : int;
  mutable cb_bytes : int;
  mutable cb_last : string option;
}

let col_builder schema =
  { cb_schema = schema;
    cb_rows = [];
    cb_count = 0;
    cb_bytes = 0;
    cb_last = None }

let col_add b ~key row =
  (match b.cb_last with
  | Some last when String.compare key last <= 0 ->
      invalid_arg "Block.col_add: keys must be strictly ascending"
  | _ -> ());
  b.cb_rows <- (key, row) :: b.cb_rows;
  b.cb_count <- b.cb_count + 1;
  b.cb_bytes <-
    b.cb_bytes + String.length key + 4
    + Array.fold_left (fun a v -> a + Value.encoded_size v) 0 row;
  b.cb_last <- Some key

let col_count b = b.cb_count

let col_raw_size b = b.cb_bytes + 16

let col_last_key b = b.cb_last

(* A section is one independently compressed byte run:
   {v u8 codec | varint comp_len | varint raw_len | payload v}
   with codec 1 = LZ (used only when it actually shrinks), 0 = raw. *)
let put_section out raw =
  let comp = Lt_lz.Lz.compress raw in
  if String.length comp < String.length raw then begin
    Binio.put_u8 out 1;
    Binio.put_varint out (String.length comp);
    Binio.put_varint out (String.length raw);
    Buffer.add_string out comp
  end
  else begin
    Binio.put_u8 out 0;
    Binio.put_varint out (String.length raw);
    Binio.put_varint out (String.length raw);
    Buffer.add_string out raw
  end

let col_finish b =
  let n = b.cb_count in
  let pairs = Array.of_list (List.rev b.cb_rows) in
  let rows = Array.map snd pairs in
  let stats = Agg.stats_of_rows b.cb_schema rows ~count:n in
  let columns = Schema.columns b.cb_schema in
  let out = Buffer.create (b.cb_bytes + 64) in
  Binio.put_u8 out col_magic;
  Binio.put_u8 out col_version;
  Binio.put_varint out n;
  Binio.put_varint out (Array.length columns);
  let keysec = Buffer.create ((b.cb_bytes / 2) + 16) in
  Array.iter (fun (k, _) -> Binio.put_string keysec k) pairs;
  put_section out (Buffer.contents keysec);
  Array.iteri
    (fun c col ->
      if not (Schema.is_pkey b.cb_schema c) then begin
        let default = col.Schema.default in
        let stored = Array.map (fun r -> not (Value.equal r.(c) default)) rows in
        let n_stored =
          Array.fold_left (fun a s -> if s then a + 1 else a) 0 stored
        in
        let sec = Buffer.create 256 in
        if n_stored = n then begin
          (* Dense: every value differs from the default, skip the bitmap. *)
          Binio.put_u8 out 0;
          Array.iter (fun r -> Value.encode sec r.(c)) rows
        end
        else begin
          (* Sparse: bitmap bit i set = row i's value is stored explicitly;
             clear = the row holds the stored schema's column default. *)
          Binio.put_u8 out 1;
          let bm = Bytes.make ((n + 7) / 8) '\000' in
          Array.iteri
            (fun i s ->
              if s then
                Bytes.set bm (i / 8)
                  (Char.chr
                     (Char.code (Bytes.get bm (i / 8)) lor (1 lsl (i mod 8)))))
            stored;
          Buffer.add_bytes out bm;
          Array.iteri (fun i s -> if s then Value.encode sec rows.(i).(c)) stored
        end;
        put_section out (Buffer.contents sec)
      end)
    columns;
  (b.cb_rows <- [];
   b.cb_count <- 0;
   b.cb_bytes <- 0;
   b.cb_last <- None)
  [@lint.allow
    "domain-race: a [col_builder] is confined to the one tablet writer \
     that created it — merges fill and finish it under [maint_lock], a \
     straddling delete_prefix rewrite under its own writer lock; the \
     builder never escapes to another domain, the lock merely comes \
     with the caller"];
  (Buffer.contents out, stats)

(* {1 Reading} *)

(* Row offsets are read where the block holds them: entry [i] starts
   at [payload_start] plus the u32 at [r_table + 4i]. Decoding checks
   the table's extent once and copies nothing. *)
type row_repr = { r_count : int; r_table : int; payload_start : int }

type col_desc = {
  cd_bitmap : int option;  (** offset of the presence bitmap in [data] *)
  cd_codec : int;
  cd_off : int;
  cd_comp_len : int;
  cd_raw_len : int;
}

(* Keys stay where the key section holds them: [c_keys] is the section's
   raw bytes (the block data itself when the section is stored, its
   inflated copy when compressed), and key [i] is the [c_key_spans.(2i +
   1)] bytes at [c_key_spans.(2i)]. Scans compare keys in place and copy
   one out only for a row they yield. *)
type col_repr = {
  c_rows : int;
  c_keys : string;
  c_key_spans : int array;
  c_cols : col_desc option array;  (** [None] = primary-key column *)
}

type repr = Row_r of row_repr | Col_r of col_repr

type t = { data : string; repr : repr }

let decode data =
  let cur = Binio.cursor data in
  let count = Binio.get_varint cur in
  if count < 0 || count > String.length data then
    raise (Binio.Corrupt "block: implausible row count");
  let table = cur.Binio.pos in
  Binio.skip cur (4 * count);
  { data;
    repr = Row_r { r_count = count; r_table = table; payload_start = cur.Binio.pos } }

(* A section's raw bytes as a bounded cursor: a stored section is read
   in place, an LZ section is inflated straight out of the block data;
   neither copies the stored payload first. *)
let section_cursor data d =
  if d.cd_off + d.cd_comp_len > String.length data then
    raise (Binio.Corrupt "block: truncated column section");
  if d.cd_codec = 1 then
    match
      Lt_lz.Lz.decompress ~off:d.cd_off ~len:d.cd_comp_len
        ~raw_len:d.cd_raw_len data
    with
    | raw -> Binio.cursor raw
    | exception Lt_lz.Lz.Corrupt m -> raise (Binio.Corrupt ("block: " ^ m))
  else if d.cd_comp_len <> d.cd_raw_len then
    raise (Binio.Corrupt "block: section length mismatch")
  else Binio.cursor ~pos:d.cd_off ~len:d.cd_comp_len data

let get_section_desc cur ~bitmap =
  let codec = Binio.get_u8 cur in
  if codec <> 0 && codec <> 1 then
    raise (Binio.Corrupt "block: unknown section codec");
  let comp_len = Binio.get_varint cur in
  let raw_len = Binio.get_varint cur in
  if Binio.remaining cur < comp_len then
    raise (Binio.Corrupt "block: truncated column section");
  let off = cur.Binio.pos in
  Binio.skip cur comp_len;
  { cd_bitmap = bitmap; cd_codec = codec; cd_off = off; cd_comp_len = comp_len;
    cd_raw_len = raw_len }

let decode_columnar schema data =
  let cur = Binio.cursor data in
  if Binio.get_u8 cur <> col_magic then
    raise (Binio.Corrupt "block: bad columnar magic");
  if Binio.get_u8 cur <> col_version then
    raise (Binio.Corrupt "block: unknown columnar version");
  let rows = Binio.get_varint cur in
  if rows < 0 || rows > String.length data then
    raise (Binio.Corrupt "block: implausible row count");
  let ncols = Binio.get_varint cur in
  if ncols <> Schema.column_count schema then
    raise (Binio.Corrupt "block: column count does not match footer schema");
  let keys_desc = get_section_desc cur ~bitmap:None in
  let kcur = section_cursor data keys_desc in
  let spans = Array.make (2 * rows) 0 in
  for i = 0 to rows - 1 do
    let len = Binio.get_varint kcur in
    spans.((2 * i) + 1) <- len;
    spans.(2 * i) <- kcur.Binio.pos;
    Binio.skip kcur len
  done;
  Binio.expect_end kcur;
  let cols =
    Array.init ncols (fun c ->
        if Schema.is_pkey schema c then None
        else begin
          let presence = Binio.get_u8 cur in
          let bitmap =
            match presence with
            | 0 -> None
            | 1 ->
                let len = (rows + 7) / 8 in
                if Binio.remaining cur < len then
                  raise (Binio.Corrupt "block: truncated presence bitmap");
                let off = cur.Binio.pos in
                Binio.skip cur len;
                Some off
            | _ -> raise (Binio.Corrupt "block: unknown presence tag")
          in
          Some (get_section_desc cur ~bitmap)
        end)
  in
  Binio.expect_end cur;
  { data;
    repr =
      Col_r
        { c_rows = rows; c_keys = kcur.Binio.data; c_key_spans = spans;
          c_cols = cols } }

let layout t = match t.repr with Row_r _ -> Row_major | Col_r _ -> Col_major

let count t =
  match t.repr with
  | Row_r r -> r.r_count
  | Col_r c -> c.c_rows

let row_repr t =
  match t.repr with
  | Row_r r -> r
  | Col_r _ -> invalid_arg "Block: columnar block has no row payload"

let col_repr t =
  match t.repr with
  | Col_r c -> c
  | Row_r _ -> invalid_arg "Block: not a columnar block"

(* Where row-major entry [i] starts in [t.data]. *)
let entry_pos t r i =
  if i < 0 || i >= r.r_count then invalid_arg "Block: entry index out of bounds";
  r.payload_start
  + (Int32.to_int (String.get_int32_le t.data (r.r_table + (4 * i)))
    land 0xffff_ffff)

let key t i =
  match t.repr with
  | Row_r r ->
      let cur = Binio.cursor ~pos:(entry_pos t r i) t.data in
      Binio.get_string cur
  | Col_r c -> String.sub c.c_keys c.c_key_spans.(2 * i) c.c_key_spans.((2 * i) + 1)

(* A cursor at row-major entry [i]'s key bytes, and the key's length,
   checked against the block. *)
let row_key_cursor t r i =
  let cur = Binio.cursor ~pos:(entry_pos t r i) t.data in
  let len = Binio.get_varint cur in
  if len < 0 || Binio.remaining cur < len then
    raise (Binio.Corrupt "block: truncated key");
  (cur, len)

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* [String.compare (String.sub s off len) k], without the copy: whole
   words while they agree, then the first differing byte. The caller
   guarantees [off + len <= String.length s]. *)
let compare_in_place s off len k =
  let klen = String.length k in
  let n = if len < klen then len else klen in
  let i = ref 0 in
  while !i + 8 <= n && get64u s (off + !i) = get64u k !i do
    i := !i + 8
  done;
  while !i < n && String.unsafe_get s (off + !i) = String.unsafe_get k !i do
    incr i
  done;
  if !i < n then
    Char.compare (String.unsafe_get s (off + !i)) (String.unsafe_get k !i)
  else Int.compare len klen

let compare_key t i k =
  match t.repr with
  | Row_r r ->
      let cur, len = row_key_cursor t r i in
      compare_in_place t.data cur.Binio.pos len k
  | Col_r c ->
      compare_in_place c.c_keys c.c_key_spans.(2 * i)
        c.c_key_spans.((2 * i) + 1) k

let key_ts t i =
  match t.repr with
  | Row_r r ->
      let cur, len = row_key_cursor t r i in
      Key_codec.ts_at t.data ~off:cur.Binio.pos ~len
  | Col_r c ->
      Key_codec.ts_at c.c_keys ~off:c.c_key_spans.(2 * i)
        ~len:c.c_key_spans.((2 * i) + 1)

let data t = t.data

let value_span t i =
  let r = row_repr t in
  let cur = Binio.cursor ~pos:(entry_pos t r i) t.data in
  let key_len = Binio.get_varint cur in
  if Binio.remaining cur < key_len then
    raise (Binio.Corrupt "block: truncated key");
  cur.Binio.pos <- cur.Binio.pos + key_len;
  let len = Binio.get_varint cur in
  if Binio.remaining cur < len then
    raise (Binio.Corrupt "block: truncated value");
  (cur.Binio.pos, len)

(* The LEB128 varint at [p] of [s] (call with [shift] and [acc] 0),
   read without a cursor: nothing allocated on the merge copy path. *)
let rec varint_at s p shift acc =
  if p >= String.length s || shift > 62 then
    raise (Binio.Corrupt "block: truncated entry");
  let byte = Char.code (String.unsafe_get s p) in
  let acc = acc lor ((byte land 0x7f) lsl shift) in
  if byte land 0x80 = 0 then acc else varint_at s (p + 1) (shift + 7) acc

(* Entry [i]'s bytes — key and value with their length prefixes — run
   from its offset to the next entry's (or the block's end), and are
   copied as they are once the key's and value's lengths are checked to
   fill exactly that span. *)
let add_entry b ~key src i =
  let r = row_repr src in
  let start = entry_pos src r i in
  let stop =
    if i + 1 < r.r_count then entry_pos src r (i + 1) else String.length src.data
  in
  let klen = String.length key in
  if varint_at src.data start 0 0 <> klen then
    invalid_arg "Block.add_entry: key is not the entry's key";
  let voff = start + Binio.varint_size klen + klen in
  let vlen = if voff < stop then varint_at src.data voff 0 0 else -1 in
  if vlen < 0 || voff + Binio.varint_size vlen + vlen <> stop then
    raise (Binio.Corrupt "block: entry does not fill its span");
  start_entry b ~key;
  Buffer.add_substring b.payload src.data start (stop - start)

let search_geq t k =
  let lo = ref 0 and hi = ref (count t) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key t mid k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Decode one column's cells for rows [\[first, last)] into [out] (row
   [i] lands in [out.(i - first)]). Cells outside the window are stepped
   over without allocating, so the whole section is still checked to its
   end. *)
let decode_cells data d ~rows ~first ~last ~ctype out c =
  let cur = section_cursor data d in
  (match d.cd_bitmap with
  | None ->
      for _ = 0 to first - 1 do Value.skip ctype cur done;
      for i = first to last - 1 do
        out.(i - first).(c) <- Value.decode ctype cur
      done;
      for _ = last to rows - 1 do Value.skip ctype cur done
  | Some boff ->
      for i = 0 to rows - 1 do
        if Char.code data.[boff + (i / 8)] land (1 lsl (i mod 8)) <> 0 then
          if i < first || i >= last then Value.skip ctype cur
          else out.(i - first).(c) <- Value.decode ctype cur
      done);
  Binio.expect_end cur

let columnar_rows ?cols t schema ~first ~last =
  let r = col_repr t in
  if first < 0 || last > r.c_rows || first > last then
    invalid_arg "Block.columnar_rows: window outside the block";
  let columns = Schema.columns schema in
  let defaults = Array.map (fun c -> c.Schema.default) columns in
  (* Created from the static [[||]] and then filled: an array of more
     than 256 rows is allocated on the major heap, and creating it from
     a young row (as [Array.init] does) forces a minor collection. *)
  let out = Array.make (last - first) [||] in
  for i = 0 to last - first - 1 do
    out.(i) <- Array.copy defaults
  done;
  (* Primary-key columns are never stored as sections; every row's key
     values are decoded straight out of the key section. *)
  for i = first to last - 1 do
    Key_codec.decode_key_into schema
      (Binio.cursor ~pos:r.c_key_spans.(2 * i) ~len:r.c_key_spans.((2 * i) + 1)
         r.c_keys)
      out.(i - first)
  done;
  let wanted c = match cols with None -> true | Some l -> List.mem c l in
  let decoded = ref 0 in
  Array.iteri
    (fun c desc ->
      match desc with
      | Some d when wanted c ->
          incr decoded;
          decode_cells t.data d ~rows:r.c_rows ~first ~last
            ~ctype:columns.(c).Schema.ctype out c
      | Some _ | None -> ())
    r.c_cols;
  (out, !decoded)
