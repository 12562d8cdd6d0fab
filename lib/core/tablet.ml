open Lt_util
module Vfs = Lt_vfs.Vfs
module Bcache = Lt_cache.Block_cache
module Obs = Lt_obs.Obs
module Metrics = Lt_obs.Metrics

let magic = 0x4C54424C54312E30L (* "LTBLT1.0" *)

let trailer_len = 24

(* ------------------------------------------------------------------ *)
(* Frames: the compression + checksum wrapper around blocks and footer *)
(* ------------------------------------------------------------------ *)

let frame_header_len = 13 (* u8 codec + u32 comp_len + u32 raw_len + i32 crc *)

let encode_frame raw =
  let compressed = Lt_lz.Lz.compress raw in
  let codec, payload =
    if String.length compressed < String.length raw then (1, compressed)
    else (0, raw)
  in
  let buf = Buffer.create (frame_header_len + String.length payload) in
  Binio.put_u8 buf codec;
  Binio.put_u32 buf (String.length payload);
  Binio.put_u32 buf (String.length raw);
  Binio.put_i32 buf (Crc32c.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Columnar blocks carry per-column sections that are already LZ'd where
   profitable; wrapping them in a stored frame keeps the CRC without
   burning merge CPU on a compression pass that cannot win. *)
let encode_frame_store raw =
  let buf = Buffer.create (frame_header_len + String.length raw) in
  Binio.put_u8 buf 0;
  Binio.put_u32 buf (String.length raw);
  Binio.put_u32 buf (String.length raw);
  Binio.put_i32 buf (Crc32c.string raw);
  Buffer.add_string buf raw;
  Buffer.contents buf

(* The payload is checked and inflated in place; only a stored frame's
   payload is copied out. *)
let decode_frame frame =
  let cur = Binio.cursor frame in
  let codec = Binio.get_u8 cur in
  let comp_len = Binio.get_u32 cur in
  let raw_len = Binio.get_u32 cur in
  let crc = Binio.get_i32 cur in
  let off = cur.Binio.pos in
  Binio.skip cur comp_len;
  Binio.expect_end cur;
  if Crc32c.string ~off ~len:comp_len frame <> crc then
    raise (Binio.Corrupt "tablet frame: checksum mismatch");
  match codec with
  | 0 ->
      if comp_len <> raw_len then
        raise (Binio.Corrupt "tablet frame: raw length mismatch");
      String.sub frame off comp_len
  | 1 -> (
      try Lt_lz.Lz.decompress ~off ~len:comp_len ~raw_len frame
      with Lt_lz.Lz.Corrupt msg -> raise (Binio.Corrupt ("tablet frame: " ^ msg)))
  | n -> raise (Binio.Corrupt (Printf.sprintf "tablet frame: unknown codec %d" n))

(* ------------------------------------------------------------------ *)
(* Footer                                                              *)
(* ------------------------------------------------------------------ *)

type index_entry = {
  file_off : int;
  frame_len : int;
  rows : int;
  last_key : string;
  e_layout : Block.layout;
  e_stats : Agg.col_stats array option;
      (** per-column min/max/sum, columnar blocks only *)
}

type summary = {
  row_count : int;
  size : int;
  min_ts : int64;
  max_ts : int64;
  min_key : string;
  max_key : string;
  columnar : bool;
}

type footer = {
  schema : Schema.t;
  f_row_count : int;
  f_min_ts : int64;
  f_max_ts : int64;
  f_min_key : string;
  f_max_key : string;
  index : index_entry array;
  bloom : Lt_bloom.Bloom.t option;
}

(* Per-column footer stats. [cs_min]/[cs_max] travel as their column's
   value encoding (the footer schema supplies the type on decode);
   presence flags: bit 0 = min/max, bit 1 = wrapping int sum. *)
let encode_col_stats buf (st : Agg.col_stats) =
  let flags =
    (if st.Agg.cs_min <> None then 1 else 0)
    lor if st.Agg.cs_sum <> None then 2 else 0
  in
  Binio.put_u8 buf flags;
  (match (st.Agg.cs_min, st.Agg.cs_max) with
  | Some mn, Some mx ->
      Value.encode buf mn;
      Value.encode buf mx
  | _ -> ());
  match st.Agg.cs_sum with Some s -> Binio.put_i64 buf s | None -> ()

let decode_col_stats ctype cur =
  let flags = Binio.get_u8 cur in
  let cs_min, cs_max =
    if flags land 1 <> 0 then
      let mn = Value.decode ctype cur in
      let mx = Value.decode ctype cur in
      (Some mn, Some mx)
    else (None, None)
  in
  let cs_sum = if flags land 2 <> 0 then Some (Binio.get_i64 cur) else None in
  { Agg.cs_min; cs_max; cs_sum }

let encode_footer f =
  let buf = Buffer.create 4096 in
  Schema.encode buf f.schema;
  Binio.put_varint buf f.f_row_count;
  Binio.put_i64 buf f.f_min_ts;
  Binio.put_i64 buf f.f_max_ts;
  Binio.put_string buf f.f_min_key;
  Binio.put_string buf f.f_max_key;
  Binio.put_varint buf (Array.length f.index);
  Array.iter
    (fun e ->
      Binio.put_varint buf e.file_off;
      Binio.put_varint buf e.frame_len;
      Binio.put_varint buf e.rows;
      Binio.put_string buf e.last_key;
      match e.e_layout with
      | Block.Row_major -> Binio.put_u8 buf 0
      | Block.Col_major ->
          Binio.put_u8 buf 1;
          let stats = Option.get e.e_stats in
          Array.iter (encode_col_stats buf) stats)
    f.index;
  (match f.bloom with
  | None -> Binio.put_u8 buf 0
  | Some bloom ->
      Binio.put_u8 buf 1;
      Lt_bloom.Bloom.encode buf bloom);
  Buffer.contents buf

let decode_footer raw =
  let cur = Binio.cursor raw in
  let schema = Schema.decode cur in
  let f_row_count = Binio.get_varint cur in
  let f_min_ts = Binio.get_i64 cur in
  let f_max_ts = Binio.get_i64 cur in
  let f_min_key = Binio.get_string cur in
  let f_max_key = Binio.get_string cur in
  let nblocks = Binio.get_varint cur in
  let columns = Schema.columns schema in
  let index =
    Array.init nblocks (fun _ ->
        let file_off = Binio.get_varint cur in
        let frame_len = Binio.get_varint cur in
        let rows = Binio.get_varint cur in
        let last_key = Binio.get_string cur in
        let e_layout, e_stats =
          match Binio.get_u8 cur with
          | 0 -> (Block.Row_major, None)
          | 1 ->
              let stats =
                Array.map
                  (fun (c : Schema.column) -> decode_col_stats c.Schema.ctype cur)
                  columns
              in
              (Block.Col_major, Some stats)
          | _ -> raise (Binio.Corrupt "tablet footer: bad block layout tag")
        in
        { file_off; frame_len; rows; last_key; e_layout; e_stats })
  in
  let bloom =
    match Binio.get_u8 cur with
    | 0 -> None
    | 1 -> Some (Lt_bloom.Bloom.decode cur)
    | _ -> raise (Binio.Corrupt "tablet footer: bad bloom tag")
  in
  Binio.expect_end cur;
  { schema; f_row_count; f_min_ts; f_max_ts; f_min_key; f_max_key; index; bloom }

(* ------------------------------------------------------------------ *)
(* Row handles                                                         *)
(* ------------------------------------------------------------------ *)

(* Decode a row straight out of the block's backing bytes: no per-row
   value string, just a (offset, length) window into the block data. *)
let translate_at ~from ~into b i ~key =
  let off, len = Block.value_span b i in
  Row_codec.decode_translated_slice ~from ~into ~key ~data:(Block.data b) ~off
    ~len

(* A row-major block as a scan loaded it, with the schemas its entries
   decode under. Immutable, like the block. *)
type block_ref = { b : Block.t; from : Schema.t; into : Schema.t }

type row =
  | Decoded of Value.t array
  | In_block of block_ref * int * string
  | Encoded of Schema.t * string * string  (** schema, key, value bytes *)

let decoded row = Decoded row

let encoded schema ~key value = Encoded (schema, key, value)

let force = function
  | Decoded row -> row
  | In_block (br, i, key) -> translate_at ~from:br.from ~into:br.into br.b i ~key
  | Encoded (schema, key, value) -> Row_codec.decode schema ~key ~value

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

type builder_kind = B_row of Block.builder | B_col of Block.col_builder

type writer = {
  vfs : Vfs.t;
  path : string;
  w_schema : Schema.t;
  block_size : int;
  file : Vfs.file;
  w_builder : builder_kind;
  mutable w_off : int;
  mutable w_index : index_entry list;  (** reversed *)
  mutable w_rows : int;
  mutable w_min_ts : int64;
  mutable w_max_ts : int64;
  mutable w_min_key : string option;
  mutable w_max_key : string;
  bloom : Lt_bloom.Bloom.t option;
  prefix_ends : int array;  (** scratch for {!Key_codec.prefix_ends} *)
  bloom_seen : int array;
      (** hash pairs last inserted per prefix boundary into [bloom] *)
  scratch : Buffer.t;  (** one row's value encoding, row-major writers *)
}

let writer vfs ~path ~schema ~block_size ~bloom_bits_per_key ~expected_rows
    ?(layout = Block.Row_major) () =
  if block_size < 1024 then invalid_arg "Tablet.writer: block size too small";
  let file = Vfs.create vfs path in
  (* One insertion per key plus one per proper key prefix. *)
  let per_row = Array.length (Schema.pkey schema) in
  let bloom =
    if bloom_bits_per_key > 0 then
      Some
        (Lt_bloom.Bloom.create ~bits_per_key:bloom_bits_per_key
           ~expected_keys:(max 1 (expected_rows * per_row)) ())
    else None
  in
  {
    vfs;
    path;
    w_schema = schema;
    block_size;
    file;
    w_builder =
      (match layout with
      | Block.Row_major -> B_row (Block.builder ())
      | Block.Col_major -> B_col (Block.col_builder schema));
    w_off = 0;
    w_index = [];
    w_rows = 0;
    w_min_ts = Int64.max_int;
    w_max_ts = Int64.min_int;
    w_min_key = None;
    w_max_key = "";
    bloom;
    prefix_ends = Array.make (per_row - 1) 0;
    bloom_seen = Array.make (2 * (per_row - 1)) (-1);
    scratch = Buffer.create 64;
  }

let flush_block w =
  match w.w_builder with
  | B_row builder -> (
      match Block.last_key builder with
      | None -> ()
      | Some last_key ->
          let rows = Block.entry_count builder in
          let raw = Block.finish builder in
          let frame = encode_frame raw in
          Vfs.append w.vfs w.file frame;
          w.w_index <-
            { file_off = w.w_off; frame_len = String.length frame; rows;
              last_key; e_layout = Block.Row_major; e_stats = None }
            :: w.w_index;
          w.w_off <- w.w_off + String.length frame)
  | B_col builder -> (
      match Block.col_last_key builder with
      | None -> ()
      | Some last_key ->
          let rows = Block.col_count builder in
          let raw, stats = Block.col_finish builder in
          let frame = encode_frame_store raw in
          Vfs.append w.vfs w.file frame;
          w.w_index <-
            { file_off = w.w_off; frame_len = String.length frame; rows;
              last_key; e_layout = Block.Col_major; e_stats = Some stats }
            :: w.w_index;
          w.w_off <- w.w_off + String.length frame)

(* A key and its column-boundary prefixes go into the filter in one
   hashing pass; the prefix boundaries come from the key bytes. Keys
   arrive sorted, so a prefix usually repeats the last one at its
   boundary, and [bloom_seen] skips setting its bits again. *)
let bloom_add w key =
  match w.bloom with
  | None -> ()
  | Some bloom ->
      Key_codec.prefix_ends w.w_schema key w.prefix_ends;
      Lt_bloom.Bloom.add_with_prefixes bloom ~seen:w.bloom_seen key
        w.prefix_ends

let note_row w ~key ~ts =
  (match w.w_min_key with None -> w.w_min_key <- Some key | Some _ -> ());
  w.w_max_key <- key;
  w.w_rows <- w.w_rows + 1;
  if ts < w.w_min_ts then w.w_min_ts <- ts;
  if ts > w.w_max_ts then w.w_max_ts <- ts;
  bloom_add w key

(* The one place a row reaches a block. A row-major entry or an encoded
   row stored under the writer's schema version is copied as its stored
   bytes; any other row is decoded, then encoded once into [scratch]
   (row-major) or handed to the columnar builder as it is. *)
let add w ~key ~ts row =
  note_row w ~key ~ts;
  let raw_size =
    match (w.w_builder, row) with
    | B_row b, In_block (br, i, _)
      when Schema.version br.from = Schema.version w.w_schema ->
        Block.add_entry b ~key br.b i;
        Block.raw_size b
    | B_row b, Encoded (schema, _, value)
      when Schema.version schema = Schema.version w.w_schema ->
        Block.add b ~key ~value;
        Block.raw_size b
    | B_row b, _ ->
        Buffer.clear w.scratch;
        Row_codec.encode_value_into w.scratch w.w_schema (force row);
        Block.add_enc b ~key w.scratch;
        Block.raw_size b
    | B_col b, _ ->
        Block.col_add b ~key (force row);
        Block.col_raw_size b
  in
  if raw_size >= w.block_size then flush_block w

let add_row w ~key ~key_prefixes:_ ~ts row = add w ~key ~ts (Decoded row)

let finish w =
  if w.w_rows = 0 then invalid_arg "Tablet.finish: empty tablet";
  flush_block w;
  let footer =
    {
      schema = w.w_schema;
      f_row_count = w.w_rows;
      f_min_ts = w.w_min_ts;
      f_max_ts = w.w_max_ts;
      f_min_key = Option.get w.w_min_key;
      f_max_key = w.w_max_key;
      index = Array.of_list (List.rev w.w_index);
      bloom = w.bloom;
    }
  in
  let footer_frame = encode_frame (encode_footer footer) in
  Vfs.append w.vfs w.file footer_frame;
  let trailer = Buffer.create trailer_len in
  Binio.put_i64 trailer (Int64.of_int w.w_off);
  Binio.put_i64 trailer (Int64.of_int (String.length footer_frame));
  Binio.put_i64 trailer magic;
  Vfs.append w.vfs w.file (Buffer.contents trailer);
  Vfs.fsync w.vfs w.file;
  let size = Vfs.file_size w.vfs w.file in
  Vfs.close w.vfs w.file;
  (* fsync makes the bytes durable but not the directory entry: without
     a parent-directory sync the finished tablet can vanish on crash even
     though the descriptor that references it survives. *)
  Vfs.sync_dir w.vfs (Filename.dirname w.path);
  {
    row_count = w.w_rows;
    size;
    min_ts = w.w_min_ts;
    max_ts = w.w_max_ts;
    min_key = Option.get w.w_min_key;
    max_key = w.w_max_key;
    columnar = (match w.w_builder with B_row _ -> false | B_col _ -> true);
  }

let abandon w =
  (try Vfs.close w.vfs w.file with Vfs.Io_error _ -> ());
  try Vfs.delete w.vfs w.path with Vfs.Io_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

type reader = {
  r_vfs : Vfs.t;
  r_path : string;
  r_file : Vfs.file;
  r_size : int;
  footer : footer;
  mutable target : Schema.t;
  r_cache : (Block.t Bcache.t * int) option;
      (** shared block cache plus this reader's file id *)
  r_obs : Obs.t;
  r_h_read : Metrics.Histogram.t;
  r_h_decomp : Metrics.Histogram.t;
}

let open_reader ?cache ?(obs = Obs.noop) vfs ~path ~into =
  let file = Vfs.open_read vfs path in
  match
    let size = Vfs.file_size vfs file in
    if size < trailer_len then raise (Binio.Corrupt "tablet: file too short");
    let trailer = Vfs.pread vfs file ~off:(size - trailer_len) ~len:trailer_len in
    let cur = Binio.cursor trailer in
    let footer_off = Int64.to_int (Binio.get_i64 cur) in
    let footer_len = Int64.to_int (Binio.get_i64 cur) in
    if Binio.get_i64 cur <> magic then
      raise (Binio.Corrupt "tablet: bad magic");
    if footer_off < 0 || footer_len <= 0 || footer_off + footer_len > size then
      raise (Binio.Corrupt "tablet: bad trailer geometry");
    let footer_frame = Vfs.pread vfs file ~off:footer_off ~len:footer_len in
    let footer = decode_footer (decode_frame footer_frame) in
    let r_cache = Option.map (fun c -> (c, Bcache.file_id c)) cache in
    {
      r_vfs = vfs;
      r_path = path;
      r_file = file;
      r_size = size;
      footer;
      target = into;
      r_cache;
      r_obs = obs;
      r_h_read = Obs.block_read_hist obs;
      r_h_decomp = Obs.block_decompress_hist obs;
    }
  with
  | r -> r
  | exception e ->
      (try Vfs.close vfs file with Vfs.Io_error _ -> ());
      raise e

(* Closing also invalidates this reader's cached blocks: readers close
   exactly when their file is deleted (merge, expiry, bulk delete, drop)
   or the table shuts down, and file ids are never reused, so a reopened
   path caches afresh rather than resurrecting stale blocks. *)
let close r =
  (match r.r_cache with
  | Some (c, fid) -> Bcache.invalidate_file c ~file:fid
  | None -> ());
  try Vfs.close r.r_vfs r.r_file with Vfs.Io_error _ -> ()

let summary r =
  {
    row_count = r.footer.f_row_count;
    size = r.r_size;
    min_ts = r.footer.f_min_ts;
    max_ts = r.footer.f_max_ts;
    min_key = r.footer.f_min_key;
    max_key = r.footer.f_max_key;
    columnar =
      Array.for_all
        (fun e -> match e.e_layout with Block.Col_major -> true | _ -> false)
        r.footer.index;
  }

let stored_schema r = r.footer.schema

let set_target_schema r s = r.target <- s

let may_contain_prefix r prefix =
  match r.footer.bloom with
  | None -> true
  | Some bloom -> Lt_bloom.Bloom.mem bloom prefix

let block_count r = Array.length r.footer.index

(* Stage timings: "read" covers the (modeled) disk pread, "decompress"
   the checksum + frame decompression. When observability is off both
   now_us calls return 0 and the observes are boolean-load no-ops. *)
let read_block r i =
  let e = r.footer.index.(i) in
  let t0 = Obs.now_us r.r_obs in
  let frame = Vfs.pread r.r_vfs r.r_file ~off:e.file_off ~len:e.frame_len in
  let t1 = Obs.now_us r.r_obs in
  Metrics.Histogram.observe_us r.r_h_read (Int64.sub t1 t0);
  let raw = decode_frame frame in
  Metrics.Histogram.observe_us r.r_h_decomp
    (Int64.sub (Obs.now_us r.r_obs) t1);
  raw

let decode_block r i raw =
  match r.footer.index.(i).e_layout with
  | Block.Row_major -> Block.decode raw
  | Block.Col_major -> Block.decode_columnar r.footer.schema raw

(* The cache sits above the VFS and below the block decode: a hit skips
   the (modeled) disk read, the checksum, and the decompression. Weights
   are raw frame bytes, approximating resident memory. Columnar blocks
   cache in the same decoded form — key section inflated and indexed,
   column sections still compressed — so cached blocks stay immutable
   and column decompression remains per-scan. *)
let load_block r i =
  match r.r_cache with
  | None -> decode_block r i (read_block r i)
  | Some (c, fid) -> (
      match Bcache.find c ~file:fid ~block:i with
      | Some b -> b
      | None ->
          let raw = read_block r i in
          let b = decode_block r i raw in
          Bcache.insert c ~file:fid ~block:i ~bytes:(String.length raw) b;
          b)

(* First block that could contain a key >= k: binary search on last keys. *)
let search_block r k =
  let index = r.footer.index in
  let lo = ref 0 and hi = ref (Array.length index) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare index.(mid).last_key k < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let mem r key =
  may_contain_prefix r key
  && String.compare key r.footer.f_min_key >= 0
  && String.compare key r.footer.f_max_key <= 0
  &&
  let bi = search_block r key in
  bi < block_count r
  &&
  let block = load_block r bi in
  let i = Block.search_geq block key in
  i < Block.count block && Block.compare_key block i key = 0

type scan_counters = {
  sc_footer_blocks : int Atomic.t;
  sc_cols_decoded : int Atomic.t;
}

let fresh_counters () =
  { sc_footer_blocks = Atomic.make 0; sc_cols_decoded = Atomic.make 0 }

let bump counters field n =
  match counters with
  | None -> ()
  | Some c -> ignore (Atomic.fetch_and_add (field c) n)

(* Stored-schema column indices a target-schema projection needs: since
   schema evolution only appends columns, a shared index is the same
   column; target-only columns are dropped (translation refills their
   defaults). *)
let stored_projection r projection =
  match projection with
  | None -> None
  | Some cols ->
      let n = Schema.column_count r.footer.schema in
      Some (List.filter (fun c -> c < n) cols)

(* Materialize rows [\[first, last)] of a columnar block, translated to
   the target schema. Unprojected columns carry their defaults —
   invisible to projected reads, and identical to the row layout's values
   for untouched columns since defaults only change by widening. *)
let materialize r ?counters ~projection ~into ~first ~last b =
  let cols = stored_projection r projection in
  let rows, decoded =
    Block.columnar_rows ?cols b r.footer.schema ~first ~last
  in
  bump counters (fun c -> c.sc_cols_decoded) decoded;
  if Schema.equal r.footer.schema into then rows
  else begin
    (* Filled in place, not [Array.map]ped: see {!Block.columnar_rows}. *)
    for i = 0 to Array.length rows - 1 do
      rows.(i) <- Schema.translate_row ~from:r.footer.schema ~into rows.(i)
    done;
    rows
  end

(* The index range of [b] that keys in [\[lo, hi)] can reach. *)
let key_window b ~lo ~hi =
  let at = function None -> None | Some k -> Some (Block.search_geq b k) in
  let first = Option.value (at lo) ~default:0 in
  (first, max first (Option.value (at hi) ~default:(Block.count b)))

(* A lower bound on block [i]'s keys: they are all greater than the
   previous block's last key, and none is below the tablet minimum. *)
let block_floor r i =
  if i = 0 then r.footer.f_min_key else r.footer.index.(i - 1).last_key

(* The one block walker behind [iter] and [fold_aggs]:
   visits the blocks that keys in [\[lo, hi)] can reach, ascending or
   descending, and in each the positions of its key window, in the same
   direction. [view b ~first ~last], called once per loaded block, says
   what the scan holds of the block's window [\[first, last)] and
   returns how to hand out the entry at a position. Blocks are sorted,
   so the walk ends after the first block whose window stops short of
   the block's far end (its last entry ascending, its first
   descending). [skip i], asked before block [i] loads, lets the caller
   take the block from its index entry alone — answered from footer
   stats, or of no interest — so it is stepped over unloaded; the index
   then bounds its keys for the stopping rule. *)
let walk ?(skip = fun _ -> false) r ~asc ~lo ~hi view =
  let nblocks = block_count r in
  let bi =
    ref
      (if asc then match lo with None -> 0 | Some k -> search_block r k
       else
         match hi with
         | None -> nblocks - 1
         | Some k -> min (search_block r k) (nblocks - 1))
  in
  let at = ref (fun _ -> assert false) in
  let pos = ref 0 and stop = ref 0 in
  let rec next () =
    if !pos <> !stop then begin
      let i = !pos in
      pos := if asc then i + 1 else i - 1;
      Some (!at i)
    end
    else if !bi < 0 || !bi >= nblocks then None
    else begin
      let i = !bi in
      let reaches_edge =
        if skip i then
          if asc then
            match hi with
            | None -> true
            | Some k -> String.compare r.footer.index.(i).last_key k < 0
          else
            match lo with
            | None -> true
            | Some k -> String.compare (block_floor r i) k >= 0
        else begin
          let b = load_block r i in
          let first, last = key_window b ~lo ~hi in
          at := view b ~first ~last;
          pos := if asc then first else last - 1;
          stop := if asc then last else first - 1;
          if asc then last = Block.count b else first = 0
        end
      in
      bi := if not reaches_edge then -1 else if asc then i + 1 else i - 1;
      next ()
    end
  in
  next

(* A row-major block's entries stay encoded until forced; a columnar
   block's window is materialized when the scan loads it. *)
let iter r ~asc ?lo ?hi ?projection ?counters () =
  let from = r.footer.schema and into = r.target in
  walk r ~asc ~lo ~hi (fun b ~first ~last ->
      match Block.layout b with
      | Block.Row_major ->
          let br = { b; from; into } in
          fun i ->
            let key = Block.key b i in
            (key, In_block (br, i, key))
      | Block.Col_major ->
          let rows = materialize r ?counters ~projection ~into ~first ~last b in
          fun i -> (Block.key b i, Decoded rows.(i - first)))

(* ------------------------------------------------------------------ *)
(* Aggregate pushdown                                                  *)
(* ------------------------------------------------------------------ *)

let fold_aggs r ?counters ~lo ~hi ~ts_min ~ts_max ~specs ~accs () =
  if Int64.compare ts_min ts_max <= 0 then begin
    let index = r.footer.index in
    let stored = r.footer.schema in
    let stored_cols = Schema.columns stored in
    let target_cols = Schema.columns r.target in
    let stored_n = Array.length stored_cols in
    let ts_ix = Schema.ts_index stored in
    let ctype_of c =
      if c < Array.length target_cols then Some target_cols.(c).Schema.ctype
      else None
    in
    (* Non-footer blocks decode only the columns some spec references. *)
    let needed_cols =
      Array.to_list specs
      |> List.filter_map (fun (s : Agg.spec) -> s.Agg.a_col)
      |> List.sort_uniq Int.compare
      |> List.filter (fun c -> c < stored_n)
    in
    let stats_of e c =
      match e.e_stats with
      | None -> None
      | Some st ->
          if c >= stored_n then None
          else begin
            let s = st.(c) in
            let from_t = stored_cols.(c).Schema.ctype in
            let into_t =
              if c < Array.length target_cols then target_cols.(c).Schema.ctype
              else from_t
            in
            if from_t = into_t then Some s
            else
              (* Widened column (int32 -> int64): footer values must
                 compare against row-path values of the target type. *)
              let widen v =
                match Value.widen ~from:from_t ~into:into_t v with
                | Some x -> x
                | None -> v
              in
              Some
                { s with
                  Agg.cs_min = Option.map widen s.Agg.cs_min;
                  cs_max = Option.map widen s.Agg.cs_max }
          end
    in
    let at_or_above bound i = String.compare (block_floor r i) bound >= 0 in
    let in_ts ts =
      Int64.compare ts ts_min >= 0 && Int64.compare ts ts_max <= 0
    in
    (* Decided from the index entry alone: a block inside the key
       bounds whose footer ts span is inside [\[ts_min, ts_max\]] is
       absorbed from its footer stats when they answer every spec; a
       block whose ts span misses the bounds, or whose keys are all at
       or past [hi], is stepped over. *)
    let skip i =
      let e = index.(i) in
      let block_ts =
        match e.e_stats with
        | None -> None
        | Some st -> (
            match (st.(ts_ix).Agg.cs_min, st.(ts_ix).Agg.cs_max) with
            | Some (Value.Timestamp a), Some (Value.Timestamp b) -> Some (a, b)
            | _ -> None)
      in
      let covered =
        (match lo with None -> true | Some k -> at_or_above k i)
        && (match hi with None -> true | Some k -> String.compare e.last_key k < 0)
        && match block_ts with
           | Some (a, b) -> Int64.compare a ts_min >= 0 && Int64.compare b ts_max <= 0
           | None -> false
      in
      if covered && Agg.block_answerable ~specs ~stats_of:(stats_of e) ~ctype_of
      then begin
        (* Whole block answered from the footer: no read, no decode. *)
        Agg.absorb_block ~accs ~specs ~rows:e.rows ~stats_of:(stats_of e);
        bump counters (fun c -> c.sc_footer_blocks) 1;
        true
      end
      else
        (match hi with Some k -> at_or_above k i | None -> false)
        ||
        match block_ts with
        | Some (a, b) -> Int64.compare b ts_min < 0 || Int64.compare a ts_max > 0
        | None -> false
    in
    let feed = Agg.feed_row specs accs in
    let translate =
      if Schema.equal stored r.target then fun row -> row
      else Schema.translate_row ~from:stored ~into:r.target
    in
    let next =
      walk ~skip r ~asc:true ~lo ~hi (fun b ~first ~last ->
          match Block.layout b with
          | Block.Row_major ->
              fun j ->
                if in_ts (Block.key_ts b j) then
                  feed
                    (translate_at ~from:stored ~into:r.target b j
                       ~key:(Block.key b j))
          | Block.Col_major ->
              (* Only the window the key bounds reach is materialized. *)
              let rows, decoded =
                Block.columnar_rows ~cols:needed_cols b stored ~first ~last
              in
              bump counters (fun c -> c.sc_cols_decoded) decoded;
              fun j ->
                if in_ts (Block.key_ts b j) then feed (translate rows.(j - first)))
    in
    while next () <> None do () done
  end
