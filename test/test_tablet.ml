open Littletable
module Vfs = Lt_vfs.Vfs

(* ---- Block ----------------------------------------------------------- *)

let test_block_roundtrip () =
  let b = Block.builder () in
  let entries =
    List.init 100 (fun i -> (Printf.sprintf "key%04d" i, Printf.sprintf "val%d" i))
  in
  List.iter (fun (key, value) -> Block.add b ~key ~value) entries;
  Alcotest.(check int) "count" 100 (Block.entry_count b);
  Alcotest.(check bool) "first" true (Block.first_key b = Some "key0000");
  Alcotest.(check bool) "last" true (Block.last_key b = Some "key0099");
  let data = Block.finish b in
  let blk = Block.decode data in
  Alcotest.(check int) "decoded count" 100 (Block.count blk);
  List.iteri
    (fun i (key, value) ->
      let off, len = Block.value_span blk i in
      Alcotest.(check string) "key" key (Block.key blk i);
      Alcotest.(check string) "value" value (String.sub (Block.data blk) off len))
    entries;
  (* The builder reset: reusable. *)
  Alcotest.(check int) "reset" 0 (Block.entry_count b);
  (* Copying every entry as its stored bytes rebuilds the same block. *)
  List.iteri (fun i (key, _) -> Block.add_entry b ~key blk i) entries;
  Alcotest.(check string) "add_entry copies" data (Block.finish b);
  match Block.add_entry b ~key:"k" blk 0 with
  | () -> Alcotest.fail "add_entry accepted a key of another length"
  | exception Invalid_argument _ -> ()

let test_block_add_entry_checks_span () =
  let b = Block.builder () in
  Block.add b ~key:"a" ~value:"xy";
  Block.add b ~key:"b" ~value:"z";
  let data = Bytes.of_string (Block.finish b) in
  (* Entry 0's value length sits after the row count, two offsets, the
     key length and the key; make it claim one byte past its span. *)
  Alcotest.(check char) "value length byte" '\x02' (Bytes.get data 11);
  Bytes.set data 11 '\x03';
  let blk = Block.decode (Bytes.to_string data) in
  match Block.add_entry (Block.builder ()) ~key:"a" blk 0 with
  | () -> Alcotest.fail "add_entry copied an entry that overruns its span"
  | exception Lt_util.Binio.Corrupt _ -> ()

let test_block_ordering_enforced () =
  let b = Block.builder () in
  Block.add b ~key:"b" ~value:"";
  (match Block.add b ~key:"a" ~value:"" with
  | () -> Alcotest.fail "descending key accepted"
  | exception Invalid_argument _ -> ());
  match Block.add b ~key:"b" ~value:"" with
  | () -> Alcotest.fail "duplicate key accepted"
  | exception Invalid_argument _ -> ()

let test_block_search () =
  let b = Block.builder () in
  List.iter (fun k -> Block.add b ~key:k ~value:"") [ "b"; "d"; "f" ];
  let blk = Block.decode (Block.finish b) in
  Alcotest.(check int) "before first" 0 (Block.search_geq blk "a");
  Alcotest.(check int) "exact" 0 (Block.search_geq blk "b");
  Alcotest.(check int) "between" 1 (Block.search_geq blk "c");
  Alcotest.(check int) "last" 2 (Block.search_geq blk "f");
  Alcotest.(check int) "after all" 3 (Block.search_geq blk "z")

let test_block_raw_size_tracks () =
  let b = Block.builder () in
  let before = Block.raw_size b in
  Block.add b ~key:"kkkk" ~value:"vvvvvv";
  Alcotest.(check bool) "grows" true (Block.raw_size b > before);
  let data = Block.finish b in
  Alcotest.(check bool) "estimate >= actual" true
    (String.length data <= before + 4 + 4 + 6 + 2 + 5)

(* ---- Tablet ----------------------------------------------------------- *)

let schema = Support.usage_schema ()

let mk_row i =
  Support.usage_row ~network:(Int64.of_int (i / 100)) ~device:(Int64.of_int (i mod 100))
    ~ts:(Int64.of_int (1_000_000 + i)) ~bytes:(Int64.of_int (i * 10)) ~rate:(float_of_int i)

let write_tablet ?(bloom = 10) ?(block_size = 1024) vfs path rows =
  let w =
    Tablet.writer vfs ~path ~schema ~block_size ~bloom_bits_per_key:bloom
      ~expected_rows:(List.length rows) ()
  in
  List.iter
    (fun row ->
      let key = Key_codec.encode_key schema row in
      Tablet.add w ~key ~ts:(Schema.row_ts schema row) (Tablet.decoded row))
    rows;
  Tablet.finish w

let sorted_rows n =
  (* mk_row generates rows already in key order (network, device, ts). *)
  List.init n mk_row

(* Every row of a scan, forced. *)
let drain it =
  let rec go acc =
    match it () with
    | None -> List.rev acc
    | Some (k, h) -> go ((k, Tablet.force h) :: acc)
  in
  go []

let test_write_read_roundtrip () =
  let vfs = Vfs.memory () in
  let rows = sorted_rows 1000 in
  let s = write_tablet vfs "t.tab" rows in
  Alcotest.(check int) "rows" 1000 s.Tablet.row_count;
  Alcotest.(check int64) "min_ts" 1_000_000L s.Tablet.min_ts;
  Alcotest.(check int64) "max_ts" 1_000_999L s.Tablet.max_ts;
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:schema in
  Alcotest.(check bool) "multiple blocks" true (Tablet.block_count r > 3);
  Alcotest.(check int) "summary rows" 1000 (Tablet.summary r).Tablet.row_count;
  let got = List.map snd (drain (Tablet.iter r ~asc:true ())) in
  Alcotest.(check int) "all rows back" 1000 (List.length got);
  Alcotest.(check bool) "contents equal" true (got = rows);
  let back = List.map snd (drain (Tablet.iter r ~asc:false ())) in
  Alcotest.(check bool) "desc is reverse" true (back = List.rev rows);
  Tablet.close r

let test_iter_bounds () =
  let vfs = Vfs.memory () in
  let rows = sorted_rows 500 in
  ignore (write_tablet vfs "t.tab" rows);
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:schema in
  (* Keys for rows 100 (incl) to 150 (excl). *)
  let key_of i = Key_codec.encode_key schema (mk_row i) in
  let got = drain (Tablet.iter r ~asc:true ~lo:(key_of 100) ~hi:(key_of 150) ()) in
  Alcotest.(check int) "range size" 50 (List.length got);
  Alcotest.(check string) "first" (key_of 100) (fst (List.hd got));
  let got_desc = drain (Tablet.iter r ~asc:false ~lo:(key_of 100) ~hi:(key_of 150) ()) in
  Alcotest.(check bool) "desc same rows" true (got_desc = List.rev got);
  (* Bounds beyond the data. *)
  Alcotest.(check int) "empty high range" 0
    (List.length (drain (Tablet.iter r ~asc:true ~lo:(key_of 9999) ())));
  Alcotest.(check int) "full low range" 500
    (List.length (drain (Tablet.iter r ~asc:true ~lo:"" ())));
  Tablet.close r

let test_bloom_prefixes () =
  let vfs = Vfs.memory () in
  ignore (write_tablet vfs "t.tab" (sorted_rows 300));
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:schema in
  let p_present = Key_codec.encode_prefix schema [ Value.Int64 1L ] in
  let p_absent = Key_codec.encode_prefix schema [ Value.Int64 424242L ] in
  Alcotest.(check bool) "present prefix passes" true
    (Tablet.may_contain_prefix r p_present);
  Alcotest.(check bool) "absent prefix filtered" false
    (Tablet.may_contain_prefix r p_absent);
  (* Exact-key membership. *)
  Alcotest.(check bool) "mem hit" true
    (Tablet.mem r (Key_codec.encode_key schema (mk_row 5)));
  Alcotest.(check bool) "mem miss" false
    (Tablet.mem r (Key_codec.encode_key schema (mk_row 12345)));
  Tablet.close r

let test_no_bloom () =
  let vfs = Vfs.memory () in
  ignore (write_tablet ~bloom:0 vfs "t.tab" (sorted_rows 10));
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:schema in
  Alcotest.(check bool) "no filter: always maybe" true
    (Tablet.may_contain_prefix r "anything");
  Tablet.close r

let test_empty_tablet_rejected () =
  let vfs = Vfs.memory () in
  let w =
    Tablet.writer vfs ~path:"e.tab" ~schema ~block_size:1024
      ~bloom_bits_per_key:0 ~expected_rows:0 ()
  in
  match Tablet.finish w with
  | (_ : Tablet.summary) -> Alcotest.fail "empty tablet written"
  | exception Invalid_argument _ -> ()

let test_abandon () =
  let vfs = Vfs.memory () in
  let w =
    Tablet.writer vfs ~path:"a.tab" ~schema ~block_size:1024
      ~bloom_bits_per_key:0 ~expected_rows:1 ()
  in
  let row = mk_row 0 in
  let key = Key_codec.encode_key schema row in
  Tablet.add w ~key ~ts:0L (Tablet.decoded row);
  Tablet.abandon w;
  Alcotest.(check bool) "file removed" false (Vfs.exists vfs "a.tab")

let test_schema_translation_on_read () =
  let vfs = Vfs.memory () in
  ignore (write_tablet vfs "t.tab" (sorted_rows 10));
  let s2 =
    Schema.add_column schema
      { Schema.name = "drops"; ctype = Value.T_int32; default = Value.Int32 7l }
  in
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:s2 in
  Alcotest.(check int) "stored schema version" 0 (Schema.version (Tablet.stored_schema r));
  (match drain (Tablet.iter r ~asc:true ()) with
  | (_, row) :: _ ->
      Alcotest.(check int) "translated arity" 6 (Array.length row);
      Alcotest.(check bool) "default injected" true (row.(5) = Value.Int32 7l)
  | [] -> Alcotest.fail "no rows");
  (* Retargeting on the fly. *)
  Tablet.set_target_schema r schema;
  (match drain (Tablet.iter r ~asc:true ()) with
  | (_, row) :: _ -> Alcotest.(check int) "original arity" 5 (Array.length row)
  | [] -> Alcotest.fail "no rows");
  Tablet.close r

let test_corruption_detected () =
  let vfs = Vfs.memory () in
  ignore (write_tablet vfs "t.tab" (sorted_rows 100));
  let data = Vfs.read_all vfs "t.tab" in
  let corrupt_at pos =
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    let f = Vfs.create vfs "bad.tab" in
    Vfs.append vfs f (Bytes.to_string b);
    Vfs.close vfs f
  in
  (* Flip a byte in the middle of the first block. *)
  corrupt_at 50;
  (match
     let r = Tablet.open_reader vfs ~path:"bad.tab" ~into:schema in
     drain (Tablet.iter r ~asc:true ())
   with
  | (_ : (string * Value.t array) list) -> Alcotest.fail "block corruption missed"
  | exception Lt_util.Binio.Corrupt _ -> ());
  (* Flip a byte in the trailer magic. *)
  corrupt_at (String.length data - 1);
  (match Tablet.open_reader vfs ~path:"bad.tab" ~into:schema with
  | (_ : Tablet.reader) -> Alcotest.fail "trailer corruption missed"
  | exception Lt_util.Binio.Corrupt _ -> ());
  (* Truncated file. *)
  let f = Vfs.create vfs "short.tab" in
  Vfs.append vfs f (String.sub data 0 10);
  Vfs.close vfs f;
  match Tablet.open_reader vfs ~path:"short.tab" ~into:schema with
  | (_ : Tablet.reader) -> Alcotest.fail "truncation missed"
  | exception Lt_util.Binio.Corrupt _ -> ()

let test_large_values () =
  (* Values far larger than the block size (the paper's biggest values
     are 75 kB HLL sets, §5.2.2). *)
  let vfs = Vfs.memory () in
  let s = Support.event_schema () in
  let big = String.make 200_000 'h' in
  let row i =
    [| Value.String "n"; Value.String (Printf.sprintf "d%03d" i);
       Value.Timestamp (Int64.of_int i); Value.Int64 0L; Value.Blob big |]
  in
  let w = Tablet.writer vfs ~path:"big.tab" ~schema:s ~block_size:(64 * 1024)
            ~bloom_bits_per_key:10 ~expected_rows:5 () in
  for i = 0 to 4 do
    let key = Key_codec.encode_key s (row i) in
    Tablet.add w ~key ~ts:(Int64.of_int i) (Tablet.decoded (row i))
  done;
  let summary = Tablet.finish w in
  Alcotest.(check int) "rows" 5 summary.Tablet.row_count;
  let r = Tablet.open_reader vfs ~path:"big.tab" ~into:s in
  let rows = drain (Tablet.iter r ~asc:true ()) in
  Alcotest.(check int) "all back" 5 (List.length rows);
  (match rows with
  | (_, row) :: _ -> Alcotest.(check bool) "blob intact" true (row.(4) = Value.Blob big)
  | [] -> ());
  Tablet.close r

(* ---- Encoded merges are byte-identical to decoded ones ---------------- *)

let event_schema = Support.event_schema ()

(* Keys whose string columns contain 0x00 and 0x01, so the Bloom
   boundary scan has to step over escapes. *)
let event_row ?flags i =
  let nets = [| "n\x00"; "n\x01"; "n"; "\x01\x00x"; "n\x00\x01" |] in
  Array.of_list
    ([
       Value.String nets.(i mod Array.length nets);
       Value.String (Printf.sprintf "d%c%02d" (Char.chr (i mod 3)) (i / 5));
       Value.Timestamp (Int64.of_int (1_000 + i));
       Value.Int64 (Int64.of_int (i * 31));
       Value.Blob (String.make (i mod 11) (Char.chr (i land 0xff)));
     ]
    @ Option.to_list flags)

let add_flags s =
  Schema.add_column s
    { Schema.name = "flags"; ctype = Value.T_int32; default = Value.Int32 7l }

let key_sorted s rows =
  List.sort_uniq
    (fun a b -> String.compare (Key_codec.encode_key s a) (Key_codec.encode_key s b))
    rows

let write_source vfs path (s, layout, rows) =
  let w =
    Tablet.writer vfs ~path ~schema:s ~block_size:1024 ~bloom_bits_per_key:10
      ~expected_rows:(List.length rows) ~layout ()
  in
  List.iter
    (fun row ->
      let key, key_prefixes = Key_codec.encode_key_with_prefixes s row in
      Tablet.add_row w ~key ~key_prefixes ~ts:(Key_codec.ts_of_key key) row)
    (key_sorted s rows);
  ignore (Tablet.finish w)

(* Merge [sources] into a tablet under [into] two ways and compare the
   files: the path the engine uses ([iter] handles into [add], which
   copies stored entries and encodes the rest) against the reference
   loop merges used to run (forced rows, the key re-encoded with its
   prefixes, [add_row]). *)
let check_merge_identity ~expected_rows ~into ~layout sources =
  let vfs = Vfs.memory () in
  let readers =
    List.mapi
      (fun i src ->
        let path = Printf.sprintf "src%d.tab" i in
        write_source vfs path src;
        (i, Tablet.open_reader vfs ~path ~into))
      sources
  in
  let merged streams path add =
    let w =
      Tablet.writer vfs ~path ~schema:into ~block_size:1024
        ~bloom_bits_per_key:10 ~expected_rows ~layout ()
    in
    let src = Cursor.merge ~asc:true streams in
    let rec go () =
      match src () with
      | None -> ()
      | Some (key, payload) ->
          add w key payload;
          go ()
    in
    go ();
    ignore (Tablet.finish w);
    Vfs.read_all vfs path
  in
  let encoded =
    merged
      (List.map (fun (i, r) -> (i, Tablet.iter r ~asc:true ())) readers)
      "encoded.tab"
      (fun w key h -> Tablet.add w ~key ~ts:(Key_codec.ts_of_key key) h)
  in
  let reference =
    merged
      (List.map (fun (i, r) -> (i, Tablet.iter r ~asc:true ())) readers)
      "reference.tab"
      (fun w _ h ->
        let row = Tablet.force h in
        let key, key_prefixes = Key_codec.encode_key_with_prefixes into row in
        Tablet.add_row w ~key ~key_prefixes ~ts:(Key_codec.ts_of_key key) row)
  in
  List.iter (fun (_, r) -> Tablet.close r) readers;
  Alcotest.(check int) "same length" (String.length reference) (String.length encoded);
  Alcotest.(check bool) "byte-identical" true (String.equal reference encoded)

let test_merge_identity_string_keys () =
  let rows lo hi = List.init (hi - lo) (fun j -> event_row (lo + j)) in
  let row_major = Block.Row_major in
  (* Overlapping key ranges, and a shadowed duplicate (row 40 twice). *)
  check_merge_identity ~expected_rows:900 ~into:event_schema ~layout:row_major
    [ (event_schema, row_major, rows 0 300);
      (event_schema, row_major, rows 40 41 @ rows 300 600);
      (event_schema, row_major, rows 600 900) ]

let test_merge_identity_schema_versions () =
  let v1 = add_flags event_schema in
  let v2 = Schema.widen_column v1 "flags" in
  let row_major = Block.Row_major in
  let rows lo hi flags = List.init (hi - lo) (fun j -> event_row ?flags:(flags (lo + j)) (lo + j)) in
  let sources =
    [ (event_schema, row_major, rows 0 200 (fun _ -> None));
      (v1, row_major, rows 200 400 (fun i -> Some (Value.Int32 (Int32.of_int i))));
      (v2, row_major, rows 400 600 (fun i -> Some (Value.Int64 (Int64.of_int (i * 1_000_003))))) ]
  in
  check_merge_identity ~expected_rows:600 ~into:v2 ~layout:row_major sources;
  check_merge_identity ~expected_rows:600 ~into:v2 ~layout:Block.Col_major sources

let test_merge_identity_columnar () =
  let rows lo hi = List.init (hi - lo) (fun j -> event_row (lo + j)) in
  let v1 = add_flags event_schema in
  (* Columnar sources (one under an older schema) and a row-major one,
     into columnar and into row-major outputs. *)
  let sources =
    [ (event_schema, Block.Col_major, rows 0 400);
      (v1, Block.Col_major,
       List.map (fun r -> Array.append r [| Value.Int32 3l |]) (rows 400 700));
      (event_schema, Block.Row_major, rows 700 900) ]
  in
  check_merge_identity ~expected_rows:900 ~into:v1 ~layout:Block.Col_major sources;
  check_merge_identity ~expected_rows:900 ~into:v1 ~layout:Block.Row_major sources

(* A merge or rewrite creates its stream under the lock that reads the
   output schema, so a schema change after that (here [set_target_schema]
   to a wider schema) must not change what the stream hands the writer:
   the file equals the one written from forced rows of a reader that was
   never retargeted. Sources stored under an older schema (rows are
   translated and encoded) and under the writer's (entries are copied). *)
let test_rewrite_stream_keeps_schema () =
  let v1 = add_flags event_schema in
  let v2 =
    Schema.add_column v1
      { Schema.name = "extra"; ctype = Value.T_int64; default = Value.Int64 5L }
  in
  let rows = List.init 300 event_row in
  List.iter
    (fun (stored, rows) ->
      let vfs = Vfs.memory () in
      write_source vfs "src.tab" (stored, Block.Row_major, rows);
      let copy ~retarget path add =
        let r = Tablet.open_reader vfs ~path:"src.tab" ~into:v1 in
        let it = Tablet.iter r ~asc:true () in
        if retarget then Tablet.set_target_schema r v2;
        let w =
          Tablet.writer vfs ~path ~schema:v1 ~block_size:1024
            ~bloom_bits_per_key:10 ~expected_rows:(List.length rows) ()
        in
        Cursor.fold
          (fun () (key, h) -> add w ~key ~ts:(Key_codec.ts_of_key key) h)
          () it;
        ignore (Tablet.finish w);
        Tablet.close r;
        Vfs.read_all vfs path
      in
      let streamed = copy ~retarget:true "streamed.tab" Tablet.add in
      let reference =
        copy ~retarget:false "reference.tab" (fun w ~key ~ts h ->
            Tablet.add_row w ~key ~key_prefixes:[] ~ts (Tablet.force h))
      in
      Alcotest.(check bool)
        (Printf.sprintf "stored v%d: byte-identical" (Schema.version stored))
        true
        (String.equal reference streamed))
    [ (event_schema, rows);
      (v1, List.map (fun r -> Array.append r [| Value.Int32 9l |]) rows) ]

(* ---- Block walker ----------------------------------------------------- *)

(* A scan bound drawn from the tablet's own keys: a stored key, the keys
   just above and just below it, a block's last key, or no bound. The
   index is taken modulo the pool it picks from. *)
type bound_pick =
  | No_bound
  | Stored of int
  | Above of int
  | Below of int
  | Block_end of int

let pp_pick = function
  | No_bound -> "none"
  | Stored i -> Printf.sprintf "stored %d" i
  | Above i -> Printf.sprintf "above %d" i
  | Below i -> Printf.sprintf "below %d" i
  | Block_end i -> Printf.sprintf "block end %d" i

(* Last keys of the blocks a 1 KiB writer cuts, by the writer's own
   rule: a block ends once its raw size reaches the block size. *)
let block_last_keys layout keyed =
  let ends add size finish =
    List.filter_map
      (fun (key, row) ->
        add key row;
        if size () >= 1024 then (finish (); Some key) else None)
      keyed
  in
  match layout with
  | Block.Row_major ->
      let b = Block.builder () in
      ends
        (fun key row -> Block.add b ~key ~value:(Row_codec.encode_value schema row))
        (fun () -> Block.raw_size b)
        (fun () -> ignore (Block.finish b))
  | Block.Col_major ->
      let b = Block.col_builder schema in
      ends
        (fun key row -> Block.col_add b ~key row)
        (fun () -> Block.col_raw_size b)
        (fun () -> ignore (Block.col_finish b))

(* [iter] in both directions against a reference filter over the rows
   written, for random rows spread over many small blocks in both
   layouts, read as stored or under an evolved schema, with bounds at
   and around stored keys and block edges (including [lo >= hi]). *)
let prop_block_walker =
  let gen =
    QCheck.Gen.(
      let pick =
        frequency
          [ (1, return No_bound);
            (3, map (fun i -> Stored i) nat);
            (2, map (fun i -> Above i) nat);
            (2, map (fun i -> Below i) nat);
            (2, map (fun i -> Block_end i) nat) ]
      in
      quad
        (list_size (int_range 1 400)
           (triple (int_bound 7) (int_bound 30) (int_bound 5000)))
        (pair bool bool) pick pick)
  in
  let print (rows, (col, evolved), lo, hi) =
    Printf.sprintf "%d rows, %s, %s, lo=%s, hi=%s" (List.length rows)
      (if col then "columnar" else "row-major")
      (if evolved then "evolved" else "stored schema")
      (pp_pick lo) (pp_pick hi)
  in
  QCheck.Test.make ~name:"block walker = reference filter" ~count:200
    (QCheck.make ~print gen) (fun (specs, (col, evolved), lo, hi) ->
      let layout = if col then Block.Col_major else Block.Row_major in
      let rows =
        key_sorted schema
          (List.map
             (fun (net, dev, ts) ->
               Support.usage_row ~network:(Int64.of_int net)
                 ~device:(Int64.of_int dev) ~ts:(Int64.of_int ts)
                 ~bytes:(Int64.of_int (net * dev * ts))
                 ~rate:(float_of_int (ts mod 97)))
             specs)
      in
      let keyed = List.map (fun row -> (Key_codec.encode_key schema row, row)) rows in
      let vfs = Vfs.memory () in
      write_source vfs "w.tab" (schema, layout, rows);
      let into = if evolved then add_flags schema else schema in
      let r = Tablet.open_reader vfs ~path:"w.tab" ~into in
      let keys = Array.of_list (List.map fst keyed) in
      let ends = Array.of_list (block_last_keys layout keyed) in
      let nth pool i = pool.(i mod Array.length pool) in
      let resolve = function
        | No_bound -> None
        | Stored i -> Some (nth keys i)
        | Above i -> Some (nth keys i ^ "\x00")
        | Below i ->
            let k = nth keys i in
            Some (String.sub k 0 (String.length k - 1))
        | Block_end i when Array.length ends > 0 -> Some (nth ends i)
        | Block_end i -> Some (nth keys i)
      in
      let lo = resolve lo and hi = resolve hi in
      let expected =
        List.filter_map
          (fun (k, row) ->
            let above_lo = match lo with None -> true | Some b -> k >= b in
            let below_hi = match hi with None -> true | Some b -> k < b in
            if above_lo && below_hi then
              Some (k, Schema.translate_row ~from:schema ~into row)
            else None)
          keyed
      in
      let asc = drain (Tablet.iter r ~asc:true ?lo ?hi ()) in
      let desc = drain (Tablet.iter r ~asc:false ?lo ?hi ()) in
      Tablet.close r;
      asc = expected && desc = List.rev expected)

(* ---- Descriptor ------------------------------------------------------ *)

let meta id =
  Descriptor.
    {
      id;
      file = Descriptor.tablet_file id;
      min_ts = Int64.of_int (id * 100);
      max_ts = Int64.of_int ((id * 100) + 99);
      min_key = "a";
      max_key = "z";
      row_count = 42;
      size = 1000 + id;
      columnar = id mod 2 = 1;
    }

let test_descriptor_roundtrip () =
  let vfs = Vfs.memory () in
  Vfs.mkdir_p vfs "tbl";
  let d =
    Descriptor.
      { schema; ttl = Some 123L; next_id = 7; tablets = [ meta 3; meta 1; meta 2 ] }
  in
  Descriptor.save vfs ~dir:"tbl" d;
  Alcotest.(check bool) "exists" true (Descriptor.exists vfs ~dir:"tbl");
  let d' = Descriptor.load vfs ~dir:"tbl" in
  Alcotest.(check bool) "schema" true (Schema.equal schema d'.Descriptor.schema);
  Alcotest.(check bool) "ttl" true (d'.Descriptor.ttl = Some 123L);
  Alcotest.(check int) "next_id" 7 d'.Descriptor.next_id;
  Alcotest.(check (list int)) "normalized order" [ 1; 2; 3 ]
    (List.map (fun m -> m.Descriptor.id) d'.Descriptor.tablets)

let test_descriptor_atomic_replace () =
  let vfs = Vfs.memory () in
  Vfs.mkdir_p vfs "tbl";
  Descriptor.save vfs ~dir:"tbl" Descriptor.{ schema; ttl = None; next_id = 1; tablets = [] };
  Descriptor.save vfs ~dir:"tbl" Descriptor.{ schema; ttl = None; next_id = 9; tablets = [ meta 1 ] };
  let d = Descriptor.load vfs ~dir:"tbl" in
  Alcotest.(check int) "latest wins" 9 d.Descriptor.next_id;
  (* The temp file does not linger. *)
  Alcotest.(check (list string)) "only DESCRIPTOR" [ "DESCRIPTOR" ] (Vfs.readdir vfs "tbl")

let test_descriptor_corruption () =
  let vfs = Vfs.memory () in
  Vfs.mkdir_p vfs "tbl";
  Descriptor.save vfs ~dir:"tbl" Descriptor.{ schema; ttl = None; next_id = 1; tablets = [] };
  let raw = Vfs.read_all vfs "tbl/DESCRIPTOR" in
  let b = Bytes.of_string raw in
  Bytes.set b 20 '\xff';
  let f = Vfs.create vfs "tbl/DESCRIPTOR" in
  Vfs.append vfs f (Bytes.to_string b);
  Vfs.close vfs f;
  match Descriptor.load vfs ~dir:"tbl" with
  | (_ : Descriptor.t) -> Alcotest.fail "corruption missed"
  | exception Lt_util.Binio.Corrupt _ -> ()

(* In-place key reads against copied keys: [search_geq], [compare_key]
   and [key_ts] on row-major and columnar blocks agree with
   [String.compare] and [Key_codec.ts_of_key] on the keys themselves.
   String key columns with 0x00/0x01 bytes make escaped keys and keys
   whose string columns are prefixes of each other; probes include
   stored keys, their proper prefixes and extensions, and raw bytes. *)
let prop_keys_in_place =
  let s = Support.event_schema () in
  let str = QCheck.Gen.(string_size ~gen:(oneofl [ '\x00'; '\x01'; '\x02'; 'a'; '\xff' ]) (int_bound 4)) in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 40)
           (triple str str (map Int64.of_int (int_range (-3) 3))))
        (list_size (int_bound 20)
           (pair (int_bound 1000)
              (oneofl [ `Prefix; `Extend; `Raw ]))))
  in
  QCheck.Test.make ~name:"block keys read in place = copied keys" ~count:300
    (QCheck.make gen)
    (fun (cells, probe_specs) ->
      let rows =
        List.map
          (fun (net, dev, ts) ->
            [| Value.String net; Value.String dev; Value.Timestamp ts;
               Value.Int64 0L; Value.Blob "" |])
          cells
      in
      let keyed =
        List.sort_uniq
          (fun (a, _) (b, _) -> String.compare a b)
          (List.map (fun r -> (Key_codec.encode_key s r, r)) rows)
      in
      let keys = Array.of_list (List.map fst keyed) in
      let n = Array.length keys in
      let row_major =
        let b = Block.builder () in
        Array.iter (fun k -> Block.add b ~key:k ~value:"") keys;
        Block.decode (Block.finish b)
      in
      let columnar =
        let b = Block.col_builder s in
        List.iter (fun (key, row) -> Block.col_add b ~key row) keyed;
        Block.decode_columnar s (fst (Block.col_finish b))
      in
      let probes =
        List.map
          (fun (i, kind) ->
            let k = keys.(i mod n) in
            match kind with
            | `Prefix -> String.sub k 0 (i mod (String.length k + 1))
            | `Extend -> k ^ String.make (1 + (i mod 3)) (Char.chr (i mod 3))
            | `Raw -> String.make (i mod 5) (Char.chr (i mod 256)))
          probe_specs
        @ Array.to_list keys
      in
      let sign x = compare x 0 in
      List.for_all
        (fun blk ->
          Block.count blk = n
          && List.for_all
               (fun p ->
                 let below = Array.fold_left (fun a k -> if String.compare k p < 0 then a + 1 else a) 0 keys in
                 Block.search_geq blk p = below
                 && Array.for_all Fun.id
                      (Array.mapi
                         (fun i k ->
                           sign (Block.compare_key blk i p)
                           = sign (String.compare k p))
                         keys))
               probes
          && Array.for_all Fun.id
               (Array.mapi
                  (fun i k ->
                    Block.key blk i = k
                    && Block.key_ts blk i = Key_codec.ts_of_key k)
                  keys))
        [ row_major; columnar ])

let suite =
  [
    ("block roundtrip", `Quick, test_block_roundtrip);
    ("block add_entry checks the entry's span", `Quick,
     test_block_add_entry_checks_span);
    ("block ordering enforced", `Quick, test_block_ordering_enforced);
    ("block binary search", `Quick, test_block_search);
    ("block raw size tracking", `Quick, test_block_raw_size_tracks);
    ("tablet write/read roundtrip", `Quick, test_write_read_roundtrip);
    ("tablet iter bounds", `Quick, test_iter_bounds);
    ("tablet bloom prefixes", `Quick, test_bloom_prefixes);
    ("tablet without bloom", `Quick, test_no_bloom);
    ("empty tablet rejected", `Quick, test_empty_tablet_rejected);
    ("tablet abandon", `Quick, test_abandon);
    ("schema translation on read", `Quick, test_schema_translation_on_read);
    ("corruption detected", `Quick, test_corruption_detected);
    ("values larger than blocks", `Quick, test_large_values);
    ("encoded merge = decoded: string keys", `Quick, test_merge_identity_string_keys);
    ("encoded merge = decoded: schema versions", `Quick, test_merge_identity_schema_versions);
    ("encoded merge = decoded: columnar", `Quick, test_merge_identity_columnar);
    ("a rewrite stream keeps the schema it was created with", `Quick,
     test_rewrite_stream_keeps_schema);
    Support.qcheck prop_block_walker;
    Support.qcheck prop_keys_in_place;
    ("descriptor roundtrip", `Quick, test_descriptor_roundtrip);
    ("descriptor atomic replace", `Quick, test_descriptor_atomic_replace);
    ("descriptor corruption", `Quick, test_descriptor_corruption);
  ]
