(* Allocation gates. Minor-heap words and minor collections are counted
   on this domain, so unlike timings they do not swing with the host: a
   bound here fails on a change to the code, not on a busy machine. *)

open Littletable
module Binio = Lt_util.Binio

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* The fewest of [n] measurements: threads of earlier suites may still
   run and allocate on this domain now and then, and a stray minor
   collection is global, but neither can make every try read low. *)
let fewest n measure =
  List.fold_left min (measure ()) (List.init (n - 1) (fun _ -> measure ()))

(* The write path end to end: [Table.insert] of 5-column rows in
   256-row batches, then [flush_all], on the memory VFS with
   observability off and no scan pool. Rows are built before counting,
   so every word counted is the engine's: validating and encoding each
   row once, landing it in the memtable, and the flush that writes the
   memtable out. *)
let write_path_words_per_row () =
  let config = Config.make ~obs_enabled:false ~query_domains:0 () in
  let db, _clock, _vfs = Support.fresh_db ~config () in
  let t = Db.create_table db "usage" (Support.usage_schema ()) ~ttl:None in
  let batches = 40 and batch = 256 in
  let rows =
    List.init batches (fun b ->
        List.init batch (fun i ->
            let n = (b * batch) + i in
            Support.usage_row
              ~network:(Int64.of_int (n mod 7))
              ~device:(Int64.of_int (n mod 101))
              ~ts:(Int64.add Support.ts0 (Int64.of_int (n * 1000)))
              ~bytes:(Int64.of_int (n * 37))
              ~rate:(float_of_int n /. 8.0)))
  in
  Gc.minor ();
  let words =
    minor_words (fun () ->
        List.iter (Table.insert t) rows;
        Table.flush_all t)
  in
  Support.check_int "every row inserted" (batches * batch)
    (Table.stats t).Stats.rows_inserted;
  Support.check_int "every memtable flushed" 0 (Table.memtable_count t);
  Db.close db;
  words /. float_of_int (batches * batch)

let test_write_path_gate () =
  let per_row = write_path_words_per_row () in
  if per_row > 60.0 then
    Alcotest.failf
      "Table.insert + flush_all: %.1f minor words per row, above the 60 \
       words/row bound"
      per_row

(* A varint-prefixed string read allocates the string and nothing
   else: no closure for the varint loop. *)
let test_varint_string_loop () =
  let n = 1000 in
  let b = Buffer.create 4096 in
  for i = 0 to n - 1 do
    Binio.put_varint b (i * 1000);
    Binio.put_string b "0123456789abcdef"
  done;
  let data = Buffer.contents b in
  let sink = ref 0 in
  let words =
    fewest 3 (fun () ->
        let cur = Binio.cursor data in
        let w =
          minor_words (fun () ->
              for _ = 1 to n do
                sink := !sink + Binio.get_varint cur;
                sink := !sink + String.length (Binio.get_string cur)
              done)
        in
        Support.check_bool "read to the end" true (Binio.remaining cur = 0);
        w)
  in
  (* A 16-byte string is a header and three words. *)
  let string_words = 4.0 *. float_of_int n in
  if words > string_words +. 16.0 then
    Alcotest.failf "get_varint/get_string loop: %.0f words for %d strings \
                    (%.0f expected)" words n string_words

(* Decoding a usage row allocates the row, its boxed cells and one key
   cursor: the per-column loops allocate no closures. *)
let test_row_decode_alloc () =
  let schema = Support.usage_schema () in
  let row =
    Support.usage_row ~network:3L ~device:44L ~ts:Support.ts0 ~bytes:5L
      ~rate:0.5
  in
  let key = Key_codec.encode_key schema row in
  let value = Row_codec.encode_value schema row in
  let n = 1000 in
  let words =
    fewest 3 (fun () ->
        minor_words (fun () ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Row_codec.decode schema ~key ~value))
            done))
  in
  let per_row = words /. float_of_int n in
  if per_row > 60.0 then
    Alcotest.failf "Row_codec.decode: %.1f words per row, above 60" per_row

(* A columnar window of more than 256 rows lives on the major heap;
   building it from a young row used to force a minor collection on
   every window. *)
let test_columnar_window_no_minor_gc () =
  let schema = Support.usage_schema () in
  let b = Block.col_builder schema in
  let n = 1600 in
  for i = 0 to n - 1 do
    let row =
      Support.usage_row ~network:1L ~device:(Int64.of_int (i / 100))
        ~ts:(Int64.add Support.ts0 (Int64.of_int i))
        ~bytes:(Int64.of_int i) ~rate:1.5
    in
    Block.col_add b ~key:(Key_codec.encode_key schema row) row
  done;
  let raw, _ = Block.col_finish b in
  let block = Block.decode_columnar schema raw in
  let collections =
    fewest 5 (fun () ->
        Gc.minor ();
        let c0 = (Gc.quick_stat ()).Gc.minor_collections in
        let rows, _ = Block.columnar_rows block schema ~first:0 ~last:n in
        let c1 = (Gc.quick_stat ()).Gc.minor_collections in
        Support.check_int "window rows" n (Array.length rows);
        c1 - c0)
  in
  Support.check_int "minor collections during one window" 0 collections

let suite =
  [
    Alcotest.test_case "write path: at most 60 minor words per row" `Quick
      test_write_path_gate;
    Alcotest.test_case "varint + get_string loop allocates only strings"
      `Quick test_varint_string_loop;
    Alcotest.test_case "row decode allocation bound" `Quick
      test_row_decode_alloc;
    Alcotest.test_case "columnar window runs no minor collection" `Quick
      test_columnar_window_no_minor_gc;
  ]
