(* Bechamel wall-clock microbenchmarks: one Test.make per paper
   table/figure counterpart, measuring the CPU side of each hot path
   (the disk side is the cost model's job in the figure benches):

   - headline row path: key encode, row encode/decode (table of §5.1.2);
   - Figure 2 counterpart: single-batch insert into a table, and the
     memtable insert under it in poll-cycle and in random key order;
   - Figure 3 counterpart: block build + LZ compression (flush path);
   - Figure 5/6 counterpart: cursor merge step and block binary search;
   - §3.4.5: bloom add/mem; §4.1.2: HLL add. *)

open Bechamel
open Littletable

let schema = Support.row_schema ()

let sample_row =
  let rng = Lt_util.Xorshift.create 1L in
  Support.make_row rng ~ts:1_000_000L ~row_size:128

let sample_key = Key_codec.encode_key schema sample_row

let sample_value = Row_codec.encode_value schema sample_row

let block_64k =
  let rng = Lt_util.Xorshift.create 2L in
  let b = Block.builder () in
  let i = ref 0 in
  while Block.raw_size b < 64 * 1024 do
    (* Ascending keys: fix the leading key column to the row index. *)
    let row = Support.make_row rng ~ts:(Int64.of_int !i) ~row_size:128 in
    row.(0) <- Value.Int64 (Int64.of_int !i);
    Block.add b ~key:(Key_codec.encode_key schema row)
      ~value:(Row_codec.encode_value schema row);
    incr i
  done;
  Block.finish b

let compressible_64k =
  String.concat "" (List.init 1024 (fun i -> Printf.sprintf "row-%06d-padding-data-here...............\n" (i mod 97)))

let test_key_encode =
  Test.make ~name:"key_codec.encode (6 cols)"
    (Staged.stage (fun () -> ignore (Key_codec.encode_key schema sample_row)))

let test_row_decode =
  Test.make ~name:"row_codec.decode (128 B row)"
    (Staged.stage (fun () ->
         ignore (Row_codec.decode schema ~key:sample_key ~value:sample_value)))

(* One memtable's worth of rows (about the 9.4k rows a 400 KiB memtable
   holds), encoded before timing so the memtable cases time
   [Memtable.insert] alone. In ascending-run order the rows come as a
   grabber polls 2,000 devices: each cycle's rows in key order, landing
   between the last cycle's, as in perfbench's [ingest]; the random
   order is a shuffle of the same rows, the tree's finger fallback. *)
let memtable_rows =
  let rng = Lt_util.Xorshift.create 3L in
  let devices = 2_000 in
  Array.init 9_472 (fun i ->
      let ts = Int64.of_int (i / devices) in
      let row = Support.make_row rng ~ts ~row_size:128 in
      row.(0) <- Value.Int64 (Int64.of_int (i mod devices));
      for c = 1 to 4 do row.(c) <- Value.Int64 0L done;
      (Key_codec.encode_key schema row, ts, Row_codec.encode_value schema row))

let memtable_rows_shuffled =
  let rng = Lt_util.Xorshift.create 4L in
  let a = Array.copy memtable_rows in
  for i = Array.length a - 1 downto 1 do
    let j = Lt_util.Xorshift.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let memtable_fill name rows =
  Test.make ~name
    (Staged.stage (fun () ->
         let mt =
           Memtable.create ~id:1
             ~period:{ Period.start = 0L; cls = Period.Week }
             ~created_at:0L
         in
         Array.iter
           (fun (key, ts, value) -> ignore (Memtable.insert mt ~key ~ts value))
           rows))

let test_memtable_insert_runs =
  memtable_fill "memtable insert, ascending runs (9,472 rows)" memtable_rows

let test_memtable_insert_random =
  memtable_fill "memtable insert, random order (9,472 rows)"
    memtable_rows_shuffled

let test_block_decode_search =
  let blk = Block.decode block_64k in
  Test.make ~name:"block binary search"
    (Staged.stage (fun () -> ignore (Block.search_geq blk sample_key)))

let test_lz_compress =
  Test.make ~name:"lz compress (64 kB text)"
    (Staged.stage (fun () -> ignore (Lt_lz.Lz.compress compressible_64k)))

let test_lz_roundtrip =
  let c = Lt_lz.Lz.compress compressible_64k in
  let n = String.length compressible_64k in
  Test.make ~name:"lz decompress (64 kB text)"
    (Staged.stage (fun () -> ignore (Lt_lz.Lz.decompress ~raw_len:n c)))

let test_bloom =
  let bloom = Lt_bloom.Bloom.create ~expected_keys:10_000 () in
  Lt_bloom.Bloom.add bloom sample_key;
  Test.make ~name:"bloom mem"
    (Staged.stage (fun () -> ignore (Lt_bloom.Bloom.mem bloom sample_key)))

let test_hll =
  let hll = Lt_hll.Hll.create () in
  Test.make ~name:"hll add"
    (Staged.stage (fun () -> Lt_hll.Hll.add hll sample_key))

let test_table_insert_batch =
  Test.make ~name:"table insert (512-row batch)"
    (Staged.stage
       (let env = Support.make_env () in
        let table = Db.create_table env.Support.db "micro" schema ~ttl:None in
        let rng = Lt_util.Xorshift.create 4L in
        fun () ->
          Table.insert table
            (Support.make_batch rng ~clock:env.Support.clock ~n:512 ~row_size:128);
          Lt_util.Clock.advance env.Support.clock 512L))

let test_query_point =
  Test.make ~name:"table point query"
    (Staged.stage
       (let env = Support.make_env () in
        let table = Db.create_table env.Support.db "microq" schema ~ttl:None in
        let rng = Lt_util.Xorshift.create 5L in
        let rows = Support.make_batch rng ~clock:env.Support.clock ~n:4096 ~row_size:128 in
        Table.insert table rows;
        Table.flush_all table;
        let target = List.nth rows 2048 in
        let prefix =
          [ target.(0); target.(1); target.(2); target.(3); target.(4) ]
        in
        fun () -> ignore (Table.query table (Query.prefix prefix))))

let all_tests =
  Test.make_grouped ~name:"littletable"
    [
      test_key_encode; test_row_decode; test_memtable_insert_runs;
      test_memtable_insert_random;
      test_block_decode_search; test_lz_compress; test_lz_roundtrip;
      test_bloom; test_hll; test_table_insert_batch; test_query_point;
    ]

let run () =
  Support.header "Microbenchmarks (bechamel, wall clock)";
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
  in
  Support.table_header [ ("benchmark", 44); ("ns/op", 14); ("ops/s", 14) ];
  List.iter
    (fun (name, ns) ->
      Support.metric ~name ~value:ns ~unit:"ns/op";
      Printf.printf "%-44s  %-14.1f  %-14.0f\n" name ns (1e9 /. ns))
    (List.sort compare rows)
