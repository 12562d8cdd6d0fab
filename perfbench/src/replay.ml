(* Per-layer floors by replay: the traced run feeds a sample of the
   workload's own rows to each layer's public functions and times the
   calls itself. Each replay runs [reps] times and keeps the median, so
   one scheduler stall does not set a layer's number. *)

open Littletable
module Vfs = Lt_vfs.Vfs
module Clock = Lt_util.Clock
module Binio = Lt_util.Binio
module Protocol = Lt_net.Protocol
module Placement = Lt_cluster.Placement

let reps = 3

let m = Report.metric

(* Median over [reps] runs of [f ()], which returns elapsed ns. *)
let median_ns f = Tally.median_of (List.init reps (fun _ -> f ()))

let timed f = snd (Mclock.time f)

let per n ns = if n = 0 then 0.0 else ns /. float n

type sample = {
  schema : Schema.t;
  rows : Value.t array array;  (** unique keys, any order *)
  sorted : (string * Value.t array) array;  (** by encoded key *)
}

let sample schema rows =
  let sorted = Array.map (fun r -> (Key_codec.encode_key schema r, r)) rows in
  Array.sort (fun (a, _) (b, _) -> String.compare a b) sorted;
  { schema; rows; sorted }

let codecs s =
  let n = Array.length s.rows in
  let key_ns =
    median_ns (fun () ->
        timed (fun () -> Array.iter (fun r -> ignore (Key_codec.encode_key s.schema r)) s.rows))
  in
  let enc_ns =
    median_ns (fun () ->
        timed (fun () ->
            Array.iter (fun r -> ignore (Row_codec.encode_value s.schema r)) s.rows))
  in
  let encoded =
    Array.map (fun (k, r) -> (k, Row_codec.encode_value s.schema r)) s.sorted
  in
  let dec_ns =
    median_ns (fun () ->
        timed (fun () ->
            Array.iter
              (fun (key, value) -> ignore (Row_codec.decode s.schema ~key ~value))
              encoded))
  in
  let mem_ns =
    median_ns (fun () ->
        let ts0 = Schema.row_ts s.schema s.rows.(0) in
        let mt =
          Memtable.create ~id:0 ~period:(Period.bin ~now:ts0 ts0) ~created_at:ts0
        in
        timed (fun () ->
            Array.iter
              (fun (key, row) ->
                ignore (Memtable.insert mt ~key ~ts:(Key_codec.ts_of_key key) row))
              s.sorted))
  in
  let prefixed =
    Array.map (fun r -> Key_codec.encode_key_with_prefixes s.schema r) s.rows
  in
  let bloom_ns =
    median_ns (fun () ->
        let b = Lt_bloom.Bloom.create ~bits_per_key:10 ~expected_keys:n () in
        timed (fun () ->
            Array.iter
              (fun (k, ps) ->
                Lt_bloom.Bloom.add b k;
                List.iter (Lt_bloom.Bloom.add b) ps)
              prefixed))
  in
  [
    m "key_codec.encode_ns_per_row" (per n key_ns) "ns/row";
    m "row_codec.encode_ns_per_row" (per n enc_ns) "ns/row";
    m "row_codec.decode_ns_per_row" (per n dec_ns) "ns/row";
    m "memtable.insert_ns_per_row" (per n mem_ns) "ns/row";
    m "bloom.add_ns_per_row" (per n bloom_ns) "ns/row";
  ]

let kib bytes = float bytes /. 1024.0

let storage ~block_size s =
  let n = Array.length s.sorted in
  let encoded =
    Array.map (fun (k, r) -> (k, Row_codec.encode_value s.schema r)) s.sorted
  in
  (* Row-major blocks, cut the way the tablet writer cuts them. *)
  let blocks =
    let b = Block.builder () and out = ref [] in
    Array.iter
      (fun (key, value) ->
        Block.add b ~key ~value;
        if Block.raw_size b >= block_size then out := Block.finish b :: !out)
      encoded;
    if Block.entry_count b > 0 then out := Block.finish b :: !out;
    Array.of_list (List.rev !out)
  in
  let raw_bytes = Array.fold_left (fun a b -> a + String.length b) 0 blocks in
  let compressed = Array.map Lt_lz.Lz.compress blocks in
  let comp_bytes = Array.fold_left (fun a b -> a + String.length b) 0 compressed in
  let lz_ns = median_ns (fun () -> timed (fun () -> Array.iter (fun b -> ignore (Lt_lz.Lz.compress b)) blocks)) in
  let unlz_ns =
    median_ns (fun () ->
        timed (fun () ->
            Array.iteri
              (fun i c -> ignore (Lt_lz.Lz.decompress ~raw_len:(String.length blocks.(i)) c))
              compressed))
  in
  let crc_ns = median_ns (fun () -> timed (fun () -> Array.iter (fun b -> ignore (Lt_util.Crc32c.string b)) blocks)) in
  let dec_ns = median_ns (fun () -> timed (fun () -> Array.iter (fun b -> ignore (Block.decode b)) blocks)) in
  let vfs = Vfs.memory () in
  let write_once i =
    let path = Printf.sprintf "replay-%d.tab" i in
    let w =
      Tablet.writer vfs ~path ~schema:s.schema ~block_size ~bloom_bits_per_key:10
        ~expected_rows:n ()
    in
    let ns =
      timed (fun () ->
          Array.iter
            (fun (_, row) ->
              let key, key_prefixes = Key_codec.encode_key_with_prefixes s.schema row in
              Tablet.add_row w ~key ~key_prefixes ~ts:(Key_codec.ts_of_key key) row)
            s.sorted;
          ignore (Tablet.finish w))
    in
    (path, ns)
  in
  let written = List.init reps write_once in
  let write_ns = Tally.median_of (List.map snd written) in
  let path = fst (List.hd written) in
  let scan_ns =
    median_ns (fun () ->
        timed (fun () ->
            let r = Tablet.open_reader vfs ~path ~into:s.schema in
            let next = Tablet.iter r ~asc:true () in
            let rec drain () = match next () with Some _ -> drain () | None -> () in
            drain ();
            Tablet.close r))
  in
  let nb = Array.length blocks in
  [
    m "tablet.write_ns_per_row" (per n write_ns) "ns/row";
    m "tablet.scan_ns_per_row" (per n scan_ns) "ns/row";
    m "block.decode_us_per_block" (per nb dec_ns /. 1e3) "us/block";
    m "lz.compress_ns_per_kib" (lz_ns /. kib raw_bytes) "ns/KiB";
    m "lz.decompress_ns_per_kib" (unlz_ns /. kib raw_bytes) "ns/KiB";
    m "lz.ratio" (float comp_bytes /. float raw_bytes) "ratio";
    m "crc32c.ns_per_kib" (crc_ns /. kib raw_bytes) "ns/KiB";
  ]

(* Four key-sorted runs, dealt round-robin, merged back into one. *)
let cursor s =
  let n = Array.length s.sorted in
  let runs = Array.make 4 [] in
  for i = n - 1 downto 0 do
    runs.(i mod 4) <- s.sorted.(i) :: runs.(i mod 4)
  done;
  let ns =
    median_ns (fun () ->
        let sources =
          Array.to_list
            (Array.mapi
               (fun p run ->
                 let rest = ref run in
                 ( p,
                   fun () ->
                     match !rest with
                     | [] -> None
                     | x :: tl ->
                         rest := tl;
                         Some x ))
               runs)
        in
        timed (fun () -> ignore (Cursor.to_list (Cursor.merge ~asc:true sources))))
  in
  [ m "cursor.merge_ns_per_row" (per n ns) "ns/row" ]

let chunks ~size a =
  let n = Array.length a in
  List.init ((n + size - 1) / size) (fun i ->
      Array.to_list (Array.sub a (i * size) (min size (n - (i * size)))))

(* Insert frames as a buffering client sends them, and result pages as
   a server answers them. *)
let protocol ~table ~batch s =
  let n = Array.length s.rows in
  let frames =
    List.map
      (fun rows ->
        let b = Buffer.create 4096 in
        Protocol.write_request b (Protocol.Insert_batch { groups = Protocol.Groups [ (table, rows) ] });
        Buffer.contents b)
      (chunks ~size:batch s.rows)
  in
  (* 4-byte length header and 1-byte trace-context flag per frame *)
  let wire_bytes = List.fold_left (fun a f -> a + String.length f + 5) 0 frames in
  let dec_ns =
    median_ns (fun () ->
        timed (fun () ->
            List.iter
              (fun f ->
                match Protocol.read_request (Binio.cursor f) with
                | Protocol.Insert_batch { groups } -> ignore (Protocol.groups_of_payload groups)
                | _ -> failwith "replay: frame decoded to another request")
              frames))
  in
  let pages = chunks ~size:batch (Array.map snd s.sorted) in
  let enc_ns =
    median_ns (fun () ->
        timed (fun () ->
            List.iter
              (fun rows ->
                let b = Buffer.create 4096 in
                Protocol.write_response b
                  (Protocol.Row_batch
                     { rows; more_available = false; scanned = List.length rows; profile = None }))
              pages))
  in
  [
    m "protocol.decode_ns_per_row" (per n dec_ns) "ns/row";
    m "protocol.encode_ns_per_row" (per n enc_ns) "ns/row";
    m "net.req_bytes_per_row" (float wire_bytes /. float n) "B/row";
  ]

let placement s =
  let p = Placement.create ~shards:3 ~policy:(Placement.Hash { vnodes = 64 }) in
  let ns =
    median_ns (fun () ->
        timed (fun () -> Array.iter (fun r -> ignore (Placement.shard_of_row p s.schema r)) s.rows))
  in
  [ m "placement.shard_of_row_ns" (per (Array.length s.rows) ns) "ns/row" ]

let sql ~schema ~now statements =
  let ns =
    median_ns (fun () ->
        timed (fun () ->
            List.iter
              (fun text ->
                match Lt_sql.Parser.parse text with
                | Lt_sql.Ast.Select sel -> ignore (Lt_sql.Planner.plan_select schema ~now sel)
                | _ -> failwith "replay: not a SELECT")
              statements))
  in
  [ m "sql.parse_plan_us" (per (List.length statements) ns /. 1e3) "us" ]

(* The table's own insert, flush and merge, on a private in-memory
   table: four flushed runs of the sample, then merges to a fixpoint. *)
let table_ops ~config s =
  let config = { config with Config.flush_size = max_int; rollover_spread = 0.0 } in
  let n = Array.length s.rows in
  let max_ts = Array.fold_left (fun a r -> max a (Schema.row_ts s.schema r)) 0L s.rows in
  let clock = Clock.manual ~start:max_ts () in
  let tbl =
    Table.create (Vfs.memory ()) ~clock ~config ~dir:"replay" ~name:"replay" s.schema ~ttl:None
  in
  let parts = chunks ~size:((n + 3) / 4) s.rows in
  let insert_ns = ref 0.0 and flush_ns = Tally.create () in
  List.iter
    (fun part ->
      List.iter
        (fun batch -> insert_ns := !insert_ns +. timed (fun () -> Table.insert tbl batch))
        (chunks ~size:256 (Array.of_list part));
      Tally.add flush_ns (timed (fun () -> Table.flush_all tbl)))
    parts;
  Clock.set clock (Int64.add max_ts (Int64.add config.Config.merge_delay Clock.minute));
  let merge_ns = Tally.create () in
  let rec merge () =
    let merged, ns = Mclock.time (fun () -> Table.merge_step tbl) in
    if merged then begin
      Tally.add merge_ns ns;
      merge ()
    end
  in
  merge ();
  Table.close tbl;
  [
    m "table.insert_ns_per_row" (per n !insert_ns) "ns/row";
    m "table.flush_ms" (Tally.mean flush_ns /. 1e6) "ms";
    m "table.merge_ms" (Tally.mean merge_ns /. 1e6) "ms";
  ]
