(* Property tests for the columnar block format and footer pushdown.

   The footer contract under test: for any block, aggregates answered
   from the per-column min/max/sum footer stats are bit-identical to the
   values obtained by decoding every row and feeding it through the same
   accumulator. Generators deliberately cover all-default columns (the
   presence bitmap is all-clear and the section is empty), values whose
   int64 sum wraps, and TTL-expired rows that the query cutoff hides. *)

open Littletable
module Clock = Lt_util.Clock

let schema = Support.usage_schema ()

(* Every aggregate spec expressible over the usage schema. *)
let all_specs =
  { Agg.a_fn = Agg.Count; a_col = None }
  :: List.concat_map
       (fun fn ->
         List.init
           (Array.length (Schema.columns schema))
           (fun c -> { Agg.a_fn = fn; a_col = Some c }))
       [ Agg.Count; Agg.Sum; Agg.Min; Agg.Max; Agg.Avg ]

let feed_rows spec rows =
  let acc = Agg.fresh_acc () in
  List.iter
    (fun row ->
      Agg.feed acc
        (match spec.Agg.a_col with None -> None | Some c -> Some row.(c)))
    rows;
  Agg.result spec.Agg.a_fn acc

(* ---- Generators ------------------------------------------------------- *)

(* Three row populations: [`Dense] everyday values, [`All_default] rows
   whose non-key cells all equal the schema default (bitmap all-clear),
   [`Extreme] byte counts near the int64 limits so sums wrap. *)
let gen_rows =
  let open QCheck.Gen in
  oneofl [ `Dense; `All_default; `Extreme ] >>= fun mode ->
  let bytes_gen =
    match mode with
    | `All_default -> return 0L
    | `Extreme ->
        oneofl
          [
            Int64.max_int;
            Int64.min_int;
            Int64.sub Int64.max_int 5L;
            4_611_686_018_427_387_904L;
            0L;
          ]
    | `Dense -> map Int64.of_int (int_bound 1_000_000)
  in
  let rate_gen =
    match mode with
    | `All_default -> return 0.0
    | _ -> map (fun i -> float_of_int i /. 8.) (int_bound 10_000)
  in
  int_range 1 60 >>= fun n ->
  list_repeat n (pair (pair (int_bound 3) (int_bound 4)) (pair bytes_gen rate_gen))
  >|= fun cells ->
  List.mapi
    (fun i ((net, dev), (bytes, rate)) ->
      (* Strictly in the past, so [columnar_age = 0] ages every row. *)
      Support.usage_row ~network:(Int64.of_int net) ~device:(Int64.of_int dev)
        ~ts:(Int64.add (Int64.sub Support.ts0 1000L) (Int64.of_int i))
        ~bytes ~rate)
    cells

let print_rows rows =
  String.concat "\n"
    (List.map
       (fun row ->
         String.concat ", "
           (Array.to_list (Array.map Value.to_string row)))
       rows)

let arb_rows = QCheck.make ~print:print_rows gen_rows

(* Key-sort (and key-dedup) a generated population so it is a legal
   block: [col_add] requires strictly ascending keys. *)
let keyed rows =
  List.sort_uniq
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun r -> (Key_codec.encode_key schema r, r)) rows)

(* ---- Block-level property --------------------------------------------- *)

(* One property, three claims about any columnar block: decoding returns
   the rows that went in; the footer stats written by [col_finish] equal
   [Agg.stats_of_rows] over those rows; and every footer-answerable spec
   absorbed via [absorb_block] equals the row-fed reference. *)
let prop_block_roundtrip_and_footer =
  QCheck.Test.make ~name:"columnar block: roundtrip + footer = rows" ~count:300
    arb_rows (fun rows ->
      let kr = keyed rows in
      let b = Block.col_builder schema in
      List.iter (fun (k, r) -> Block.col_add b ~key:k r) kr;
      let bytes, stats = Block.col_finish b in
      let blk = Block.decode_columnar schema bytes in
      let want = Array.of_list (List.map snd kr) in
      let decoded, _ =
        Block.columnar_rows blk schema ~first:0 ~last:(Array.length want)
      in
      let stats_of c = if c < Array.length stats then Some stats.(c) else None in
      let ctype_of c = Some (Schema.columns schema).(c).Schema.ctype in
      decoded = want
      && stats = Agg.stats_of_rows schema want ~count:(Array.length want)
      && List.for_all
           (fun spec ->
             let specs = [| spec |] in
             if Agg.block_answerable ~specs ~stats_of ~ctype_of then begin
               let accs = [| Agg.fresh_acc () |] in
               Agg.absorb_block ~accs ~specs ~rows:(Array.length want)
                 ~stats_of;
               Agg.result spec.Agg.a_fn accs.(0)
               = feed_rows spec (Array.to_list want)
             end
             else true)
           all_specs)

(* Footer answerability is not vacuous: count/sum/min/max/avg over the
   integer [bytes] column must all be absorbable from stats alone. *)
let test_int_specs_answerable () =
  let rows =
    Array.init 8 (fun i ->
        Support.usage_row ~network:1L ~device:1L
          ~ts:(Int64.add Support.ts0 (Int64.of_int i))
          ~bytes:(Int64.of_int (i * 17)) ~rate:1.0)
  in
  let stats = Agg.stats_of_rows schema rows ~count:8 in
  let stats_of c = if c < Array.length stats then Some stats.(c) else None in
  let ctype_of c = Some (Schema.columns schema).(c).Schema.ctype in
  List.iter
    (fun fn ->
      Alcotest.(check bool)
        "int column answerable" true
        (Agg.block_answerable
           ~specs:[| { Agg.a_fn = fn; a_col = Some 3 } |]
           ~stats_of ~ctype_of))
    [ Agg.Count; Agg.Sum; Agg.Min; Agg.Max; Agg.Avg ];
  (* Float sums are never footer-answered: the footer only stores the
     associative wrapping integer sum. *)
  Alcotest.(check bool)
    "double sum not answerable" false
    (Agg.block_answerable
       ~specs:[| { Agg.a_fn = Agg.Sum; a_col = Some 4 } |]
       ~stats_of ~ctype_of)

(* ---- Table-level property --------------------------------------------- *)

let big_cap = 100_000

let agg_config =
  Config.make ~columnar_age:0L ~server_row_limit:big_cap ~flush_size:2048
    ~merge_delay:0L ~rollover_spread:0.0 ~enforce_unique:false ()

let merge_fixpoint tbl =
  let fuel = ref 64 in
  while Table.merge_step tbl && !fuel > 0 do
    decr fuel
  done

(* Reference: whatever the (layout-blind, already model-checked) scan
   path returns, aggregated row by row. *)
let check_agg_matches ~ctx tbl q =
  let rows = (Table.query tbl q).Table.rows in
  let specs = Array.of_list all_specs in
  let got = fst (Table.query_agg tbl q ~specs) in
  Array.iteri
    (fun i spec ->
      let want = feed_rows spec rows in
      if not (want = got.(i)) then
        Alcotest.failf "%s: spec %d: pushdown %s <> reference %s" ctx i
          (Value.to_string got.(i))
          (Value.to_string want))
    specs

(* Mixed residency on purpose: part of the data merged columnar, part
   still row-major or in the memtable, random key/ts bounds over it. *)
let prop_query_agg_matches_rows =
  QCheck.Test.make ~name:"query_agg = row-fed reference over mixed layouts"
    ~count:60
    QCheck.(pair arb_rows (pair (option (int_bound 3)) (int_bound 70)))
    (fun (rows, (net_filter, ts_off)) ->
      let db, _clock, _ = Support.fresh_db ~config:agg_config () in
      Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
      let tbl = Db.create_table db "usage" schema ~ttl:None in
      let n = List.length rows in
      List.iteri
        (fun i row ->
          (try Table.insert_row tbl row with Table.Duplicate_key _ -> ());
          if i = n / 2 then begin
            Table.flush_all tbl;
            merge_fixpoint tbl
          end)
        rows;
      let q =
        match net_filter with
        | None -> Query.all
        | Some net -> Query.prefix [ Value.Int64 (Int64.of_int net) ]
      in
      let q =
        Query.between
          ~ts_min:(Int64.add Support.ts0 (Int64.of_int ts_off))
          q
      in
      check_agg_matches ~ctx:"mixed" tbl q;
      (* And again fully merged, where the whole table is columnar. *)
      Table.flush_all tbl;
      merge_fixpoint tbl;
      check_agg_matches ~ctx:"merged" tbl q;
      true)

(* ---- TTL-expired rows ------------------------------------------------- *)

(* Expired rows are invisible to the scan path via the ts cutoff; the
   footer pushdown must apply the same cutoff (expired-straddling blocks
   cannot be footer-answered, they must decode and filter). *)
let test_ttl_expired () =
  let db, clock, _ = Support.fresh_db ~config:agg_config () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let tbl = Db.create_table db "usage" schema ~ttl:(Some Clock.hour) in
  let now = Clock.now clock in
  for i = 0 to 49 do
    (* Alternate between 30 minutes back (live under the 1 h TTL) and
       two hours back (expired); everything is past, so it all ages
       into the columnar layout. *)
    let back =
      if i mod 2 = 0 then Int64.mul 30L Clock.minute
      else Int64.mul 2L Clock.hour
    in
    Table.insert_row tbl
      (Support.usage_row ~network:1L ~device:(Int64.of_int i)
         ~ts:(Int64.add (Int64.sub now back) (Int64.of_int i))
         ~bytes:(Int64.of_int (i * 1000))
         ~rate:(float_of_int i))
  done;
  Table.flush_all tbl;
  merge_fixpoint tbl;
  check_agg_matches ~ctx:"half expired" tbl Query.all;
  (* Age everything out: the pushdown must agree that nothing is left. *)
  Clock.advance clock (Int64.mul 4L Clock.hour);
  check_agg_matches ~ctx:"all expired" tbl Query.all;
  let count =
    (fst
       (Table.query_agg tbl Query.all
          ~specs:[| { Agg.a_fn = Agg.Count; a_col = None } |])).(0)
  in
  Alcotest.(check bool) "all rows expired" true (count = Value.Int64 0L)

(* ---- Wrapping sums ---------------------------------------------------- *)

let test_overflow_sum_wraps () =
  let db, _clock, _ = Support.fresh_db ~config:agg_config () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let tbl = Db.create_table db "usage" schema ~ttl:None in
  let near_max = Int64.sub Int64.max_int 3L in
  for i = 0 to 19 do
    Table.insert_row tbl
      (Support.usage_row ~network:1L ~device:1L
         ~ts:(Int64.add (Int64.sub Support.ts0 1000L) (Int64.of_int i))
         ~bytes:near_max ~rate:0.0)
  done;
  Table.flush_all tbl;
  merge_fixpoint tbl;
  let specs = [| { Agg.a_fn = Agg.Sum; a_col = Some 3 } |] in
  let got = (fst (Table.query_agg tbl Query.all ~specs)).(0) in
  let want = feed_rows specs.(0) (Table.query tbl Query.all).Table.rows in
  Alcotest.(check bool) "wrapped sums identical" true (got = want);
  (* 20 * near_max overflows int64 several times over; the footer sum
     wraps exactly like the row-fed modular sum. *)
  let expect =
    let s = ref 0L in
    for _ = 1 to 20 do
      s := Int64.add !s near_max
    done;
    Value.Int64 !s
  in
  Alcotest.(check bool) "matches modular arithmetic" true (got = expect)

(* ---- Footer answering reads nothing ----------------------------------- *)

let test_footer_answering_decodes_nothing () =
  let db, _clock, _ = Support.fresh_db ~config:agg_config () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let tbl = Db.create_table db "usage" schema ~ttl:None in
  for i = 0 to 199 do
    Table.insert_row tbl
      (Support.usage_row ~network:1L ~device:1L
         ~ts:(Int64.add (Int64.sub Support.ts0 1000L) (Int64.of_int i))
         ~bytes:(Int64.of_int i) ~rate:0.0)
  done;
  Table.flush_all tbl;
  merge_fixpoint tbl;
  Alcotest.(check bool)
    "table is columnar" true
    (List.for_all
       (fun (m : Descriptor.tablet_meta) -> m.Descriptor.columnar)
       (Table.tablets tbl));
  let specs =
    [|
      { Agg.a_fn = Agg.Count; a_col = None };
      { Agg.a_fn = Agg.Sum; a_col = Some 3 };
      { Agg.a_fn = Agg.Min; a_col = Some 3 };
      { Agg.a_fn = Agg.Max; a_col = Some 3 };
      { Agg.a_fn = Agg.Avg; a_col = Some 3 };
    |]
  in
  let results, prof = Table.query_agg ~profile:true tbl Query.all ~specs in
  Alcotest.(check bool) "count" true (results.(0) = Value.Int64 200L);
  Alcotest.(check bool)
    "sum" true
    (results.(1) = Value.Int64 (Int64.of_int (199 * 200 / 2)));
  let p = Option.get prof in
  Alcotest.(check bool)
    "blocks answered from the footer" true
    (p.Lt_obs.Profile.p_blocks_footer_answered > 0);
  Alcotest.(check int) "zero column sections decoded" 0
    p.Lt_obs.Profile.p_columns_decoded;
  (* A projection-bearing row scan decodes only the referenced column:
     of the two non-key sections per block (bytes, rate), projecting
     [bytes] must decode exactly half of what a full scan decodes. *)
  let st0 = Table.stats tbl in
  let rows =
    (Table.query tbl (Query.with_projection [ 3 ] Query.all)).Table.rows
  in
  Alcotest.(check int) "projected scan row count" 200 (List.length rows);
  let st1 = Table.stats tbl in
  ignore (Table.query tbl Query.all);
  let st2 = Table.stats tbl in
  let proj_delta = st1.Stats.columns_decoded - st0.Stats.columns_decoded in
  let full_delta = st2.Stats.columns_decoded - st1.Stats.columns_decoded in
  Alcotest.(check bool) "projection decoded something" true (proj_delta > 0);
  Alcotest.(check int) "projection decoded half the sections" full_delta
    (2 * proj_delta)

(* ---- Ranged materialization ------------------------------------------- *)

(* A schema with a string key column and string, blob, int32 and double
   value columns: strings up to 300 bytes take two-byte length varints. *)
let wide_schema =
  Schema.create
    ~columns:
      [
        { Schema.name = "device"; ctype = Value.T_string; default = Value.String "" };
        { Schema.name = "ts"; ctype = Value.T_timestamp; default = Value.Timestamp 0L };
        { Schema.name = "code"; ctype = Value.T_int32; default = Value.Int32 0l };
        { Schema.name = "label"; ctype = Value.T_string; default = Value.String "" };
        { Schema.name = "rate"; ctype = Value.T_double; default = Value.Double 0.0 };
        { Schema.name = "body"; ctype = Value.T_blob; default = Value.Blob "" };
      ]
    ~pkey:[ "device"; "ts" ]

(* Rows with every value cell set ([`Dense]: no presence bitmaps), some
   left at the default ([`Sparse]), or all default ([`Empty]); then a
   window (biased towards empty, first-row and last-row windows) and a
   projection over the value columns. *)
let gen_windowed =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 0 300) in
  oneofl [ `Dense; `Sparse; `Empty ] >>= fun mode ->
  let cell gen default =
    match mode with
    | `Dense -> gen
    | `Sparse -> frequency [ (1, return default); (1, gen) ]
    | `Empty -> return default
  in
  int_range 1 80 >>= fun n ->
  list_repeat n
    (quad (string_size ~gen:printable (int_bound 3))
       (cell (map (fun i -> Value.Int32 (Int32.of_int (i + 1))) (int_bound 1000)) (Value.Int32 0l))
       (cell (map (fun s -> Value.String ("s" ^ s)) str) (Value.String ""))
       (pair
          (cell (map (fun i -> Value.Double (float_of_int (i + 1))) (int_bound 1000)) (Value.Double 0.0))
          (cell (map (fun s -> Value.Blob ("b" ^ s)) str) (Value.Blob ""))))
  >>= fun cells ->
  let rows =
    List.mapi
      (fun i (dev, code, label, (rate, body)) ->
        [| Value.String dev; Value.Timestamp (Int64.of_int i); code; label; rate; body |])
      cells
  in
  let keyed =
    List.sort_uniq
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun r -> (Key_codec.encode_key wide_schema r, r)) rows)
  in
  let m = List.length keyed in
  let window =
    frequency
      [
        (1, return (0, 0));
        (1, return (m, m));
        (1, return (0, 1));
        (1, return (m - 1, m));
        (1, return (0, m));
        (5, int_bound m >>= fun a -> int_bound m >|= fun b -> (min a b, max a b));
      ]
  in
  let projection =
    frequency
      [
        (1, return None);
        (2, map (fun l -> Some l) (list_size (int_bound 4) (oneofl [ 2; 3; 4; 5 ])));
      ]
  in
  triple (return keyed) window projection

let print_windowed (keyed, (first, last), cols) =
  Printf.sprintf "%d rows, window [%d, %d), cols %s" (List.length keyed) first last
    (match cols with
    | None -> "all"
    | Some l -> String.concat "," (List.map string_of_int l))

(* The ranged [columnar_rows ~first ~last] is the [\[first, last)] slice
   of the whole-block call, decodes the same sections, and the whole
   block gives back the rows that went in (projected columns only). *)
let prop_columnar_rows_window =
  QCheck.Test.make ~name:"columnar_rows window = slice of the whole block"
    ~count:300
    (QCheck.make ~print:print_windowed gen_windowed)
    (fun (keyed, (first, last), cols) ->
      let b = Block.col_builder wide_schema in
      List.iter (fun (k, r) -> Block.col_add b ~key:k r) keyed;
      let bytes, _ = Block.col_finish b in
      let blk = Block.decode_columnar wide_schema bytes in
      let n = List.length keyed in
      let whole, whole_decoded =
        Block.columnar_rows ?cols blk wide_schema ~first:0 ~last:n
      in
      let part, part_decoded =
        Block.columnar_rows ?cols blk wide_schema ~first ~last
      in
      let defaults = Array.map (fun c -> c.Schema.default) (Schema.columns wide_schema) in
      let wanted c =
        c < 2 || match cols with None -> true | Some l -> List.mem c l
      in
      let expect r = Array.mapi (fun c v -> if wanted c then v else defaults.(c)) r in
      whole = Array.of_list (List.map (fun (_, r) -> expect r) keyed)
      && part = Array.sub whole first (last - first)
      && part_decoded = whole_decoded)

(* ---- ts bounds folded into the key range ------------------------------ *)

(* A device prefix fixes every key column but ts, so [Query.compile]
   folds the ts bounds into the key range. *)
let test_compile_folds_ts () =
  let dev = [ Value.Int64 1L; Value.Int64 2L ] in
  let enc ts = Key_codec.encode_prefix schema (dev @ [ Value.Timestamp ts ]) in
  let q = Query.between ~ts_min:10L ~ts_max:20L (Query.prefix dev) in
  (match Query.compile schema q with
  | Some { Query.lo; hi } ->
      Alcotest.(check string) "low bound is (device, ts_min)" (enc 10L) lo;
      Alcotest.(check (option string)) "high bound follows (device, ts_max)"
        (Key_codec.prefix_succ (enc 20L)) hi
  | None -> Alcotest.fail "range should not be empty");
  Alcotest.(check bool) "ts_min > ts_max is an empty range" true
    (Query.compile schema (Query.between ~ts_min:21L ~ts_max:20L (Query.prefix dev))
    = None);
  (* A network prefix leaves the device open: no folding. *)
  let net = [ Value.Int64 1L ] in
  Alcotest.(check bool) "network prefix unchanged" true
    (Query.compile schema (Query.between ~ts_min:10L ~ts_max:20L (Query.prefix net))
    = Query.compile schema (Query.prefix net))

(* A three-row page cap, so most answers take several §3.5
   resubmissions (an [Excl] bound past the last row). *)
let paged_config =
  Config.make ~columnar_age:0L ~server_row_limit:3 ~flush_size:2048
    ~merge_delay:0L ~rollover_spread:0.0 ~enforce_unique:false ()

let ts_choices =
  let base = Int64.sub Support.ts0 1000L in
  QCheck.Gen.(
    oneof
      [ return None;
        return (Some Int64.min_int);
        return (Some Int64.max_int);
        map (fun k -> Some (Int64.add base (Int64.of_int k))) (int_range (-2) 62) ])

(* Device queries with ts bounds against a reference filter, with the
   rows spread over columnar tablets, a row-major tablet and the
   memtable. *)
let prop_device_ts_bounds =
  QCheck.Test.make ~name:"device query with ts bounds = reference filter"
    ~count:60
    QCheck.(
      pair arb_rows
        (make
           Gen.(
             pair
               (pair (int_bound 3) (int_bound 4))
               (list_size (int_range 1 8)
                  (quad ts_choices ts_choices bool (opt (int_range 1 6)))))))
    (fun (rows, ((net, dev), queries)) ->
      let db, _clock, _ = Support.fresh_db ~config:paged_config () in
      Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
      let tbl = Db.create_table db "usage" schema ~ttl:None in
      let n = List.length rows in
      List.iteri
        (fun i row ->
          Table.insert_row tbl row;
          if i = n / 3 then begin
            Table.flush_all tbl;
            merge_fixpoint tbl
          end
          else if i = 2 * n / 3 then Table.flush_all tbl)
        rows;
      let prefix = [ Value.Int64 (Int64.of_int net); Value.Int64 (Int64.of_int dev) ] in
      let device = List.filter (fun r -> Array.to_list (Array.sub r 0 2) = prefix) rows in
      let fetch q =
        let r = Table.query tbl q in
        { Lt_net.Client.rows = r.Table.rows; more_available = r.Table.more_available;
          scanned = r.Table.scanned; profile = None }
      in
      List.for_all
        (fun (ts_min, ts_max, desc, limit) ->
          let q = Query.between ?ts_min ?ts_max (Query.prefix prefix) in
          let q = if desc then Query.with_direction Query.Desc q else q in
          let q = match limit with None -> q | Some l -> Query.with_limit l q in
          let want =
            List.filter
              (fun r ->
                let ts = Schema.row_ts schema r in
                (match ts_min with None -> true | Some b -> ts >= b)
                && match ts_max with None -> true | Some b -> ts <= b)
              device
            |> List.map (fun r -> (Key_codec.encode_key schema r, r))
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
            |> List.map snd
          in
          let want = if desc then List.rev want else want in
          let want =
            match limit with
            | None -> want
            | Some l -> List.filteri (fun i _ -> i < l) want
          in
          let next = Lt_net.Client.pager schema ~fetch q in
          let rec drain acc =
            match next () with None -> List.rev acc | Some r -> drain (r :: acc)
          in
          drain [] = want)
        queries)

let suite =
  [
    Support.qcheck prop_block_roundtrip_and_footer;
    Support.qcheck prop_columnar_rows_window;
    ("integer specs are footer-answerable", `Quick, test_int_specs_answerable);
    Support.qcheck prop_query_agg_matches_rows;
    ("TTL-expired rows excluded from pushdown", `Quick, test_ttl_expired);
    ("overflowing int64 sums wrap identically", `Quick, test_overflow_sum_wraps);
    ("footer-answered aggregates decode nothing", `Quick,
     test_footer_answering_decodes_nothing);
    ("device ts bounds fold into the key range", `Quick, test_compile_folds_ts);
    Support.qcheck prop_device_ts_bounds;
  ]
