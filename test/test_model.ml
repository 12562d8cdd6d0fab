(* Model-oracle randomized testing: a pure in-memory reference model
   (a key→row map with query-time TTL filtering) is driven through the
   same seeded op sequence as a real [Table], and every query result —
   rows, order, more_available, delete counts, duplicate-key outcomes —
   must match exactly. Each seed runs at query_domains = 0 and 2, so
   the parallel scan path is held to the same oracle as the sequential
   one. Failures print the (seed, domains, op) triple for replay. *)

open Littletable
module X = Lt_util.Xorshift
module Clock = Lt_util.Clock

let server_cap = 48

(* ---- Reference model ------------------------------------------------- *)

(* Encoded key → row. TTL is applied at query time only: physically
   present but expired rows are invisible, exactly like the engine's
   ts_min cutoff, so the model never needs to know when expiry ran. *)
type model = {
  rows : (string, Value.t array) Hashtbl.t;
  schema : Schema.t;
}

let model_create schema = { rows = Hashtbl.create 256; schema }

let model_insert m key row =
  if Hashtbl.mem m.rows key then `Duplicate
  else begin
    Hashtbl.replace m.rows key row;
    `Ok
  end

let model_delete_prefix m prefix_values =
  let p = Key_codec.encode_prefix m.schema prefix_values in
  let plen = String.length p in
  let victims =
    Hashtbl.fold
      (fun k _ acc ->
        if String.length k >= plen && String.sub k 0 plen = p then k :: acc
        else acc)
      m.rows []
  in
  List.iter (Hashtbl.remove m.rows) victims;
  List.length victims

type mq = {
  q_prefix : Value.t list;
  q_ts_min : int64 option;
  q_ts_max : int64 option;
  q_desc : bool;
  q_limit : int option;
}

let to_query mq =
  let q = match mq.q_prefix with [] -> Query.all | p -> Query.prefix p in
  let q = Query.between ?ts_min:mq.q_ts_min ?ts_max:mq.q_ts_max q in
  let q = if mq.q_desc then Query.with_direction Query.Desc q else q in
  match mq.q_limit with None -> q | Some l -> Query.with_limit l q

(* First [n] elements plus whether anything was left over. *)
let rec take n = function
  | [] -> ([], false)
  | _ :: _ when n = 0 -> ([], true)
  | x :: tl ->
      let front, more = take (n - 1) tl in
      (x :: front, more)

let model_query m ~cutoff mq =
  let p = Key_codec.encode_prefix m.schema mq.q_prefix in
  let plen = String.length p in
  let live =
    Hashtbl.fold
      (fun k row acc ->
        if String.length k >= plen && String.sub k 0 plen = p then begin
          let ts = Key_codec.ts_of_key k in
          let ok =
            (match cutoff with None -> true | Some c -> ts >= c)
            && (match mq.q_ts_min with None -> true | Some b -> ts >= b)
            && match mq.q_ts_max with None -> true | Some b -> ts <= b
          in
          if ok then (k, row) :: acc else acc
        end
        else acc)
      m.rows []
  in
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) live
  in
  let sorted = if mq.q_desc then List.rev sorted else sorted in
  let cap =
    match mq.q_limit with None -> server_cap | Some l -> min l server_cap
  in
  let rows, more = take cap sorted in
  let more_available =
    more
    && match mq.q_limit with None -> true | Some l -> l > server_cap
  in
  (List.map snd rows, more_available)

(* ---- Random op sequences --------------------------------------------- *)

let gen_prefix rng ~depth =
  let net = Value.Int64 (Int64.of_int (X.int rng 4)) in
  match depth with
  | 0 -> []
  | 1 -> [ net ]
  | _ -> [ net; Value.Int64 (Int64.of_int (X.int rng 5)) ]

let gen_query rng ~now =
  let q_prefix = gen_prefix rng ~depth:(X.int rng 3) in
  let span = Int64.mul 40L Clock.minute in
  let bound () =
    Int64.add (Int64.sub now span)
      (Int64.of_int (X.int rng (Int64.to_int span * 2)))
  in
  let q_ts_min = if X.int rng 3 = 0 then Some (bound ()) else None in
  let q_ts_max = if X.int rng 3 = 0 then Some (bound ()) else None in
  let q_limit =
    match X.int rng 5 with
    | 0 -> Some 1
    | 1 -> Some 5
    | 2 -> Some (server_cap * 2) (* above the server cap *)
    | _ -> None
  in
  { q_prefix; q_ts_min; q_ts_max; q_desc = X.bool rng; q_limit }

let check_query ~ctx ~clock ~ttl model tbl rng =
  let now = Clock.now clock in
  let cutoff = match ttl with None -> None | Some t -> Some (Int64.sub now t) in
  let mq = gen_query rng ~now in
  let want_rows, want_more = model_query model ~cutoff mq in
  let got = Table.query tbl (to_query mq) in
  Alcotest.(check int)
    (ctx ^ ": row count") (List.length want_rows)
    (List.length got.Table.rows);
  List.iteri
    (fun i (w, g) ->
      if not (w = g) then
        Alcotest.failf "%s: row %d differs (model vs table)" ctx i)
    (List.combine want_rows got.Table.rows);
  Alcotest.(check bool)
    (ctx ^ ": more_available") want_more got.Table.more_available

(* One seeded run: build a table (with the given query_domains), drive
   both it and the model through the same ops, checking queries along
   the way and with a final battery. *)
let run_case ~domains ~with_ttl seed =
  let config =
    Config.make ~query_domains:domains ~server_row_limit:server_cap ()
  in
  let db, clock, _vfs = Support.fresh_db ~config () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  let ttl = if with_ttl then Some Clock.hour else None in
  let schema = Support.usage_schema () in
  let tbl = Db.create_table db "usage" schema ~ttl in
  let model = model_create schema in
  let rng = X.create (Int64.of_int (0x5eed + (seed * 7919))) in
  let used = Hashtbl.create 256 in
  let n_ops = 140 in
  for op = 1 to n_ops do
    let ctx =
      Printf.sprintf "seed=%d domains=%d ttl=%b op=%d" seed domains with_ttl op
    in
    (match X.int rng 100 with
    | r when r < 45 ->
        (* Insert a batch of fresh rows with ts in [now - 30min, now]. *)
        for _ = 1 to 1 + X.int rng 6 do
          let now = Clock.now clock in
          let ts =
            Int64.sub now
              (Int64.of_int
                 (X.int rng (Int64.to_int (Int64.mul 30L Clock.minute))))
          in
          let row =
            Support.usage_row
              ~network:(Int64.of_int (X.int rng 4))
              ~device:(Int64.of_int (X.int rng 5))
              ~ts
              ~bytes:(Int64.of_int (X.int rng 1_000_000))
              ~rate:(float_of_int (X.int rng 1000) /. 8.)
          in
          let key = Key_codec.encode_key schema row in
          (* stored_size must be exact against the real encoders — the
             block builder trusts it to pre-declare value lengths. *)
          Alcotest.(check int)
            (ctx ^ ": stored_size exact")
            (String.length key
            + String.length (Row_codec.encode_value schema row))
            (Row_codec.stored_size schema row);
          if not (with_ttl && Hashtbl.mem used key) then begin
            Hashtbl.replace used key ();
            let want = model_insert model key row in
            match Table.insert_row tbl row with
            | () ->
                if want <> `Ok then
                  Alcotest.failf "%s: table accepted a duplicate key" ctx
            | exception Table.Duplicate_key _ ->
                if want <> `Duplicate then
                  Alcotest.failf "%s: spurious Duplicate_key" ctx
          end
        done
    | r when r < 55 ->
        (* Re-insert an existing live row: must raise Duplicate_key.
           Skipped under TTL where the row may have expired away. *)
        if not with_ttl then begin
          let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model.rows [] in
          match keys with
          | [] -> ()
          | _ ->
              let k = List.nth keys (X.int rng (List.length keys)) in
              let row = Hashtbl.find model.rows k in
              (match Table.insert_row tbl row with
              | () -> Alcotest.failf "%s: duplicate re-insert accepted" ctx
              | exception Table.Duplicate_key _ -> ())
        end
    | r when r < 65 ->
        if not with_ttl then begin
          let prefix = gen_prefix rng ~depth:(1 + X.int rng 2) in
          let want = model_delete_prefix model prefix in
          Alcotest.(check int)
            (ctx ^ ": delete_prefix count") want
            (Table.delete_prefix tbl prefix)
        end
    | r when r < 75 -> Table.flush_all tbl
    | r when r < 82 -> ignore (Table.merge_step tbl)
    | r when r < 88 ->
        Table.maintenance tbl;
        if with_ttl then ignore (Table.expire tbl)
    | _ ->
        Clock.advance clock
          (Int64.of_int
             (1 + X.int rng (Int64.to_int (Int64.mul 10L Clock.minute)))));
    if op mod 7 = 0 then check_query ~ctx ~clock ~ttl model tbl rng
  done;
  Table.flush_all tbl;
  for k = 1 to 25 do
    let ctx =
      Printf.sprintf "seed=%d domains=%d ttl=%b final=%d" seed domains with_ttl
        k
    in
    check_query ~ctx ~clock ~ttl model tbl rng
  done

let oracle_cases ~with_ttl seeds () =
  List.iter
    (fun seed ->
      run_case ~domains:0 ~with_ttl seed;
      run_case ~domains:2 ~with_ttl seed)
    seeds

(* ---- Batched vs row-at-a-time equality -------------------------------- *)

(* Two tables driven through the same seeded stream of insert batches —
   one ingesting each batch atomically-up-to-the-duplicate via
   [insert_report], the other row by row stopping at the first
   duplicate (the same semantics §3.4.4 gives a batch) — must answer
   every query identically. Batches deliberately embed repeats of
   already-used keys, so mid-batch partial commits are exercised on
   every seed. *)
let run_batched_vs_rows ~domains seed =
  let config =
    Config.make ~query_domains:domains ~server_row_limit:server_cap ()
  in
  let db_b, clock_b, _ = Support.fresh_db ~config () in
  let db_r, clock_r, _ = Support.fresh_db ~config () in
  Fun.protect
    ~finally:(fun () ->
      Db.close db_b;
      Db.close db_r)
  @@ fun () ->
  let schema = Support.usage_schema () in
  let batched = Db.create_table db_b "usage" schema ~ttl:None in
  let rowwise = Db.create_table db_r "usage" schema ~ttl:None in
  let rng = X.create (Int64.of_int (0xba7c + (seed * 104729))) in
  let used = ref [] in
  let n_used = ref 0 in
  let gen_row () =
    (* ~1 in 5 rows repeats an already-inserted key: a duplicate that
       cuts the batch short on both sides. *)
    if !n_used > 0 && X.int rng 5 = 0 then
      List.nth !used (X.int rng !n_used)
    else begin
      let now = Clock.now clock_b in
      let row =
        Support.usage_row
          ~network:(Int64.of_int (X.int rng 4))
          ~device:(Int64.of_int (X.int rng 6))
          ~ts:(Int64.sub now (Int64.of_int (X.int rng 10_000)))
          ~bytes:(Int64.of_int (X.int rng 1_000_000))
          ~rate:(float_of_int (X.int rng 1000) /. 8.)
      in
      used := row :: !used;
      incr n_used;
      row
    end
  in
  let check ctx =
    let mq = gen_query rng ~now:(Clock.now clock_b) in
    let got_b = Table.query batched (to_query mq) in
    let got_r = Table.query rowwise (to_query mq) in
    Alcotest.(check int)
      (ctx ^ ": row counts equal")
      (List.length got_r.Table.rows)
      (List.length got_b.Table.rows);
    List.iteri
      (fun i (r, b) ->
        if not (r = b) then
          Alcotest.failf "%s: row %d differs (row-wise vs batched)" ctx i)
      (List.combine got_r.Table.rows got_b.Table.rows);
    Alcotest.(check bool)
      (ctx ^ ": more_available equal")
      got_r.Table.more_available got_b.Table.more_available
  in
  for op = 1 to 80 do
    let ctx = Printf.sprintf "batched-vs-rows seed=%d domains=%d op=%d" seed domains op in
    (match X.int rng 100 with
    | r when r < 60 ->
        let batch = List.init (1 + X.int rng 7) (fun _ -> gen_row ()) in
        (match Table.insert_report batched batch with
        | Ok () | Error _ -> ());
        (try List.iter (Table.insert_row rowwise) batch
         with Table.Duplicate_key _ -> ())
    | r when r < 75 ->
        Table.flush_all batched;
        Table.flush_all rowwise
    | r when r < 85 ->
        ignore (Table.merge_step batched);
        ignore (Table.merge_step rowwise)
    | _ ->
        let d = Int64.of_int (1 + X.int rng (Int64.to_int Clock.minute)) in
        Clock.advance clock_b d;
        Clock.advance clock_r d);
    if op mod 6 = 0 then check ctx
  done;
  Table.flush_all batched;
  Table.flush_all rowwise;
  for k = 1 to 20 do
    check (Printf.sprintf "batched-vs-rows seed=%d domains=%d final=%d" seed domains k)
  done

let batched_cases seeds () =
  List.iter
    (fun seed ->
      run_batched_vs_rows ~domains:0 seed;
      run_batched_vs_rows ~domains:2 seed)
    seeds

(* ---- Cross-layout equality -------------------------------------------- *)

(* Three tables driven through the same seeded op stream, differing only
   in [columnar_age]: 0 (every merge output column-major), max_int
   (columnar disabled, pure row-major — the reference), and 30 minutes
   (mixed: old tablets rewrite columnar, fresh ones stay row-major).
   Every query, aggregate, latest-row lookup, and query-observable stats
   counter must be identical across the three — the layout is a storage
   detail that may never leak into results. *)
let layout_ages =
  [ ("row", Int64.max_int); ("col", 0L); ("mixed", Int64.mul 30L Clock.minute) ]

let run_layout_sweep ~domains seed =
  let mk (_, age) =
    let config =
      Config.make ~query_domains:domains ~server_row_limit:server_cap
        ~columnar_age:age ()
    in
    Support.fresh_db ~config ()
  in
  let dbs = List.map mk layout_ages in
  Fun.protect ~finally:(fun () -> List.iter (fun (db, _, _) -> Db.close db) dbs)
  @@ fun () ->
  let schema = Support.usage_schema () in
  let tbls =
    List.map (fun (db, _, _) -> Db.create_table db "usage" schema ~ttl:None) dbs
  in
  let clocks = List.map (fun (_, clock, _) -> clock) dbs in
  let ref_tbl = List.hd tbls and ref_clock = List.hd clocks in
  let rng = X.create (Int64.of_int (0x1a70 + (seed * 6121))) in
  let each f = List.iter2 f (List.map fst layout_ages) tbls in
  let agg_specs =
    [|
      { Agg.a_fn = Agg.Count; a_col = None };
      { Agg.a_fn = Agg.Sum; a_col = Some 3 };
      { Agg.a_fn = Agg.Min; a_col = Some 3 };
      { Agg.a_fn = Agg.Max; a_col = Some 3 };
      { Agg.a_fn = Agg.Avg; a_col = Some 3 };
      { Agg.a_fn = Agg.Min; a_col = Some 4 };
      { Agg.a_fn = Agg.Max; a_col = Some 2 };
    |]
  in
  (* Projections come from their own stream, so the op sequence is the
     same as without them. *)
  let prng = X.create (Int64.of_int (0x9e37 + (seed * 7919))) in
  let ncols = Array.length (Schema.columns schema) in
  let check ctx =
    let now = Clock.now ref_clock in
    let mq = gen_query rng ~now in
    (* Half the queries project a random column subset; the layouts
       handle projections on different paths (row-major blocks ignore
       them, columnar ones leave unprojected cells at their defaults), so
       only the projected columns are compared. *)
    let projection =
      if X.bool prng then None
      else Some (List.filter (fun _ -> X.bool prng) (List.init ncols Fun.id))
    in
    let q =
      match projection with
      | None -> to_query mq
      | Some cols -> Query.with_projection cols (to_query mq)
    in
    let visible row =
      match projection with
      | None -> Array.to_list row
      | Some cols -> List.map (fun c -> row.(c)) cols
    in
    let want = Table.query ref_tbl q in
    each (fun name tbl ->
        if tbl != ref_tbl then begin
          let got = Table.query tbl q in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s row count" ctx name)
            (List.length want.Table.rows)
            (List.length got.Table.rows);
          List.iteri
            (fun i (w, g) ->
              if not (visible w = visible g) then
                Alcotest.failf "%s: %s row %d differs from row-major" ctx name i)
            (List.combine want.Table.rows got.Table.rows);
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s more_available" ctx name)
            want.Table.more_available got.Table.more_available
        end);
    (* Whole-query aggregates: the footer-pushdown path must be
       bit-identical to streaming row-major evaluation. *)
    let aq =
      to_query { mq with q_desc = false; q_limit = None }
    in
    let want_aggs = fst (Table.query_agg ref_tbl aq ~specs:agg_specs) in
    each (fun name tbl ->
        if tbl != ref_tbl then
          let got = fst (Table.query_agg tbl aq ~specs:agg_specs) in
          Array.iteri
            (fun i w ->
              if not (w = got.(i)) then
                Alcotest.failf "%s: %s aggregate %d differs from row-major" ctx
                  name i)
            want_aggs);
    (* Latest-row searches walk tablets newest-first — layout-blind. *)
    let prefix = gen_prefix rng ~depth:(X.int rng 3) in
    let want_latest = Table.latest ref_tbl prefix in
    each (fun name tbl ->
        if tbl != ref_tbl then
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s latest row equal" ctx name)
            true
            (want_latest = Table.latest tbl prefix))
  in
  let n_ops = 120 in
  for op = 1 to n_ops do
    let ctx = Printf.sprintf "layout seed=%d domains=%d op=%d" seed domains op in
    (match X.int rng 100 with
    | r when r < 45 ->
        (* Insert identical batches; timestamps reach two hours back so
           the mixed table holds both layouts at once. *)
        for _ = 1 to 1 + X.int rng 6 do
          let now = Clock.now ref_clock in
          let ts =
            Int64.sub now
              (Int64.of_int
                 (X.int rng (Int64.to_int (Int64.mul 2L Clock.hour))))
          in
          let row =
            Support.usage_row
              ~network:(Int64.of_int (X.int rng 4))
              ~device:(Int64.of_int (X.int rng 5))
              ~ts
              ~bytes:(Int64.of_int (X.int rng 1_000_000))
              ~rate:(float_of_int (X.int rng 1000) /. 8.)
          in
          each (fun _ tbl ->
              try Table.insert_row tbl row
              with Table.Duplicate_key _ -> ())
        done
    | r when r < 60 -> each (fun _ tbl -> Table.flush_all tbl)
    | r when r < 75 ->
        (* Merge to fixpoint so stale-layout rewrites actually run on
           the columnar/mixed tables. *)
        each (fun _ tbl ->
            let fuel = ref 32 in
            while Table.merge_step tbl && !fuel > 0 do
              decr fuel
            done)
    | r when r < 82 -> each (fun _ tbl -> Table.maintenance tbl)
    | _ ->
        let d =
          Int64.of_int (1 + X.int rng (Int64.to_int (Int64.mul 20L Clock.minute)))
        in
        List.iter (fun clock -> Clock.advance clock d) clocks);
    if op mod 6 = 0 then check ctx
  done;
  each (fun _ tbl -> Table.flush_all tbl);
  for k = 1 to 20 do
    check (Printf.sprintf "layout seed=%d domains=%d final=%d" seed domains k)
  done;
  (* The mixed/columnar tables must have produced columnar tablets, or
     this sweep proved nothing. *)
  let columnar_count tbl =
    List.length
      (List.filter
         (fun (m : Descriptor.tablet_meta) -> m.Descriptor.columnar)
         (Table.tablets tbl))
  in
  each (fun name tbl ->
      if name <> "row" then
        Alcotest.(check bool)
          (Printf.sprintf "seed=%d domains=%d: %s table went columnar" seed
             domains name)
          true
          (columnar_count tbl > 0)
      else
        Alcotest.(check int)
          (Printf.sprintf "seed=%d domains=%d: row table stayed row-major" seed
             domains)
          0 (columnar_count tbl));
  (* Query-observable stats agree; layout-dependent counters (bytes,
     merges, pushdown) are exempt by design. *)
  let ref_stats = Table.stats ref_tbl in
  each (fun name tbl ->
      if tbl != ref_tbl then begin
        let s = Table.stats tbl in
        let eq what a b =
          Alcotest.(check int)
            (Printf.sprintf "seed=%d domains=%d: %s stats.%s" seed domains name
               what)
            a b
        in
        eq "rows_inserted" ref_stats.Stats.rows_inserted s.Stats.rows_inserted;
        eq "insert_batches" ref_stats.Stats.insert_batches
          s.Stats.insert_batches;
        eq "queries" ref_stats.Stats.queries s.Stats.queries;
        eq "rows_returned" ref_stats.Stats.rows_returned s.Stats.rows_returned
      end)

let layout_cases seeds () =
  List.iter
    (fun seed ->
      run_layout_sweep ~domains:0 seed;
      run_layout_sweep ~domains:2 seed)
    seeds

let suite =
  [
    Alcotest.test_case "oracle: ops + duplicates + delete_prefix" `Quick
      (oracle_cases ~with_ttl:false [ 1; 2; 3; 4; 5; 6 ]);
    Alcotest.test_case "oracle: TTL expiry" `Quick
      (oracle_cases ~with_ttl:true [ 7; 8; 9; 10 ]);
    Alcotest.test_case "oracle: batched = row-at-a-time" `Quick
      (batched_cases [ 11; 12; 13; 14 ]);
    Alcotest.test_case "cross-layout equality: row = columnar = mixed" `Quick
      (layout_cases [ 21; 22; 23 ]);
  ]
