(* Workload [dashboard]: closed-loop reads from one thread against an
   embedded [Db]. Set-up builds seven weeks of hourly usage rows for 200
   devices (235,200 rows), flushes and merges them to a fixpoint; rows
   older than a week are rewritten column-major. The block cache holds a
   quarter of the data: the newest week (4/7 of the cache, about 0.65
   once block framing is counted) fits in the cache's protected segment
   (80%) with room to spare, the whole does not. With six weeks the hot
   week sat at that segment's edge and whether it stayed cached flipped
   from seed to seed. The op mix is 80% paged range queries (a device or a whole
   network over a Figure 10 lookback), 10% [Table.latest] per device and
   10% aggregates (half over a trailing lookback, half over one whole
   past week), half through [Table.query_agg] and half as SQL through
   [Executor.local_backend] (the only way to reach the footer pushdown
   from SQL: over the wire [b_query_agg] is [None]). No insert path and
   no wire run after set-up. *)

open Littletable
module Vfs = Lt_vfs.Vfs
module Disk_model = Lt_vfs.Disk_model
module Clock = Lt_util.Clock
module Xorshift = Lt_util.Xorshift
module Client = Lt_net.Client
module Profile = Lt_obs.Profile

let mib = 1024 * 1024
let nets = 20
let devs = 10
let interval = Clock.hour
let weeks = 7
let samples = weeks * 168
let t_start = Gen.base_ts
let now = Int64.add t_start (Int64.mul (Int64.of_int samples) interval)
let schema = Gen.usage_schema ()
let row_limit = 4096

type env = {
  db : Db.t;
  tbl : Table.t;
  model : Disk_model.t;
  bytes : int array array;  (** per device (net * devs + dev), per sample *)
  cache_bytes : int;
  dataset_bytes : int;
  written : int;
  sample : Value.t array array;
}

let ts_of k = Int64.add t_start (Int64.mul (Int64.of_int k) interval)

let row table ~net ~dev ~k =
  let bytes = table.((net * devs) + dev).(k) in
  Gen.usage_row ~net ~dev ~ts:(ts_of k) ~bytes ~rate:(Gen.rate_of ~bytes ~interval)

let setup ~seed =
  let rng = Xorshift.create seed in
  let bytes = Array.init (nets * devs) (fun _ -> Array.init samples (fun _ -> Gen.draw_bytes rng)) in
  let dataset_bytes = ref 0 in
  let all = ref [] in
  for k = samples - 1 downto 0 do
    for net = nets - 1 downto 0 do
      for dev = devs - 1 downto 0 do
        let r = row bytes ~net ~dev ~k in
        dataset_bytes := !dataset_bytes + Row_codec.stored_size schema r;
        all := r :: !all
      done
    done
  done;
  let cache_bytes = !dataset_bytes / 4 in
  let config =
    Config.make ~flush_size:(2 * mib) ~merge_delay:0L ~rollover_spread:0.0 ~query_domains:0
      ~cache_bytes ~columnar_age:Clock.week ~server_row_limit:row_limit ()
  in
  let model = Disk_model.create ~config:(Disk_model.config ~cache_bytes:mib ()) () in
  let vfs = Vfs.with_model model (Vfs.memory ()) in
  let clock = Clock.manual ~start:now () in
  let db = Db.open_ ~config ~clock ~vfs ~dir:"dashboard" () in
  let tbl = Db.create_table db "usage" schema ~ttl:None in
  List.iter (Table.insert tbl) (Replay.chunks ~size:1000 (Array.of_list !all));
  Table.flush_all tbl;
  while Table.merge_step tbl do
    ()
  done;
  let sample = Array.of_list (List.filteri (fun i _ -> i mod 12 = 0) !all) in
  {
    db; tbl; model; bytes; cache_bytes; dataset_bytes = !dataset_bytes;
    written = Disk_model.bytes_written model; sample;
  }

(* ---- ops and their references ---------------------------------------- *)

type kind = Q | L | A_engine | A_sql

(* The op mix, dealt from seeded decks: per 40 ops, 32 range queries, 4
   latest and 4 aggregates (engine or SQL, each over a trailing lookback
   or a report week); lookbacks per Figure 10; 7 in 10 windows chart one
   device, the rest a whole network. Latest, aggregates and the
   shortest device charts take under 0.3 ms, the other queries 0.5 ms
   and up: with 12 queries in 20 the median sat on that cliff and moved
   with every shift of the fast share; with 32 in 40 it lies above it. *)
type mix = {
  rng : Xorshift.t;
  kinds : (kind * bool) Gen.deck;  (** op, over a report week *)
  lookbacks : Gen.lookback Gen.deck;
  device_scope : bool Gen.deck;
}

let mix seed =
  let rng = Xorshift.create seed in
  {
    rng;
    kinds =
      Gen.deck rng
        (Array.concat
           [
             Gen.repeat 32 (Q, false); Gen.repeat 4 (L, false);
             [| (A_engine, false); (A_engine, true); (A_sql, false); (A_sql, true) |];
           ]);
    lookbacks = Gen.deck rng Gen.lookbacks;
    device_scope = Gen.deck rng (Array.append (Gen.repeat 7 true) (Gen.repeat 3 false));
  }

(* A query's bounding box: a key prefix (one device, one network, or
   every network) and a time window, with the (network, device) pairs
   it covers in key order and the samples it spans. *)
type window = {
  prefix : Value.t list;
  keys : (int * int) list;
  k_lo : int;
  k_hi : int;
  lo : int64;
  hi : int64;
}

(* A trailing Figure 10 lookback ending now over one device or network,
   or (for a report) the whole fleet over one past calendar week: a week
   is one columnar tablet, the window the footer pushdown can answer. *)
let draw_window ?(report = false) mix =
  let rng = mix.rng in
  let lo, hi =
    if report then
      let lo = Int64.add t_start (Int64.mul (Int64.of_int (Xorshift.int rng (weeks - 1))) Clock.week) in
      (lo, Int64.add lo (Int64.sub Clock.week 1L))
    else
      ( Int64.sub now
          (Gen.lookback rng (Gen.draw mix.lookbacks)
             ~max_lookback:(Int64.mul (Int64.of_int weeks) Clock.week)),
        now )
  in
  let k_of ts = Int64.to_int (Int64.div (Int64.sub ts t_start) interval) in
  let k_lo = max 0 (k_of (Int64.add lo (Int64.sub interval 1L))) in
  let k_hi = min (samples - 1) (k_of hi) in
  let v i = Value.Int64 (Int64.of_int i) in
  let prefix, keys =
    if report then ([], List.concat (List.init nets (fun n -> List.init devs (fun d -> (n, d)))))
    else
      let net = Xorshift.int rng nets in
      if Gen.draw mix.device_scope then
        let dev = Xorshift.int rng devs in
        ([ v net; v dev ], [ (net, dev) ])
      else ([ v net ], List.init devs (fun d -> (net, d)))
  in
  { prefix; keys; k_lo; k_hi; lo; hi }

let expected_rows env w =
  List.concat_map
    (fun (net, dev) -> List.init (w.k_hi - w.k_lo + 1) (fun i -> row env.bytes ~net ~dev ~k:(w.k_lo + i)))
    w.keys

(* The whole paged result, as the paper's adaptor pages it (§3.5). *)
let query_all ?(profile = false) env w =
  let rec go q acc scanned profs pages =
    let r = Table.query ~profile env.tbl q in
    let acc = List.rev_append r.Table.rows acc and scanned = scanned + r.Table.scanned in
    let profs = match r.Table.profile with Some p -> p :: profs | None -> profs in
    match (r.Table.more_available, List.rev r.Table.rows) with
    | true, last :: _ -> go (Client.advance_past schema q last) acc scanned profs (pages + 1)
    | _ -> (List.rev acc, scanned, profs)
  in
  go (Query.between ~ts_min:w.lo ~ts_max:w.hi (Query.prefix w.prefix)) [] 0 [] 1

let agg_specs =
  Agg.
    [|
      { a_fn = Count; a_col = None };
      { a_fn = Sum; a_col = Some 3 };
      { a_fn = Min; a_col = Some 3 };
      { a_fn = Max; a_col = Some 3 };
      { a_fn = Avg; a_col = Some 3 };
      { a_fn = Max; a_col = Some 4 };
    |]

let expected_agg env w =
  let count = ref 0 and sum = ref 0L and mn = ref max_int and mx = ref min_int in
  List.iter
    (fun (net, dev) ->
      for k = w.k_lo to w.k_hi do
        let b = env.bytes.((net * devs) + dev).(k) in
        incr count;
        sum := Int64.add !sum (Int64.of_int b);
        mn := min !mn b;
        mx := max !mx b
      done)
    w.keys;
  [|
    Value.Int64 (Int64.of_int !count);
    Value.Int64 !sum;
    Value.Int64 (Int64.of_int !mn);
    Value.Int64 (Int64.of_int !mx);
    Value.Double (Int64.to_float !sum /. float !count);
    Value.Double (Gen.rate_of ~bytes:!mx ~interval);
  |]

let sql_of w =
  let key_conds =
    List.map2
      (fun col v -> Printf.sprintf "%s = %s" col (Value.to_string v))
      (List.filteri (fun i _ -> i < List.length w.prefix) [ "network"; "device" ])
      w.prefix
  in
  Printf.sprintf
    "SELECT count(*), sum(bytes), min(bytes), max(bytes), avg(bytes), max(rate) FROM usage WHERE %s"
    (String.concat " AND "
       (key_conds @ [ Printf.sprintf "ts >= %Ld" w.lo; Printf.sprintf "ts <= %Ld" w.hi ]))

let kind_name = function Q -> "query" | L -> "latest" | A_engine | A_sql -> "agg"

(* Per-op counters the traced run reads. *)
type probe = {
  mutable scanned : int;
  mutable returned : int;
  mutable profs : Profile.t list;  (** range queries *)
  mutable agg_profs : Profile.t list;
  mutable seeks_query : int;
  mutable seeks_latest : int;
  mutable n_query : int;
  mutable n_latest : int;
}

let probe () =
  { scanned = 0; returned = 0; profs = []; agg_profs = []; seeks_query = 0; seeks_latest = 0;
    n_query = 0; n_latest = 0 }

let one_op env ~backend ~mix ?probe ops =
  let kind, report = Gen.draw mix.kinds in
  let w = draw_window ~report mix in
  let profile = probe <> None in
  let seeks0 = Disk_model.seeks env.model in
  let t0 = Mclock.now_ns () in
  let check =
    match kind with
    | Q ->
        let rows, scanned, profs = query_all ~profile env w in
        let ns = Mclock.ns_between t0 (Mclock.now_ns ()) in
        (match probe with
        | Some p ->
            p.scanned <- p.scanned + scanned;
            p.returned <- p.returned + List.length rows;
            p.profs <- List.rev_append profs p.profs;
            p.seeks_query <- p.seeks_query + Disk_model.seeks env.model - seeks0;
            p.n_query <- p.n_query + 1
        | None -> ());
        Live.succeeded ops ~kind:"query" ~rows:(List.length rows) ~latency_ns:ns ~busy_ns:ns;
        fun () -> Gate.check_rows ~what:"dashboard query" ~expected:(expected_rows env w) ~actual:rows
    | L ->
        let net = Xorshift.int mix.rng nets and dev = Xorshift.int mix.rng devs in
        let got = Table.latest env.tbl [ Value.Int64 (Int64.of_int net); Value.Int64 (Int64.of_int dev) ] in
        let ns = Mclock.ns_between t0 (Mclock.now_ns ()) in
        (match probe with
        | Some p ->
            p.seeks_latest <- p.seeks_latest + Disk_model.seeks env.model - seeks0;
            p.n_latest <- p.n_latest + 1
        | None -> ());
        Live.succeeded ops ~kind:"latest" ~rows:1 ~latency_ns:ns ~busy_ns:ns;
        fun () ->
          Gate.check_row_opt ~what:"dashboard latest"
            ~expected:(Some (row env.bytes ~net ~dev ~k:(samples - 1)))
            ~actual:got
    | A_engine | A_sql ->
        let got =
          if kind = A_engine then begin
            let q = Query.between ~ts_min:w.lo ~ts_max:w.hi (Query.prefix w.prefix) in
            let r, prof = Table.query_agg ~profile env.tbl q ~specs:agg_specs in
            (match (probe, prof) with
            | Some p, Some pr -> p.agg_profs <- pr :: p.agg_profs
            | _ -> ());
            r
          end
          else
            match Lt_sql.Executor.execute backend (sql_of w) with
            | Lt_sql.Executor.Rows { rows = [ r ]; _ } -> r
            | _ -> Gate.wrong "dashboard SQL aggregate: not one row"
        in
        let ns = Mclock.ns_between t0 (Mclock.now_ns ()) in
        Live.succeeded ops ~kind:"agg" ~rows:1 ~latency_ns:ns ~busy_ns:ns;
        fun () ->
          Gate.check_rows ~what:("dashboard " ^ kind_name kind) ~expected:[ expected_agg env w ]
            ~actual:[ got ]
  in
  check ()

let warmup_ops = 300

let measure env ~mix ~seconds ?probe () =
  let backend = Lt_sql.Executor.local_backend env.db in
  let ops = Live.ops () in
  let t0 = Mclock.now_ns () in
  while Mclock.s_since t0 < seconds do
    one_op env ~backend ~mix ?probe ops
  done;
  (ops, Mclock.ns_between t0 (Mclock.now_ns ()))

let setup_repeated ~seed =
  let env, setup_s =
    Live.setup_repeated ~times:3 ~setup:(fun () -> setup ~seed) ~teardown:(fun e -> Db.close e.db)
  in
  Printf.printf "dashboard: %d rows, %d dataset bytes, cache_bytes %d (%.2fx), newest week %.2f of cache\n"
    (nets * devs * samples) env.dataset_bytes env.cache_bytes
    (float env.dataset_bytes /. float env.cache_bytes)
    (float env.dataset_bytes /. float weeks /. float env.cache_bytes);
  (env, setup_s)

let warm env ~mix =
  let backend = Lt_sql.Executor.local_backend env.db in
  let ops = Live.ops () in
  for _ = 1 to warmup_ops do
    one_op env ~backend ~mix ops
  done

let disk_bytes env = Table.disk_size env.tbl

let end_to_end ~seed ~seconds =
  let env, setup_s = setup_repeated ~seed in
  let mix = mix (Int64.add seed 104729L) in
  warm env ~mix;
  let ops, _ = measure env ~mix ~seconds () in
  Live.print_ops ~workload:"dashboard" ops;
  let result =
    Live.end_to_end ~setup_s ops
      ~write_amp:(float env.written /. float env.dataset_bytes)
      ~space_amp:(float (disk_bytes env) /. float env.dataset_bytes)
  in
  Db.close env.db;
  (ops, result)

let sum_profiles f l = List.fold_left (fun a p -> a + f p) 0 l

let traced ~seed ~seconds =
  let env, _ = setup_repeated ~seed in
  let mix = mix (Int64.add seed 104729L) in
  warm env ~mix;
  let half = seconds /. 2.0 in
  let ops_a, _ = measure env ~mix ~seconds:half () in
  let cache = Option.get (Db.block_cache env.db) in
  let c0 = Lt_cache.Block_cache.counters cache and g0 = Live.gc_now () in
  let p = probe () in
  let ops_b, wall_ns = measure env ~mix ~seconds:half ~probe:p () in
  let c1 = Lt_cache.Block_cache.counters cache and g1 = Live.gc_now () in
  let gc = Live.gc_delta g0 g1 in
  Live.print_ops ~workload:"dashboard (untraced half)" ops_a;
  Live.print_ops ~workload:"dashboard (traced half)" ops_b;
  let share = 100.0 *. ops_b.busy_ns /. wall_ns in
  Printf.printf
    "dashboard reconciliation: no wire seams; direct engine calls cover %.1f%% of the traced \
     phase's %.3f s wall\n"
    share (wall_ns /. 1e9);
  let hits = c1.hits - c0.hits and misses = c1.misses - c0.misses in
  let nq = float (List.length p.profs) and na = float (List.length p.agg_profs) in
  let tablets = sum_profiles (fun x -> x.Profile.p_tablets) p.profs in
  let pruned = sum_profiles (fun x -> x.Profile.p_tablets_pruned) p.profs in
  let p50 o = Tally.percentile o.Live.all ~pct:50 in
  let m = Live.metric in
  let s = Replay.sample schema env.sample in
  let measured =
    [
      m "table.scanned_per_returned" (Live.ratio (float p.scanned) (float p.returned)) "ratio";
      m "table.tablets_pruned_frac" (Live.ratio (float pruned) (float (tablets + pruned))) "frac";
      m "table.tablets_per_query" (Live.ratio (float tablets) nq) "tablets";
      m "table.footer_blocks_per_agg"
        (Live.ratio (float (sum_profiles (fun x -> x.Profile.p_blocks_footer_answered) p.agg_profs)) na)
        "blocks";
      m "table.columns_decoded_per_agg"
        (Live.ratio (float (sum_profiles (fun x -> x.Profile.p_columns_decoded) p.agg_profs)) na)
        "sections";
      m "cache.hit_ratio" (Live.ratio (float hits) (float (hits + misses))) "ratio";
      m "cache.evictions_per_query" (Live.ratio (float (c1.evictions - c0.evictions)) (float ops_b.attempted)) "count";
      m "vfs.model_seeks_per_query" (Live.ratio (float p.seeks_query) (float p.n_query)) "seeks";
      m "vfs.model_seeks_per_latest" (Live.ratio (float p.seeks_latest) (float p.n_latest)) "seeks";
      m "gc.minor_words_per_query" (Live.ratio gc.minor_words (float ops_b.attempted)) "words";
      m "gc.major_collections" (float gc.major_collections) "count";
      m "bench.trace_overhead_pct" (100.0 *. (p50 ops_b -. p50 ops_a) /. p50 ops_a) "%";
      m "bench.seam_share_pct" share "%";
    ]
    @ Replay.codecs s @ Replay.storage ~block_size:(Db.config env.db).Config.block_size s
    @ Replay.cursor s
    @ Replay.sql ~schema ~now (List.init 64 (fun _ -> sql_of (draw_window mix)))
  in
  Db.close env.db;
  ( ops_b,
    Live.with_absent measured
      ~absent:
        [
          "client.encode_us_per_krow"; "client.rows_per_frame"; "net.insert_wait_us";
          "net.req_bytes_per_row"; "net.query_wait_us"; "net.pages_per_query";
          "protocol.decode_ns_per_row"; "protocol.encode_ns_per_row";
          "server.insert_busy_us_per_krow"; "server.query_busy_us"; "server.latest_busy_us";
          "server.errors"; "router.insert_self_us"; "placement.shard_of_row_ns";
          "router.query_self_us"; "router.rows_fetched_per_returned"; "router.fanout_per_query";
          "router.straggler_ratio"; "table.insert_ns_per_row"; "table.flush_ms";
          "table.flush_retries"; "table.merge_ms"; "merge_policy.bytes_rewritten_per_user_byte";
          "vfs.fsyncs_per_flush"; "vfs.model_disk_s_per_krow"; "gc.minor_words_per_row";
          "bench.gen_late_p99_ms";
        ] )
