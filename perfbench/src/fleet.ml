(* Workload [fleet]: client -> Router -> 3 in-process shards, as
   [bench fleet] deploys it. One generator thread runs an open loop at
   fixed offered rates over two connections (a grabber and a dashboard):
   per second 36 batched usage inserts of 10 rows, 13.5 single-row event
   inserts, 27 recent-window queries (a fifth fan out to every shard),
   13.5 [latest] lookups and a [flush_before] every 3.3 s; each shard
   also runs its maintenance every 0.3 s. Each request is timed from when
   it was due. The data fits in the shards' caches; reads hit memtables
   and fresh tablets while flushes and merges run. It is the only
   workload that crosses the router. *)

open Littletable
module Vfs = Lt_vfs.Vfs
module Disk_model = Lt_vfs.Disk_model
module Clock = Lt_util.Clock
module Xorshift = Lt_util.Xorshift
module Server = Lt_net.Server
module Client = Lt_net.Client
module Protocol = Lt_net.Protocol
open Lt_cluster

let kib = 1024
let shards = 3
let nets = 30
let devs = 20
let interval = Clock.minute
let batch = 10
let row_limit = 256

(* Fifteen simulated minutes of history, loaded through the router in
   set-up: more than the longest query window looks back.

   Writes are light, as in the deployment this mirrors (the grabbers'
   ingest is [ingest]'s subject): the paper's size rule merges a tablet
   with its neighbours once they reach half its size, so the largest
   merge grows with a shard's data in the current 4-hour period, and the
   merge stalls it caused set the p99. With two hours preloaded and 40-row
   batches, four merges of 100-120 ms per run held the whole 1% tail and
   the p99 spread across runs by more than the benchmark's bound; at this
   volume no merge takes much over 10 ms. *)
let preload_rows = 15 * nets * devs

let config =
  Config.make ~flush_size:(256 * kib) ~flush_age:(Int64.mul 10L Clock.minute)
    ~merge_delay:(Int64.mul 5L Clock.minute) ~max_tablet_size:(512 * kib)
    ~rollover_spread:0.0 ~query_domains:0
    ~cache_bytes:(16 * 1024 * kib) ~server_row_limit:row_limit ()

(* The offered load: slots run at [slot_rate] per second, a small share
   of what the stack sustains, so queues stay short and latency measures
   service, not backlog, even when a busy host slows service down a few
   times (at 150/s such a slowdown built queues of seconds). Every 10th
   slot runs one shard's maintenance; of the others, per 20: 8 batches,
   6 queries, 3 events, 3 latest, so the median falls inside the batch
   population rather than on a boundary between two, and every 300th is
   a [flush_before].

   Shards run no maintenance thread: a background thread would take the
   runtime lock for whole 50 ms ticks at moments set by the scheduler,
   which made the tail bimodal from run to run. Run from a slot, the
   same merge work lands at the same point of every run and delays the
   requests behind it, as the open loop charges them. *)
type kind = Batch | Event | Query | Latest | Flush | Maintain of int

let slot_rate = 100.0

let pattern =
  [| Batch; Query; Event; Batch; Latest; Query; Batch; Event; Query; Batch;
     Latest; Query; Batch; Event; Query; Batch; Latest; Query; Batch; Batch |]

let maintain_every = 10

(* Slot [i]: every [maintain_every]th slot maintains the next shard in
   turn; the others, numbered [k], run [pattern], with a [flush_before]
   in place of every 300th. *)
let kind_of_slot i =
  if i mod maintain_every = maintain_every - 1 then Maintain (i / maintain_every mod shards)
  else
    let k = i - (i / maintain_every) in
    if k mod 300 = 24 then Flush else pattern.(k mod Array.length pattern)

let kind_name = function
  | Batch -> "batch" | Event -> "event" | Query -> "query" | Latest -> "latest" | Flush -> "flush"
  | Maintain _ -> "maintain"

(* A growable row vector. *)
type vec = { mutable rows : Value.t array array; mutable n : int }

let vec () = { rows = Array.make 64 [||]; n = 0 }

let push v r =
  if v.n = Array.length v.rows then begin
    let a = Array.make (2 * v.n) [||] in
    Array.blit v.rows 0 a 0 v.n;
    v.rows <- a
  end;
  v.rows.(v.n) <- r;
  v.n <- v.n + 1

(* First index whose row timestamp is >= [ts]. *)
let lower_bound v ts =
  let lo = ref 0 and hi = ref v.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Grabber.row_ts v.rows.(mid) < ts then lo := mid + 1 else hi := mid
  done;
  !lo

type shard = { model : Disk_model.t; vfs : Vfs.t; db : Db.t; server : Server.t }

type env = {
  clock : Clock.t;
  shard_list : shard list;
  rserver : Server.t;
  grabber : Client.t;
  dash : Client.t;
  stream : Grabber.t;
  rng : Xorshift.t;
  fan_out : bool Gen.deck;  (** one query in five spans every shard *)
  usage_by_dev : vec array;  (** reference: acknowledged usage rows, ts order *)
  acked : Gate.digest;
  mutable acked_bytes : int;
  mutable max_ts : int64;
  mutable sim_now : int64;
  sample : Value.t array array;
}

let usage_schema = Gen.usage_schema ()
let event_schema = Gen.event_schema ()

let dev_index row =
  match (row.(0), row.(1)) with
  | Value.Int64 n, Value.Int64 d -> (Int64.to_int n * devs) + Int64.to_int d
  | _ -> invalid_arg "dev_index"

let note_acked env ~table ~schema rows =
  List.iter (Gate.add env.acked ~table) rows;
  if table = "usage" then List.iter (fun r -> push env.usage_by_dev.(dev_index r) r) rows;
  env.acked_bytes <- env.acked_bytes + Live.stored_size schema rows;
  env.max_ts <- max env.max_ts (Grabber.max_ts rows)

let start_shard ~clock i =
  let model = Disk_model.create () in
  let vfs = Vfs.with_model model (Vfs.memory ()) in
  let db = Db.open_ ~config ~clock ~vfs ~dir:(Printf.sprintf "shard%d" i) () in
  let server =
    Server.start_custom ~maintenance_period_s:0.0 ~backend:(Live.db_backend ~node:i db) ~port:0 ()
  in
  { model; vfs; db; server }

let router_backend router =
  let base = Router.backend router in
  {
    base with
    Server.b_handle =
      (fun req ->
        Spans.wrap ~layer:"router" ~kind:(Protocol.request_kind req) ~rows:Live.rows_of_response
          (fun () -> base.Server.b_handle req));
  }

let set_sim env ts =
  if ts > env.sim_now then begin
    env.sim_now <- ts;
    Clock.set env.clock ts
  end

let setup ~seed =
  let rng = Xorshift.create (Int64.add seed 15485863L) in
  let clock = Clock.manual ~start:Gen.base_ts () in
  let shard_list = List.init shards (start_shard ~clock) in
  let cluster =
    Cluster_client.create
      ~backends:
        (List.map
           (fun s -> { Cluster_client.host = "127.0.0.1"; port = Server.port s.server })
           shard_list)
      ()
  in
  let placement = Placement.create ~shards ~policy:(Placement.Hash { vnodes = 64 }) in
  let router = Router.create ~row_limit ~placement ~cluster () in
  let rserver = Server.start_custom ~backend:(router_backend router) ~port:0 () in
  let port = Server.port rserver in
  let grabber = Client.connect ~batch_rows:1_000_000 ~clock:(Clock.manual ()) ~port () in
  let dash = Client.connect ~port () in
  Client.create_table grabber "usage" usage_schema ~ttl:None;
  Client.create_table grabber "events" event_schema ~ttl:None;
  let env =
    {
      clock; shard_list; rserver; grabber; dash;
      stream = Grabber.create ~seed ~nets ~devs ~interval;
      rng;
      fan_out = Gen.deck rng [| true; false; false; false; false |];
      usage_by_dev = Array.init (nets * devs) (fun _ -> vec ());
      acked = Gate.digest (); acked_bytes = 0; max_ts = Int64.min_int; sim_now = Gen.base_ts;
      sample = [||];
    }
  in
  let preload = Grabber.usage env.stream preload_rows in
  List.iter
    (fun rows ->
      set_sim env (Grabber.max_ts rows);
      Client.buffered_insert grabber "usage" rows;
      Client.flush grabber)
    (Replay.chunks ~size:1000 (Array.of_list preload));
  note_acked env ~table:"usage" ~schema:usage_schema preload;
  Client.flush_before grabber "usage" ~ts:env.max_ts;
  { env with sample = Array.of_list (List.filteri (fun i _ -> i < 16384) preload) }

let teardown env =
  Client.close env.grabber;
  Client.close env.dash;
  Server.stop env.rserver;
  List.iter
    (fun s ->
      Server.stop s.server;
      Db.close s.db)
    env.shard_list

(* ---- the ops ---------------------------------------------------------- *)

let expected_window env ~nets_in ~lo ~hi =
  List.concat_map
    (fun net ->
      List.concat_map
        (fun dev ->
          let v = env.usage_by_dev.((net * devs) + dev) in
          let i = ref (lower_bound v lo) and out = ref [] in
          while !i < v.n && Grabber.row_ts v.rows.(!i) <= hi do
            out := v.rows.(!i) :: !out;
            incr i
          done;
          List.rev !out)
        (List.init devs Fun.id))
    nets_in

(* Every page of one query, each page one round trip. *)
let paged env q =
  let rec go q acc pages =
    let page =
      Spans.wrap ~layer:"client.rt" ~kind:"query" (fun () -> Client.query_page env.dash "usage" q)
    in
    let acc = List.rev_append page.Client.rows acc in
    match (page.Client.more_available, List.rev page.Client.rows) with
    | true, last :: _ -> go (Client.advance_past usage_schema q last) acc (pages + 1)
    | _ -> (List.rev acc, pages)
  in
  go q [] 1

type probe = { mutable pages : int; mutable queries : int }

(* Runs one op; returns (rows carried, deferred correctness check). *)
let run_op env ?probe kind =
  match kind with
  | Batch ->
      let rows = Grabber.usage env.stream batch in
      set_sim env (Grabber.max_ts rows);
      Spans.wrap ~layer:"client.encode" ~kind:"batch" ~rows:(fun () -> batch) (fun () ->
          Client.buffered_insert env.grabber "usage" rows);
      Spans.wrap ~layer:"client.rt" ~kind:"batch" (fun () -> Client.flush env.grabber);
      (batch, fun () -> note_acked env ~table:"usage" ~schema:usage_schema rows)
  | Event ->
      let rows = Grabber.events env.stream 1 in
      Spans.wrap ~layer:"client.rt" ~kind:"event" (fun () -> Client.insert env.grabber "events" rows);
      (1, fun () -> note_acked env ~table:"events" ~schema:event_schema rows)
  | Query ->
      let fan_out = Gen.draw env.fan_out in
      let lookback =
        Int64.mul Clock.minute (Int64.of_int (if fan_out then 1 else 2 + Xorshift.int env.rng 9))
      in
      let lo = Int64.sub env.sim_now lookback and hi = env.sim_now in
      let net = Xorshift.int env.rng nets in
      let q =
        Query.between ~ts_min:lo ~ts_max:hi
          (if fan_out then Query.all else Query.prefix [ Value.Int64 (Int64.of_int net) ])
      in
      let rows, pages = paged env q in
      (match probe with
      | Some p ->
          p.pages <- p.pages + pages;
          p.queries <- p.queries + 1
      | None -> ());
      ( List.length rows,
        fun () ->
          let nets_in = if fan_out then List.init nets Fun.id else [ net ] in
          Gate.check_rows ~what:"fleet query" ~expected:(expected_window env ~nets_in ~lo ~hi)
            ~actual:rows )
  | Latest ->
      let net = Xorshift.int env.rng nets and dev = Xorshift.int env.rng devs in
      let got =
        Spans.wrap ~layer:"client.rt" ~kind:"latest" (fun () ->
            Client.latest env.dash "usage" [ Value.Int64 (Int64.of_int net); Value.Int64 (Int64.of_int dev) ])
      in
      ( 1,
        fun () ->
          let v = env.usage_by_dev.((net * devs) + dev) in
          Gate.check_row_opt ~what:"fleet latest"
            ~expected:(if v.n = 0 then None else Some v.rows.(v.n - 1))
            ~actual:got )
  | Flush ->
      let ts = Int64.sub env.sim_now (Int64.mul 10L Clock.minute) in
      Spans.wrap ~layer:"client.rt" ~kind:"flush" (fun () -> Client.flush_before env.grabber "usage" ~ts);
      (0, ignore)
  | Maintain i ->
      Db.maintenance (List.nth env.shard_list i).db;
      (0, ignore)

let measure env ~seconds ?probe () =
  let ops = Live.ops () and late = Tally.create () in
  let t0 = Mclock.now_ns () in
  let op i =
    let kind = kind_of_slot i in
    Spans.next_request ();
    ( kind,
      match kind with
      | Maintain _ -> Ok (run_op env kind)
      | _ -> (
          match Spans.wrap ~layer:"client" ~kind:(kind_name kind) ~rows:fst (fun () -> run_op env ?probe kind) with
          | r -> Ok r
          | exception e when Live.op_failure e -> Error e) )
  in
  let after slot (kind, result) =
    Tally.add late (Openloop.lateness_ns slot);
    let busy_ns = Mclock.ns_between slot.Openloop.start slot.stop in
    match (kind, result) with
    | Maintain _, _ -> Live.background ~busy:false ops ~busy_ns
    | _, Ok (rows, check) ->
        Live.succeeded ops ~kind:(kind_name kind) ~rows ~latency_ns:(Openloop.latency_ns slot) ~busy_ns;
        check ()
    | _, Error _ -> Live.failed ops ~busy_ns
  in
  Openloop.run ~rate:slot_rate ~slots:(int_of_float (seconds *. slot_rate)) ~op ~after ();
  (ops, late, Mclock.ns_between t0 (Mclock.now_ns ()))

(* Untimed open-loop traffic before the timed window, answers still
   checked: set-up leaves the preload's merges due, and paying them in
   the window made its first two seconds hold most of the run's tail. *)
let warmup_s = 3.0

let warm env = ignore (measure env ~seconds:warmup_s ())

let stats env = Client.stats env.grabber "usage"

let crash_gate env =
  Client.flush_before env.grabber "usage" ~ts:env.max_ts;
  Client.flush_before env.grabber "events" ~ts:env.max_ts;
  Client.close env.grabber;
  Client.close env.dash;
  Server.stop env.rserver;
  let disk = ref 0 and written = ref 0 in
  let reopened =
    List.mapi
      (fun i s ->
        Server.stop s.server;
        disk := List.fold_left (fun a n -> a + Table.disk_size (Db.table s.db n)) !disk (Db.table_names s.db);
        written := !written + Disk_model.bytes_written s.model;
        Db.close s.db;
        Vfs.crash s.vfs;
        Db.open_ ~config ~clock:env.clock ~vfs:s.vfs ~dir:(Printf.sprintf "shard%d" i) ())
      env.shard_list
  in
  let actual = Gate.digest () in
  List.iter
    (fun db ->
      let d = Gate.digest_db db in
      actual.rows <- actual.rows + d.rows;
      actual.sum <- Int64.add actual.sum d.sum;
      Db.close db)
    reopened;
  Gate.check_digest ~what:"fleet crash gate" ~expected:env.acked ~actual;
  (!disk, !written)

let setup_repeated ~seed = Live.setup_repeated ~times:9 ~setup:(fun () -> setup ~seed) ~teardown

let end_to_end ~seed ~seconds =
  let env, setup_s = setup_repeated ~seed in
  warm env;
  let ops, late, _ = measure env ~seconds () in
  let disk, written = crash_gate env in
  Live.print_ops ~workload:"fleet" ops;
  Printf.printf "  generator lateness p99 %s (n=%d)\n" (Live.pct_text late ~pct:99) (Tally.count late);
  ( ops,
    Live.end_to_end ~setup_s ops
      ~write_amp:(float written /. float env.acked_bytes)
      ~space_amp:(float disk /. float env.acked_bytes) )

let traced ~seed ~seconds =
  let env, _ = setup_repeated ~seed in
  warm env;
  let half = seconds /. 2.0 in
  let ops_a, late_a, _ = measure env ~seconds:half () in
  Spans.reset ();
  Atomic.set Live.server_errors 0;
  let caches = List.filter_map (fun s -> Db.block_cache s.db) env.shard_list in
  let cache_sum () =
    List.fold_left
      (fun (h, m, e) c ->
        let k = Lt_cache.Block_cache.counters c in
        (h + k.hits, m + k.misses, e + k.evictions))
      (0, 0, 0) caches
  in
  let s0 = stats env and g0 = Live.gc_now () and h0, m0, e0 = cache_sum () in
  let p = { pages = 0; queries = 0 } in
  Atomic.set Spans.enabled true;
  let ops_b, late, wall_ns = measure env ~seconds:half ~probe:p () in
  Atomic.set Spans.enabled false;
  let s1 = stats env and g1 = Live.gc_now () and h1, m1, e1 = cache_sum () in
  let gc = Live.gc_delta g0 g1 in
  let spans = Spans.all () in
  let ledger kinds = Seams.analyze ~front:"router" ~kinds spans in
  let all = ledger [ "batch"; "event"; "query"; "latest"; "flush" ] in
  let ins = ledger [ "batch"; "event" ] and q = ledger [ "query" ] and l = ledger [ "latest" ] in
  let share = Seams.reconcile ~background_ns:(Tally.sum ops_b.background) ~workload:"fleet" ~wall_ns all in
  let _ = crash_gate env in
  Live.print_ops ~workload:"fleet (untraced half)" ops_a;
  Live.print_ops ~workload:"fleet (traced half)" ops_b;
  let p50 o = Tally.percentile o.Live.all ~pct:50 in
  let m = Live.metric in
  let s = Replay.sample usage_schema env.sample in
  let measured =
    [
      m "client.encode_us_per_krow" (Live.ratio ins.encode_ns (float ins.encode_rows)) "us/krow";
      m "client.rows_per_frame" (Live.ratio (float ins.rows) (float ins.frames)) "rows";
      m "net.insert_wait_us" (Live.ratio ins.net_ns (float ins.frames) /. 1e3) "us";
      m "net.query_wait_us" (Live.ratio q.net_ns (float q.frames) /. 1e3) "us";
      m "net.pages_per_query" (Live.ratio (float p.pages) (float p.queries)) "pages";
      m "server.insert_busy_us_per_krow" (Live.ratio ins.server_ns (float ins.server_rows)) "us/krow";
      m "server.query_busy_us" (Live.ratio q.server_ns (float q.server_spans) /. 1e3) "us";
      m "server.latest_busy_us" (Live.ratio l.server_ns (float l.server_spans) /. 1e3) "us";
      m "server.errors" (float (Atomic.get Live.server_errors)) "count";
      m "router.insert_self_us" (Live.ratio ins.router_self_ns (float ins.router_spans) /. 1e3) "us";
      m "router.query_self_us" (Live.ratio q.router_self_ns (float q.router_spans) /. 1e3) "us";
      m "router.rows_fetched_per_returned" (Live.ratio (float q.server_rows) (float q.router_rows)) "ratio";
      m "router.fanout_per_query" (Live.ratio (float q.fanout) (float q.router_spans)) "shards";
      m "router.straggler_ratio" (Live.ratio q.straggler_sum (float q.straggler_n)) "ratio";
      m "table.flush_retries" (float (s1.Stats.flush_retries - s0.Stats.flush_retries)) "count";
      m "merge_policy.bytes_rewritten_per_user_byte"
        (Live.ratio
           (float (s1.Stats.merged_bytes_out - s0.Stats.merged_bytes_out))
           (float (s1.Stats.flushed_bytes - s0.Stats.flushed_bytes)))
        "ratio";
      m "cache.hit_ratio" (Live.ratio (float (h1 - h0)) (float (h1 - h0 + m1 - m0))) "ratio";
      m "cache.evictions_per_query" (Live.ratio (float (e1 - e0)) (float (q.ops + l.ops))) "count";
      m "gc.major_collections" (float gc.major_collections) "count";
      (* lateness is the generator's, traced or not: both halves count *)
      m "bench.gen_late_p99_ms"
        (Live.ms (Tally.percentile_sorted (Array.append (Tally.sorted late_a) (Tally.sorted late) |> fun a -> Array.sort Float.compare a; a) ~pct:99))
        "ms";
      m "bench.trace_overhead_pct" (100.0 *. (p50 ops_b -. p50 ops_a) /. p50 ops_a) "%";
      m "bench.seam_share_pct" share "%";
    ]
    @ Replay.codecs s @ Replay.storage ~block_size:config.Config.block_size s
    @ Replay.protocol ~table:"usage" ~batch s @ Replay.placement s @ Replay.cursor s
    @ Replay.table_ops ~config s
  in
  ( ops_b,
    Live.with_absent measured
      ~absent:
        [
          "table.scanned_per_returned"; "table.tablets_pruned_frac"; "table.tablets_per_query";
          "table.footer_blocks_per_agg"; "table.columns_decoded_per_agg"; "sql.parse_plan_us";
          "vfs.fsyncs_per_flush"; "vfs.model_disk_s_per_krow"; "vfs.model_seeks_per_query";
          "vfs.model_seeks_per_latest"; "gc.minor_words_per_row"; "gc.minor_words_per_query";
        ] )
