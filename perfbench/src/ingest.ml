(* Workload [ingest]: a closed loop over one connection to a single-node
   server. Three ops in four are a UsageGrabber batch (256 rows through
   [Client.buffered_insert] + [Client.flush], one Insert_batch frame), the
   fourth an EventsGrabber-style immediate [Client.insert] of 1-10 rows;
   the 3:1 mix keeps the median inside the batch population instead of
   on the boundary between two. It drives the whole write path and no
   read path. *)

open Littletable
module Vfs = Lt_vfs.Vfs
module Disk_model = Lt_vfs.Disk_model
module Clock = Lt_util.Clock
module Xorshift = Lt_util.Xorshift
module Server = Lt_net.Server
module Client = Lt_net.Client

let mib = 1024 * 1024
let nets = 50
let devs = 40
let interval = Clock.sec 10
let batch = 256

(* Ten simulated minutes of history (120k rows) is loaded and flushed in
   set-up, so merges start from existing tablets. *)
let preload_rows = 60 * nets * devs

(* Scaled so a 10 s run completes dozens of flushes and several merge
   cycles instead of the paper's 16 MB / 90 s: 400 KiB memtables (about
   9.4k rows) flush inline in every ~37th batch, so flushes are about 2%
   of ops and the p99 falls in the middle of the flushing ops rather than
   on the edge of their spread (at 512 KiB they were 1.5% of ops and the
   p99 sat on the lower shoulder of the flushing ops' times); merges wait
   15 simulated minutes (180k rows). *)
let config =
  Config.make ~flush_size:(400 * 1024) ~flush_age:(Int64.mul 30L Clock.minute)
    ~merge_delay:(Int64.mul 15L Clock.minute) ~rollover_spread:0.0 ~query_domains:0
    ~cache_bytes:(8 * mib) ()

(* The server runs no maintenance thread: the generator runs
   [Db.maintenance] (flush by age, merges to a fixpoint, expiry) itself
   every simulated minute, between requests. A background thread would
   take the runtime lock for whole 50 ms ticks at moments set by the
   scheduler, which made the insert tail bimodal from run to run; run
   here, merge work lands at the same point of every run and still
   counts in the throughput's busy time. *)
let maintenance_every = Clock.minute

(* Write amplification and the heap peak are taken when the run has
   ingested this many rows (a stated input size), not at the end of the
   timed window: merges land at row-count thresholds and the in-memory
   disk grows with every row, so end-of-run figures moved with however
   many rows a run's speed let in. A run that is short of it keeps
   inserting, untimed, until it gets there. *)
let reference_rows = 1_000_000

type reference = {
  written : int;  (** modeled bytes written *)
  acked : int;  (** acknowledged bytes *)
  heap_mb : float;  (** heap peak so far *)
}

type env = {
  model : Disk_model.t;
  vfs : Vfs.t;
  counter : Vfs.counter option;
  clock : Clock.t;
  db : Db.t;
  server : Server.t;
  client : Client.t;
  stream : Grabber.t;
  mix : Xorshift.t;
  acked : Gate.digest;
  mutable acked_bytes : int;
  mutable max_ts : int64;
  mutable next_maintenance : int64;
  mutable run_rows : int;  (** rows acknowledged since set-up *)
  mutable at_reference : reference option;
      (** taken when [run_rows] first reached [reference_rows] *)
  sample : Value.t array array;  (** replay rows *)
}

let usage_schema = Gen.usage_schema ()
let event_schema = Gen.event_schema ()

let note_acked env ~table ~schema rows =
  List.iter (Gate.add env.acked ~table) rows;
  env.acked_bytes <- env.acked_bytes + Live.stored_size schema rows;
  env.max_ts <- max env.max_ts (Grabber.max_ts rows);
  env.run_rows <- env.run_rows + List.length rows;
  if env.at_reference = None && env.run_rows >= reference_rows then
    env.at_reference <-
      Some
        {
          written = Disk_model.bytes_written env.model;
          acked = env.acked_bytes;
          heap_mb = Live.heap_peak_mb ();
        }

let setup ~seed ~counting =
  let model = Disk_model.create () in
  let base = Vfs.with_model model (Vfs.memory ()) in
  let counter, vfs =
    if counting then
      let c, v = Vfs.counting base in
      (Some c, v)
    else (None, base)
  in
  let clock = Clock.manual ~start:Gen.base_ts () in
  let db = Db.open_ ~config ~clock ~vfs ~dir:"ingest" () in
  let usage = Db.create_table db "usage" usage_schema ~ttl:None in
  ignore (Db.create_table db "events" event_schema ~ttl:None : Table.t);
  let stream = Grabber.create ~seed ~nets ~devs ~interval in
  let acked = Gate.digest () in
  let preload = Grabber.usage stream preload_rows in
  List.iter
    (fun rows ->
      Clock.set clock (max (Clock.now clock) (Grabber.max_ts rows));
      Table.insert usage rows)
    (Replay.chunks ~size:batch (Array.of_list preload));
  Db.flush_all db;
  List.iter (Gate.add acked ~table:"usage") preload;
  let server =
    Server.start_custom ~maintenance_period_s:0.0 ~backend:(Live.db_backend db) ~port:0 ()
  in
  let client =
    Client.connect ~batch_rows:1_000_000 ~clock:(Clock.manual ()) ~port:(Server.port server) ()
  in
  {
    model; vfs; counter; clock; db; server; client; stream;
    mix = Xorshift.create (Int64.add seed 7919L);
    acked; acked_bytes = Live.stored_size usage_schema preload; max_ts = Grabber.max_ts preload;
    next_maintenance = Int64.add (Clock.now clock) maintenance_every;
    run_rows = 0;
    at_reference = None;
    sample = Array.of_list (List.filteri (fun i _ -> i < 16384) preload);
  }

let teardown env =
  Client.close env.client;
  Server.stop env.server;
  Db.close env.db

let maybe_maintain env ops =
  if Clock.now env.clock >= env.next_maintenance then begin
    env.next_maintenance <- Int64.add (Clock.now env.clock) maintenance_every;
    Live.background ops ~busy_ns:(snd (Mclock.time (fun () -> Db.maintenance env.db)))
  end

let one_op env ops =
  maybe_maintain env ops;
  Spans.next_request ();
  let c = env.client in
  let kind, table, schema, rows, send =
    if ops.Live.attempted mod 4 <> 3 then begin
      let rows = Grabber.usage env.stream batch in
      Clock.set env.clock (max (Clock.now env.clock) (Grabber.max_ts rows));
      ( "batch", "usage", usage_schema, rows,
        fun () ->
          Spans.wrap ~layer:"client.encode" ~kind:"batch" ~rows:(fun () -> batch) (fun () ->
              Client.buffered_insert c "usage" rows);
          Spans.wrap ~layer:"client.rt" ~kind:"batch" (fun () -> Client.flush c) )
    end
    else begin
      let rows = Grabber.events env.stream (1 + Xorshift.int env.mix 10) in
      ( "event", "events", event_schema, rows,
        fun () -> Spans.wrap ~layer:"client.rt" ~kind:"event" (fun () -> Client.insert c "events" rows) )
    end
  in
  let n = List.length rows in
  let t0 = Mclock.now_ns () in
  match Spans.wrap ~layer:"client" ~kind ~rows:(fun () -> n) send with
  | () ->
      let ns = Mclock.ns_between t0 (Mclock.now_ns ()) in
      Live.succeeded ops ~kind ~rows:n ~latency_ns:ns ~busy_ns:ns;
      note_acked env ~table ~schema rows
  | exception e when Live.op_failure e ->
      Live.failed ops ~busy_ns:(Mclock.ns_between t0 (Mclock.now_ns ()))

let measure env ~seconds =
  let ops = Live.ops () in
  let t0 = Mclock.now_ns () in
  while Mclock.s_since t0 < seconds do
    one_op env ops
  done;
  (ops, Mclock.ns_between t0 (Mclock.now_ns ()))

(* Untimed traffic before the timed window: the first merges of the
   preloaded tablets, and the heap's growth to its working size, land
   here instead of in the window's first seconds. *)
let warmup_s = 3.0

let warm env = ignore (measure env ~seconds:warmup_s)

(* Make every acknowledged row durable, stop the server, crash the
   filesystem, reopen, and require exactly the acknowledged rows back.
   Returns (tablet bytes on disk, modeled bytes written) before the
   crash. *)
let crash_gate env =
  Client.flush_before env.client "usage" ~ts:env.max_ts;
  Client.flush_before env.client "events" ~ts:env.max_ts;
  Client.close env.client;
  Server.stop env.server;
  let disk =
    List.fold_left (fun a n -> a + Table.disk_size (Db.table env.db n)) 0 (Db.table_names env.db)
  in
  let written = Disk_model.bytes_written env.model in
  Db.close env.db;
  Vfs.crash env.vfs;
  let db = Db.open_ ~config ~clock:env.clock ~vfs:env.vfs ~dir:"ingest" () in
  Gate.check_digest ~what:"ingest crash gate" ~expected:env.acked ~actual:(Gate.digest_db db);
  Db.close db;
  (disk, written)

let setup_repeated ~seed ~counting =
  Live.setup_repeated ~times:5 ~setup:(fun () -> setup ~seed ~counting) ~teardown

let end_to_end ~seed ~seconds =
  let env, setup_s = setup_repeated ~seed ~counting:false in
  warm env;
  let ops, _ = measure env ~seconds in
  if env.at_reference = None then begin
    let untimed = Live.ops () in
    while env.at_reference = None do
      one_op env untimed
    done
  end;
  let r = Option.get env.at_reference in
  let disk, _ = crash_gate env in
  Live.print_ops ~workload:"ingest" ops;
  Printf.printf "  write_amp and heap peak taken at %d ingested rows; %d rows in the timed window\n"
    reference_rows ops.rows;
  ( ops,
    Live.end_to_end ~setup_s ~heap_peak_mb:r.heap_mb ops
      ~write_amp:(float r.written /. float r.acked)
      ~space_amp:(float disk /. float env.acked_bytes) )

let stats env =
  List.fold_left
    (fun acc n ->
      let s = Table.stats (Db.table env.db n) in
      match acc with None -> Some s | Some a -> Some (Stats.add a s))
    None (Db.table_names env.db)
  |> Option.get

let fsyncs env =
  match env.counter with
  | None -> 0
  | Some c -> List.length (List.filter (fun (op, _) -> op = "fsync") (Vfs.op_log c))

let traced ~seed ~seconds =
  let env, _ = setup_repeated ~seed ~counting:true in
  warm env;
  let half = seconds /. 2.0 in
  let ops_a, _ = measure env ~seconds:half in
  Spans.reset ();
  Atomic.set Live.server_errors 0;
  let s0 = stats env and g0 = Live.gc_now () and f0 = fsyncs env in
  let d0 = Disk_model.elapsed_s env.model in
  Atomic.set Spans.enabled true;
  let ops_b, wall_ns = measure env ~seconds:half in
  Atomic.set Spans.enabled false;
  let s1 = stats env and g1 = Live.gc_now () and f1 = fsyncs env in
  let d1 = Disk_model.elapsed_s env.model in
  let gc = Live.gc_delta g0 g1 in
  let all = Seams.analyze ~front:"server" ~kinds:[ "batch"; "event" ] (Spans.all ()) in
  let share = Seams.reconcile ~background_ns:(Tally.sum ops_b.background) ~workload:"ingest" ~wall_ns all in
  let _ = crash_gate env in
  Live.print_ops ~workload:"ingest (untraced half)" ops_a;
  Live.print_ops ~workload:"ingest (traced half)" ops_b;
  let p50 o = Tally.percentile o.Live.all ~pct:50 in
  let rows = float ops_b.rows in
  let flushes = s1.Stats.flushes - s0.Stats.flushes in
  let cache = s1.Stats.cache and cache0 = s0.Stats.cache in
  let hits = cache.Stats.cache_hits - cache0.Stats.cache_hits
  and misses = cache.Stats.cache_misses - cache0.Stats.cache_misses in
  let m = Live.metric in
  let s = Replay.sample usage_schema env.sample in
  let measured =
    [
      m "client.encode_us_per_krow" (Live.ratio all.encode_ns (float all.encode_rows)) "us/krow";
      m "client.rows_per_frame" (Live.ratio (float all.rows) (float all.frames)) "rows";
      m "net.insert_wait_us" (Live.ratio all.net_ns (float all.frames) /. 1e3) "us";
      m "server.insert_busy_us_per_krow" (Live.ratio all.server_ns (float all.server_rows)) "us/krow";
      m "server.errors" (float (Atomic.get Live.server_errors)) "count";
      m "table.flush_retries" (float (s1.Stats.flush_retries - s0.Stats.flush_retries)) "count";
      m "merge_policy.bytes_rewritten_per_user_byte"
        (Live.ratio
           (float (s1.Stats.merged_bytes_out - s0.Stats.merged_bytes_out))
           (float (s1.Stats.flushed_bytes - s0.Stats.flushed_bytes)))
        "ratio";
      m "cache.hit_ratio" (Live.ratio (float hits) (float (hits + misses))) "ratio";
      m "vfs.fsyncs_per_flush" (Live.ratio (float (f1 - f0)) (float flushes)) "count";
      m "vfs.model_disk_s_per_krow" (Live.ratio (d1 -. d0) rows *. 1e3) "s/krow";
      m "gc.minor_words_per_row" (Live.ratio gc.minor_words rows) "words/row";
      m "gc.major_collections" (float gc.major_collections) "count";
      m "bench.trace_overhead_pct" (100.0 *. (p50 ops_b -. p50 ops_a) /. p50 ops_a) "%";
      m "bench.seam_share_pct" share "%";
    ]
    @ Replay.codecs s @ Replay.storage ~block_size:config.Config.block_size s
    @ Replay.protocol ~table:"usage" ~batch s @ Replay.table_ops ~config s
  in
  ( ops_b,
    Live.with_absent measured
      ~absent:
        [
          "net.query_wait_us"; "net.pages_per_query"; "server.query_busy_us";
          "server.latest_busy_us"; "router.insert_self_us"; "placement.shard_of_row_ns";
          "router.query_self_us"; "router.rows_fetched_per_returned"; "router.fanout_per_query";
          "router.straggler_ratio"; "table.scanned_per_returned"; "table.tablets_pruned_frac";
          "table.tablets_per_query"; "table.footer_blocks_per_agg"; "table.columns_decoded_per_agg";
          "cursor.merge_ns_per_row"; "sql.parse_plan_us"; "cache.evictions_per_query";
          "vfs.model_seeks_per_query"; "vfs.model_seeks_per_latest"; "gc.minor_words_per_query";
          "bench.gen_late_p99_ms";
        ] )
