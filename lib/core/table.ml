open Lt_util
module Vfs = Lt_vfs.Vfs
module Bcache = Lt_cache.Block_cache
module Obs = Lt_obs.Obs
module Otrace = Lt_obs.Trace
module Ometrics = Lt_obs.Metrics
module Pool = Lt_exec.Pool
module Pscan = Lt_exec.Pscan

exception Duplicate_key of string

type disk_tablet = {
  mutable meta : Descriptor.tablet_meta;
  mutable reader : Tablet.reader option;
  mutable refs : int;
  mutable doomed : bool;
  mutable last_cls : Period.class_;
  mutable eligible_at : int64;
}

type t = {
  vfs : Vfs.t;
  clock : Clock.t;
  config : Config.t;
  dir : string;
  tname : string;
  mutable schema : Schema.t;
  mutable ttl : int64 option;
  mutable next_id : int;
  mutable filling : string Memtable.t list;
      (** one per active period bin; rows are value bytes under [schema] *)
  mutable frozen : string Memtable.t list;  (** oldest frozen first *)
  mutable disk : disk_tablet list;  (** timespan order *)
  mutable doomed_paths : string list;
      (** unreferenced tablet files awaiting deletion; guarded by
          [state]. Unlinking is blocking VFS work, so doomed files are
          only queued under the lock and actually deleted by
          [drain_doomed] outside every lock region. *)
  mutable seq : int;
      (** insert sequence number of the last landed row; each memtable
          records the span of numbers it holds (§3.4.3) *)
  mutable settled_max_ts : int64;
      (** at least the largest ts any frozen memtable or disk tablet
          holds ([Int64.min_int] when none may hold a row): raised as a
          memtable freezes, left high by merges and expiry, rebuilt
          from the descriptor on open *)
  mutable flush_failures : int;
      (** consecutive failed flush attempts; guarded by [writer_lock] *)
  mutable flush_retry_at : int64;
      (** no background flush retry before this time; guarded by [writer_lock] *)
  mutable durable_seq : int;
      (** highest [seq] covered by a completed explicit flush
          round; guarded by [state] *)
  mutable commit_round_active : bool;
      (** an explicit flush round is in flight; guarded by [state] *)
  commit_cond : Condition.t;
      (** waits on [state]; broadcast when a flush round ends *)
  state : Mutex.t;  (** guards all mutable fields above *)
  writer_lock : Mutex.t;  (** serializes inserts, flushes, schema changes *)
  maint_lock : Mutex.t;  (** serializes merges and expiry *)
  stats : Stats.t;
  cache : Block.t Bcache.t option;
      (** process-wide block cache, shared across the {!Db}'s tables *)
  obs : Obs.t;
  instr : Obs.table_instruments;
  pool : Pool.t option;
      (** worker pool for parallel tablet scans; [None] = sequential *)
  rng : Xorshift.t;
  mutable closed : bool;
}

let now t = Clock.now t.clock

let name t = t.tname

let dir t = t.dir

let schema t = Mutexes.with_lock t.state (fun () -> t.schema)

let ttl t = Mutexes.with_lock t.state (fun () -> t.ttl)

let stats t = Stats.read ?cache:(Option.map Stats.cache_of t.cache) t.stats

let tablet_path t file = Filename.concat t.dir file

(* ------------------------------------------------------------------ *)
(* Per-operation accounting                                            *)
(* ------------------------------------------------------------------ *)

let cache_counts t =
  match t.cache with
  | None -> (0, 0)
  | Some c ->
      let k = Bcache.counters c in
      (k.Bcache.hits, k.Bcache.misses)

(* The one accounting record of an engine operation, opened once at
   entry ([acct_open]) and closed once at exit ([acct_close]). Opening
   reads the clock and the block-cache counters only when observability
   is on or a profile was asked for; cache deltas are approximate under
   concurrent readers (see DESIGN.md). Closing builds the operation's
   one {!Lt_obs.Profile.t} and feeds that same value to [Stats] (through
   {!Stats.of_op}), the latency histogram and the trace span; a query
   that asked for a profile also returns it. Records are timed with
   [t.clock] directly: profiling is an explicit per-query opt-in that
   works with [Config.obs_enabled] off. Parallel-scan workers add to
   the atomics from pool domains. *)
type acct = {
  a_hist : Ometrics.Histogram.t;
  a_op : Otrace.op;
  a_timed : bool;
  a_t0 : int64;
  a_h0 : int;
  a_m0 : int;
  a_counters : Tablet.scan_counters;
  mutable a_scan0 : int64;  (* planning done, scan begins *)
  a_staged : bool Atomic.t;  (* the scan fanned out over the pool *)
  a_worker_us : int Atomic.t;  (* summed worker busy time when staged *)
  a_stall_us : int Atomic.t;
}

let acct_open ?(profile = false) t hist op =
  let timed = profile || Obs.enabled t.obs in
  let t0 = if timed then now t else 0L in
  let h0, m0 = if timed then cache_counts t else (0, 0) in
  { a_hist = hist;
    a_op = op;
    a_timed = timed;
    a_t0 = t0;
    a_h0 = h0;
    a_m0 = m0;
    a_counters = Tablet.fresh_counters ();
    a_scan0 = t0;
    a_staged = Atomic.make false;
    a_worker_us = Atomic.make 0;
    a_stall_us = Atomic.make 0 }

(* Planning is over: tablets selected, readers open, sources staged. *)
let acct_planned t a = if a.a_timed then a.a_scan0 <- now t

let acct_close ?(scanned = 0) ?(returned = 0) ?(tablets = 0) ?(pruned = 0)
    ?(bytes_in = 0) ?(bytes_out = 0) t a =
  let fin = if a.a_timed then now t else 0L in
  let h1, m1 = if a.a_timed then cache_counts t else (0, 0) in
  let r =
    { Lt_obs.Profile.p_plan_us = Int64.sub a.a_scan0 a.a_t0;
      p_scan_us =
        (if Atomic.get a.a_staged then Int64.of_int (Atomic.get a.a_worker_us)
         else Int64.sub fin a.a_scan0);
      p_stall_us = Int64.of_int (Atomic.get a.a_stall_us);
      p_total_us = Int64.max 0L (Int64.sub fin a.a_t0);
      p_rows_scanned = scanned;
      p_rows_returned = returned;
      p_tablets = tablets;
      p_tablets_pruned = pruned;
      p_cache_hits = h1 - a.a_h0;
      p_cache_misses = m1 - a.a_m0;
      p_blocks_footer_answered =
        Atomic.get a.a_counters.Tablet.sc_footer_blocks;
      p_columns_decoded = Atomic.get a.a_counters.Tablet.sc_cols_decoded;
      p_bytes_in = bytes_in;
      p_bytes_out = bytes_out;
      p_shards = [] }
  in
  Stats.note t.stats (Stats.of_op a.a_op r);
  Obs.record_op t.obs ~hist:a.a_hist ~op:a.a_op ~table:t.tname ~t0:a.a_t0 r;
  r

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let seed_of_name name =
  (* Deterministic per-table randomness for merge-delay spreading. *)
  let h = ref 1469598103934665603L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 1099511628211L)
    name;
  !h

(* A tablet joining the table's set, at load or at commit: it becomes
   merge-eligible [merge_delay] from [now]. *)
let disk_tablet ~config ~now meta =
  { meta;
    reader = None;
    refs = 0;
    doomed = false;
    last_cls = Period.classify ~now meta.Descriptor.min_ts;
    eligible_at = Int64.add now config.Config.merge_delay }

let make vfs ~clock ~config ~dir ~name ~desc ~cache ~obs ~pool =
  let open Descriptor in
  let disk = List.map (disk_tablet ~config ~now:(Clock.now clock)) desc.tablets in
  let settled_max_ts =
    List.fold_left (fun acc m -> max acc m.max_ts) Int64.min_int desc.tablets
  in
  {
    vfs;
    clock;
    config;
    dir;
    tname = name;
    schema = desc.schema;
    ttl = desc.ttl;
    next_id = desc.next_id;
    filling = [];
    frozen = [];
    disk;
    doomed_paths = [];
    seq = 0;
    settled_max_ts;
    flush_failures = 0;
    flush_retry_at = 0L;
    durable_seq = 0;
    commit_round_active = false;
    commit_cond = Condition.create ();
    state = Mutex.create ();
    writer_lock = Mutex.create ();
    maint_lock = Mutex.create ();
    stats = Stats.create ();
    cache;
    obs;
    instr = Obs.table_instruments obs ~table:name;
    pool;
    rng = Xorshift.create (seed_of_name name);
    closed = false;
  }

(* Crash hygiene: a crash, a failed flush or a dropped table can leave
   tablet files no descriptor names, and interrupted descriptor
   temporaries. Delete, best effort, every such file of a table's that
   [referenced] does not name. Quarantined tablets ([".tab.quarantine"])
   stay for forensics, and files a table never writes are not its own. *)
let sweep vfs dir ~referenced =
  List.iter
    (fun entry ->
      if
        (Filename.check_suffix entry ".tab" || entry = Descriptor.file_name ^ ".tmp")
        && not (List.mem entry referenced)
      then try Vfs.delete vfs (Filename.concat dir entry) with Vfs.Io_error _ -> ())
    (try Vfs.readdir vfs dir with Vfs.Io_error _ -> [])

let create ?cache ?(obs = Obs.noop) ?pool vfs ~clock ~config ~dir ~name schema
    ~ttl =
  Vfs.mkdir_p vfs dir;
  if Descriptor.exists vfs ~dir then
    invalid_arg (Printf.sprintf "Table.create: %s already holds a table" dir);
  (* Before new tablets take their names; the descriptor's save syncs
     the directory, committing the unlinks with it. *)
  sweep vfs dir ~referenced:[];
  let desc = Descriptor.{ schema; ttl; next_id = 1; tablets = [] } in
  Descriptor.save vfs ~dir desc;
  make vfs ~clock ~config ~dir ~name ~desc ~cache ~obs ~pool

let quarantine_log = Logs.Src.create "lt.quarantine" ~doc:"Tablet quarantine"

let open_ ?cache ?(obs = Obs.noop) ?pool vfs ~clock ~config ~dir ~name =
  let desc = Descriptor.load vfs ~dir in
  sweep vfs dir
    ~referenced:(List.map (fun m -> m.Descriptor.file) desc.Descriptor.tablets);
  (* Validate every referenced tablet; a corrupt or truncated one is set
     aside rather than making the whole table unopenable. A missing file
     is simply dropped — there is nothing left to preserve. *)
  let quarantined = ref 0 in
  let validate m =
    let path = Filename.concat dir m.Descriptor.file in
    match
      let r = Tablet.open_reader vfs ~path ~into:desc.Descriptor.schema in
      Tablet.close r
    with
    | () -> true
    | exception ((Binio.Corrupt _ | Lt_vfs.Vfs.Io_error _) as e) ->
        incr quarantined;
        let reason =
          match e with
          | Binio.Corrupt msg -> msg
          | Lt_vfs.Vfs.Io_error msg -> msg
          | _ -> assert false
        in
        if Vfs.exists vfs path then begin
          (try Vfs.rename vfs ~src:path ~dst:(path ^ ".quarantine")
           with Vfs.Io_error _ -> (
             try Vfs.delete vfs path with Vfs.Io_error _ -> ()));
          (try Vfs.sync_dir vfs dir with Vfs.Io_error _ -> ())
        end;
        Logs.warn ~src:quarantine_log (fun f ->
            f "table %s: quarantined tablet %s (%s)" name m.Descriptor.file
              reason);
        false
  in
  let good = List.filter validate desc.Descriptor.tablets in
  let desc =
    if !quarantined = 0 then desc
    else begin
      let desc = { desc with Descriptor.tablets = good } in
      Descriptor.save vfs ~dir desc;
      desc
    end
  in
  let t = make vfs ~clock ~config ~dir ~name ~desc ~cache ~obs ~pool in
  if !quarantined > 0 then
    Stats.note t.stats { Stats.zero with tablets_quarantined = !quarantined };
  t

(* Must be called with [state] held. *)
let save_descriptor_locked t =
  let tablets = List.map (fun dt -> dt.meta) t.disk in
  let desc =
    Descriptor.{ schema = t.schema; ttl = t.ttl; next_id = t.next_id; tablets }
  in
  Descriptor.save t.vfs ~dir:t.dir desc

(* Must be called with [state] held. *)
let get_reader_locked t dt =
  match dt.reader with
  | Some r -> r
  | None ->
      let r =
        Tablet.open_reader ?cache:t.cache ~obs:t.obs t.vfs
          ~path:(tablet_path t dt.meta.Descriptor.file)
          ~into:t.schema
      in
      dt.reader <- Some r;
      r

(* Must be called with [state] held: closes the reader and queues the
   file for [drain_doomed]. The durable descriptor no longer references
   the tablet, so the unlink can wait until no lock is held. *)
let destroy_tablet_locked t dt =
  (match dt.reader with Some r -> Tablet.close r | None -> ());
  dt.reader <- None;
  t.doomed_paths <- tablet_path t dt.meta.Descriptor.file :: t.doomed_paths

(* Unlink every queued doomed file. Must be called with no table lock
   held: deletion is blocking VFS work. Best-effort — a failed delete
   merely leaks a file that the hygiene sweep at the next [open_]
   reclaims. It must not fail the operation whose commit already
   succeeded. *)
let drain_doomed t =
  let paths =
    Mutexes.with_lock t.state (fun () ->
        let ps = t.doomed_paths in
        t.doomed_paths <- [];
        ps)
  in
  List.iter
    (fun path ->
      try if Vfs.exists t.vfs path then Vfs.delete t.vfs path
      with Vfs.Io_error _ -> ())
    paths

(* Must be called with [state] held. *)
let release_locked t dts =
  List.iter
    (fun dt ->
      dt.refs <- dt.refs - 1;
      if dt.doomed && dt.refs = 0 then destroy_tablet_locked t dt)
    dts

let release t dts =
  Mutexes.with_lock t.state (fun () -> release_locked t dts);
  drain_doomed t

(* The one tablet-set commit behind flushes, merges, expiry and bulk
   delete: swap [removed] for tablets with metas [added] in a single
   descriptor update, keeping [t.disk] in timespan order. Must be called
   with [state] held. The descriptor is saved before anything else
   changes, so a failed save restores [t.disk], queues the new files
   (which nothing durable names) for deletion and re-raises, leaving the
   removed tablets live. On success the removed tablets are doomed and
   those without refs destroyed; a ref holder's [release] destroys the
   rest. *)
let commit_locked t ~removed added =
  let saved_disk = t.disk in
  let kept = List.filter (fun dt -> not (List.memq dt removed)) t.disk in
  t.disk <-
    List.sort
      (fun a b ->
        match Int64.compare a.meta.Descriptor.min_ts b.meta.Descriptor.min_ts with
        | 0 -> Int.compare a.meta.Descriptor.id b.meta.Descriptor.id
        | c -> c)
      (List.map (disk_tablet ~config:t.config ~now:(now t)) added @ kept);
  (match save_descriptor_locked t with
  | () -> ()
  | exception e ->
      t.disk <- saved_disk;
      List.iter
        (fun m -> t.doomed_paths <- tablet_path t m.Descriptor.file :: t.doomed_paths)
        added;
      raise e);
  List.iter
    (fun dt ->
      dt.doomed <- true;
      if dt.refs = 0 then destroy_tablet_locked t dt)
    removed

let close t =
  Mutexes.with_lock t.state (fun () ->
      if not t.closed then begin
        t.closed <- true;
        List.iter
          (fun dt -> match dt.reader with
            | Some r -> Tablet.close r; dt.reader <- None
            | None -> ())
          t.disk
      end)

(* ------------------------------------------------------------------ *)
(* TTL and schema changes                                              *)
(* ------------------------------------------------------------------ *)

let ttl_cutoff_locked t =
  match t.ttl with
  | None -> None
  | Some ttl -> Some (Int64.sub (now t) ttl)

let set_ttl t ttl =
  Mutexes.with_lock t.writer_lock (fun () ->
      Mutexes.with_lock t.state (fun () ->
          t.ttl <- ttl;
          save_descriptor_locked t))

(* Land an encoded row in memtable [mt]; [false] on a duplicate key. *)
let land_in mt ~key ~ts value =
  match Memtable.insert mt ~key ~ts value with
  | `Ok ->
      Memtable.add_bytes mt (String.length key + String.length value);
      true
  | `Duplicate -> false

(* The one memtable rewrite: [mt]'s rows under the same id, period, age
   and insert-sequence span, each mapped by [f] to its new key and value
   bytes or dropped on [None]. Schema changes translate every row; bulk
   delete drops a key range. Caller holds [state]. *)
let rebuild_memtable f mt =
  let fresh =
    Memtable.create ~id:(Memtable.id mt) ~period:(Memtable.period mt)
      ~created_at:(Memtable.created_at mt)
  in
  Btree.fold
    (fun key value () ->
      match f key value with
      | None -> ()
      | Some (key, value) ->
          if not (land_in fresh ~key ~ts:(Key_codec.ts_of_key key) value) then
            assert false)
    (Memtable.snapshot mt) ();
  (* A dropped row's number stays in the span: the survivors keep their
     place in the insert order, and so do rows of other memtables inserted
     between them. *)
  Option.iter
    (fun (first, last) ->
      Memtable.stamp fresh first;
      Memtable.stamp fresh last)
    (Memtable.seq_span mt);
  fresh

let change_schema t f =
  Mutexes.with_lock t.writer_lock (fun () ->
      Mutexes.with_lock t.state (fun () ->
          let from = t.schema in
          let into = f from in
          t.schema <- into;
          (* Decode, translate, encode the value. No evolution changes
             a key column ({!Schema.widen_column} refuses one), so the
             key bytes stay as they are. *)
          let translate key value =
            let row =
              Schema.translate_row ~from ~into (Row_codec.decode from ~key ~value)
            in
            Some (key, Row_codec.encode_value into row)
          in
          t.filling <- List.map (rebuild_memtable translate) t.filling;
          t.frozen <- List.map (rebuild_memtable translate) t.frozen;
          List.iter
            (fun dt ->
              match dt.reader with
              | Some r -> Tablet.set_target_schema r t.schema
              | None -> ())
            t.disk;
          save_descriptor_locked t))

let add_column t col = change_schema t (fun s -> Schema.add_column s col)

let widen_column t cname = change_schema t (fun s -> Schema.widen_column s cname)

(* ------------------------------------------------------------------ *)
(* Flushing                                                            *)
(* ------------------------------------------------------------------ *)

let freeze_locked t mt =
  t.filling <- List.filter (fun m -> Memtable.id m <> Memtable.id mt) t.filling;
  (match Memtable.ts_range mt with
  | Some (_, hi) when hi > t.settled_max_ts -> t.settled_max_ts <- hi
  | _ -> ());
  if not (List.exists (fun m -> Memtable.id m = Memtable.id mt) t.frozen) then
    t.frozen <- t.frozen @ [ mt ]

(* Layout policy: a merge (or layout rewrite) whose newest input row has
   aged past [columnar_age] writes its output column-major; anything
   younger stays row-major, so fresh flushes are never columnar and a
   table mixes layouts freely. [Int64.max_int] disables the rewrite
   entirely. The same predicate drives [Merge_policy.input.stale_layout],
   so a rewrite provably flips its own trigger off. *)
let columnar_output t ~now ~max_ts =
  let age = t.config.Config.columnar_age in
  age <> Int64.max_int && Int64.sub now max_ts >= age

let output_layout t ~max_ts =
  if columnar_output t ~now:(now t) ~max_ts then Block.Col_major
  else Block.Row_major

(* Write tablet [id] from an ascending stream of rows under [schema];
   no descriptor update yet. The one copy loop behind flushes, merges
   and bulk-delete rewrites: {!Tablet.add} decides per row whether its
   stored bytes are copied or it is encoded, and the writer derives its
   Bloom prefixes from the keys. A failure mid-write abandons the
   partial file, so only complete files ever carry a tablet name.
   [None] when the stream was empty. *)
let write_tablet t ~id ~schema ~expected_rows ?layout
    (next : Tablet.row Cursor.stream) =
  let file = Descriptor.tablet_file id in
  let writer =
    Tablet.writer t.vfs ~path:(tablet_path t file) ~schema
      ~block_size:t.config.Config.block_size
      ~bloom_bits_per_key:t.config.Config.bloom_bits_per_key
      ~expected_rows ?layout ()
  in
  let rec copy n =
    match next () with
    | None -> n
    | Some (key, row) ->
        Tablet.add writer ~key ~ts:(Key_codec.ts_of_key key) row;
        copy (n + 1)
  in
  match if copy 0 = 0 then None else Some (Tablet.finish writer) with
  | None ->
      Tablet.abandon writer;
      None
  | Some s ->
      Some
        Descriptor.
          {
            id;
            file;
            min_ts = s.Tablet.min_ts;
            max_ts = s.Tablet.max_ts;
            min_key = s.Tablet.min_key;
            max_key = s.Tablet.max_key;
            row_count = s.Tablet.row_count;
            size = s.Tablet.size;
            columnar = s.Tablet.columnar;
          }
  | exception e ->
      Tablet.abandon writer;
      raise e

(* A frozen memtable's rows, encoded under [schema], as a stream of
   handles: a row is decoded only if it is forced. *)
let mem_stream schema it =
  let handle key value = (key, Tablet.encoded schema ~key value) in
  fun () -> Btree.next it handle

(* Write one (non-empty) memtable out as a tablet file. Writes without
   the state lock, from a snapshot taken under it; a frozen memtable
   takes no more inserts anyway. The stored value bytes go to the
   writer as they are. On failure the memtable is untouched — the
   caller keeps it queued for retry. *)
let write_memtable t mt =
  let schema, rows =
    Mutexes.with_lock t.state (fun () -> (t.schema, Memtable.snapshot mt))
  in
  Option.get
    (write_tablet t ~id:(Memtable.id mt) ~schema
       ~expected_rows:(Btree.length rows)
       (mem_stream schema (Btree.iter_asc rows)))

(* Flush [mt] and its closure ({!Memtable.closure}: every queued
   memtable holding a row inserted before one it must flush with) as one
   atomic descriptor update (§3.4.3). The members' filling ones freeze
   first. Every queued memtable holds rows (bulk delete drops the ones it
   empties, whose place in the insert order the survivors' spans keep).
   Caller holds [writer_lock]. *)
let flush_closure t mt =
  let members =
    Mutexes.with_lock t.state (fun () ->
        let members = Memtable.closure mt (t.filling @ t.frozen) in
        List.iter (freeze_locked t) members;
        members)
  in
  let written =
    List.map
      (fun m ->
        let a = acct_open t t.instr.Obs.h_flush Otrace.Flush in
        (write_memtable t m, a))
      members
  in
  (* Persist before retiring the memtables: if the commit fails, they
     must stay frozen (the rows are acked and nowhere else). *)
  let ids = List.map Memtable.id members in
  Mutexes.with_lock t.state (fun () ->
      commit_locked t ~removed:[] (List.map fst written);
      t.frozen <- List.filter (fun m -> not (List.mem (Memtable.id m) ids)) t.frozen);
  (* A flush is recorded only once its commit is durable, so a failed
     commit leaves no span, histogram sample or count behind. *)
  List.iter
    (fun (meta, a) ->
      ignore
        (acct_close t a ~returned:meta.Descriptor.row_count
           ~bytes_out:meta.Descriptor.size))
    written

(* Retry backoff for background flushes: 100 ms doubling to a 10 s cap. *)
let flush_backoff_base_us = 100_000
let flush_backoff_cap_us = 10_000_000

(* Caller holds [writer_lock]. With [swallow] (the insert and
   maintenance paths), a transient I/O failure is absorbed: the frozen
   memtables stay queued, a retry counter bumps, and further background
   attempts wait out an exponential backoff. Without it (explicit
   flushes, whose callers need durability-or-error), failures propagate
   and the backoff clock is ignored. *)
let flush_frozen_backlog ?(swallow = false) t ~limit =
  let rec go () =
    let next =
      Mutexes.with_lock t.state (fun () ->
          if List.length t.frozen >= limit then
            match t.frozen with [] -> None | m :: _ -> Some m
          else None)
    in
    match next with
    | None -> ()
    | Some _ when swallow && now t < t.flush_retry_at -> ()
    | Some m -> (
        match flush_closure t m with
        | () ->
            t.flush_failures <- 0;
            t.flush_retry_at <- 0L;
            go ()
        | exception Vfs.Io_error _ when swallow ->
            t.flush_failures <- t.flush_failures + 1;
            Stats.note t.stats { Stats.zero with flush_retries = 1 };
            let backoff =
              min flush_backoff_cap_us
                (flush_backoff_base_us * (1 lsl min 10 (t.flush_failures - 1)))
            in
            t.flush_retry_at <- Int64.add (now t) (Int64.of_int backoff))
  in
  go ()

(* Group commit: concurrent explicit-durability callers share one
   flush round — and so one set of fsyncs — instead of queueing N
   identical rounds on [writer_lock]. A caller whose insert batches are
   already covered returns without touching the writer lock; one
   arriving while a round is in flight waits for that round and
   rechecks; otherwise it leads a round itself. A led round freezes
   everything filling and drains the frozen backlog, so it covers every
   batch acked before its freeze point — with any timestamp, which is
   why it also serves the §4.1.2 flush-before-timestamp command. A
   round covers the rows numbered up to [seq] at its freeze point. *)
let rec flush_all t =
  let role =
    Mutexes.with_lock t.state (fun () ->
        let target = t.seq in
        if t.durable_seq >= target then `Covered
        else if t.commit_round_active then begin
          while t.commit_round_active do
            Condition.wait t.commit_cond t.state
          done;
          if t.durable_seq >= target then `Joined else `Retry
        end
        else begin
          t.commit_round_active <- true;
          `Lead
        end)
  in
  let count mode =
    if Obs.enabled t.obs then
      Ometrics.Counter.inc (Obs.group_commit t.obs ~table:t.tname ~mode) 1
  in
  match role with
  | `Covered -> ()
  | `Joined -> count "joined"
  | `Retry -> flush_all t
  | `Lead ->
      count "led";
      Fun.protect
        ~finally:(fun () ->
          Mutexes.with_lock t.state (fun () ->
              t.commit_round_active <- false;
              Condition.broadcast t.commit_cond))
        (fun () ->
          Mutexes.with_lock t.writer_lock (fun () ->
              let covered =
                Mutexes.with_lock t.state (fun () ->
                    List.iter (freeze_locked t) t.filling;
                    t.seq)
              in
              flush_frozen_backlog t ~limit:1;
              Mutexes.with_lock t.state (fun () ->
                  if covered > t.durable_seq then t.durable_seq <- covered)))

(* ------------------------------------------------------------------ *)
(* Inserts                                                             *)
(* ------------------------------------------------------------------ *)

let pp_key schema key =
  match Key_codec.decode_key schema key with
  | vs ->
      String.concat ", " (Array.to_list (Array.map Value.to_string vs))
  | exception _ -> "<undecodable>"

(* Whether a tablet's key span meets the key range [\[lo, hi)]. *)
let key_span_meets ~lo ~hi m =
  String.compare lo m.Descriptor.max_key <= 0
  && match hi with None -> true | Some h -> String.compare h m.Descriptor.min_key > 0

(* The per-row uniqueness probes below are top-level loops, so a row
   allocates nothing to run them. [held_by_any] asks every memtable of
   a list whether it holds [key]; [held_by_other] every one but the
   filling memtable of [bin]. *)
let rec held_by_any ~key ~ts = function
  | [] -> false
  | m :: rest -> Memtable.mem m ~ts key || held_by_any ~key ~ts rest

let rec held_by_other ~bin ~key ~ts = function
  | [] -> false
  | m :: rest ->
      (let p = Memtable.period m in
       (p.Period.start <> bin.Period.start || p.Period.cls <> bin.Period.cls)
       && Memtable.mem m ~ts key)
      || held_by_other ~bin ~key ~ts rest

(* The disk tablets that may hold [key], added to [acc]: its ts and key
   fall inside their bounds, and the Bloom filter of an open reader does
   not rule it out. A filter test reads only the footer the reader holds
   in memory; a tablet whose reader is not open yet stays a candidate,
   and the point read that decides it opens the reader. *)
let rec disk_candidates_locked ~key ~ts acc = function
  | [] -> acc
  | dt :: rest ->
      let m = dt.meta in
      let acc =
        if
          ts >= m.Descriptor.min_ts && ts <= m.Descriptor.max_ts
          && String.compare key m.Descriptor.min_key >= 0
          && String.compare key m.Descriptor.max_key <= 0
          &&
          match dt.reader with
          | Some r -> Tablet.may_contain_prefix r key
          | None -> true
        then dt :: acc
        else acc
      in
      disk_candidates_locked ~key ~ts acc rest

(* Uniqueness verdict (§3.4.4) that can be reached without touching
   disk, under [t.state]. The filling memtable of [bin] — the one the
   row is about to land in — is skipped because [Memtable.insert]
   detects its own duplicates, so checking it here would traverse the
   tree twice; the other filling memtables are asked (their ts span
   rules most of them out). A ts above [settled_max_ts] cannot be held
   by a frozen memtable or a disk tablet, so a poll cycle's rows, which
   share one ts, skip those probes even after the cycle's first row.
   [`Check cands] means only a point read can decide; the candidates'
   refcounts are bumped so the caller can read them with the lock
   released. Caller holds [writer_lock], so no new rows can appear
   concurrently. *)
let classify_unique_locked t ~key ~ts ~bin =
  if held_by_other ~bin ~key ~ts t.filling then `Duplicate
  else if ts > t.settled_max_ts then `Unique
  else if held_by_any ~key ~ts t.frozen then `Duplicate
  else begin
    match disk_candidates_locked ~key ~ts [] t.disk with
    | [] -> `Unique
    | cands ->
        List.iter (fun dt -> dt.refs <- dt.refs + 1) cands;
        `Check cands
  end

(* The filling memtable of period [bin], created on first use. Caller
   holds [t.state]. *)
let memtable_for_locked t ~now:n bin =
  match List.find_opt (fun m -> Memtable.period m = bin) t.filling with
  | Some m -> m
  | None ->
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      let m = Memtable.create ~id ~period:bin ~created_at:n in
      t.filling <- m :: t.filling;
      m

(* Land one encoded row in [mt]. Caller holds [t.state]. Returns
   [true] when the insert pushed [mt] over the flush threshold and it
   was frozen out of [t.filling]. *)
let insert_into_locked t mt ~key ~ts value =
  if not (land_in mt ~key ~ts value) then
    raise (Duplicate_key (pp_key t.schema key));
  t.seq <- t.seq + 1;
  Memtable.stamp mt t.seq;
  if Memtable.byte_size mt >= t.config.Config.flush_size then begin
    freeze_locked t mt;
    true
  end
  else false

(* The one landing loop behind both kinds of insert. [next ()] is the
   next row's encoded key and value bytes, or [None] at the end of the
   batch; it raises on a row that does not fit the schema, after every
   row before it has landed. Runs of rows share one [t.state]
   acquisition (capped at [max_run] so concurrent readers interleave
   with a large batch), so a B-row batch costs O(B / max_run) lock
   round trips instead of two per row. A row whose uniqueness needs a
   disk point read (rare: its ts and key fall inside a flushed tablet's
   bounds and its Bloom filter) ends the run and reads with the lock
   released; a row the read clears heads the next run and lands there.
   Caller holds [writer_lock], so no row can appear in between and the
   schema cannot change. *)
let land_rows_locked t next ~landed =
  let max_run = 512 in
  (* The row being landed. A row that waits for a disk read stays here
     and, once the read clears it ([cleared]), heads the next run. *)
  let key = ref "" and value = ref "" in
  let cleared = ref false in
  let pull () =
    match next () with
    | Some (k, v) ->
        key := k;
        value := v;
        true
    | None -> false
  in
  let more = ref true in
  while !more do
    let deferred =
      Mutexes.with_lock t.state (fun () ->
          let n = now t in
          let run = ref 0 in
          let defer = ref None in
          (* Memtable cache: with [n] fixed for the chunk, every ts
             inside the cached bin's half-open window provably maps to
             the same filling memtable, so consecutive rows of one
             period skip the bin computation and the filling scan.
             Invalidated when the target freezes out of [t.filling]. *)
          let cache = ref None in
          while
            Option.is_none !defer && !run < max_run
            && (!cleared || (more := pull (); !more))
          do
            let key = !key and value = !value in
            let ts = Key_codec.ts_of_key key in
            let hit =
              match !cache with
              | Some (b0, b1, _) -> ts >= b0 && ts < b1
              | None -> false
            in
            let bin =
              match !cache with
              | Some (_, _, mt) when hit -> Memtable.period mt
              | _ -> Period.bin ~now:n ts
            in
            let verdict =
              if !cleared then begin
                cleared := false;
                `Unique
              end
              else if t.config.Config.enforce_unique then
                classify_unique_locked t ~key ~ts ~bin
              else `Unique
            in
            (match verdict with
            | `Duplicate -> raise (Duplicate_key (pp_key t.schema key))
            | `Check cands -> defer := Some cands
            | `Unique ->
                let mt =
                  match !cache with
                  | Some (_, _, mt) when hit -> mt
                  | _ ->
                      let mt = memtable_for_locked t ~now:n bin in
                      cache := Some (bin.Period.start, Period.stop bin, mt);
                      mt
                in
                if insert_into_locked t mt ~key ~ts value then cache := None;
                incr landed);
            incr run
          done;
          !defer)
    in
    match deferred with
    | None -> ()
    | Some cands ->
        let key = !key in
        let dup =
          Fun.protect
            ~finally:(fun () ->
              (* [writer_lock] is held on this path: release without
                 draining; the next lock-free [drain_doomed] (any query
                 release or maintenance pass) unlinks the files. *)
              Mutexes.with_lock t.state (fun () -> release_locked t cands))
            (fun () ->
              List.exists
                (fun dt ->
                  let r =
                    Mutexes.with_lock t.state (fun () -> get_reader_locked t dt)
                  in
                  Tablet.mem r key)
                cands)
        in
        if dup then raise (Duplicate_key (pp_key t.schema key));
        cleared := true
  done

(* The one insert entry point: lands the rows [rows schema] pulls (see
   [land_rows_locked]), with [schema] the table's schema under the
   writer lock, and reports whatever ended the batch early (a
   duplicate, an invalid row) as data instead of an exception:
   [Error (landed, e)] says exactly how many leading rows committed
   before it (they stay inserted — §3.4.4 checks row by row), so a
   caller can retry only the remainder instead of double-sending. The
   landed rows are counted and covered by the next flush round like
   any other batch. *)
let insert_encoded t rows =
  let a = acct_open t t.instr.Obs.h_insert Otrace.Insert in
  let landed = ref 0 in
  let result =
    Mutexes.with_lock t.writer_lock (fun () ->
        let res =
          match land_rows_locked t (rows t.schema) ~landed with
          | () -> Ok ()
          | exception e -> Error (!landed, e)
        in
        flush_frozen_backlog ~swallow:true t ~limit:t.config.Config.flush_backlog;
        res)
  in
  ignore (acct_close t a ~returned:!landed);
  result

(* Each row is checked against the schema and encoded once, as the
   landing loop pulls it. *)
let insert_report t rows =
  insert_encoded t (fun schema ->
      let pending = ref rows in
      let kb = Buffer.create 64 and vb = Buffer.create 128 in
      fun () ->
        match !pending with
        | [] -> None
        | row :: rest ->
            Schema.validate_row schema row;
            Buffer.clear kb;
            Buffer.clear vb;
            Key_codec.encode_key_into kb schema row;
            Row_codec.encode_value_into vb schema row;
            pending := rest;
            Some (Buffer.contents kb, Buffer.contents vb))

let insert t rows =
  match insert_report t rows with
  | Ok () -> ()
  | Error (_, e) -> raise e

let insert_row t row = insert t [ row ]

(* No frozen memtable or disk tablet holds a ts above [settled_max_ts],
   so only the filling memtables can raise it. *)
let max_ts t =
  Mutexes.with_lock t.state (fun () ->
      let hi =
        List.fold_left
          (fun acc m ->
            match Memtable.ts_range m with Some (_, h) -> max acc h | None -> acc)
          t.settled_max_ts t.filling
      in
      if hi = Int64.min_int then None else Some hi)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* A memtable as one read sees it: a frozen snapshot of its rows, the
   schema their bytes are encoded under and their timestamp span, taken
   under [state]. *)
type mem_view = {
  mv_id : int;
  mv_rows : string Btree.t;
  mv_schema : Schema.t;
  mv_lo : int64;
  mv_hi : int64;
}

(* A read's key × timestamp box and the sources that may hold its rows. *)
type selection = {
  lo : string;
  hi : string option;
  mems : mem_view list;
  disk : disk_tablet list;  (** ref'd: the read's close releases them *)
  eff_ts_min : int64 option;  (** [ts_min] raised to the TTL cutoff *)
  ts_max : int64 option;
  considered : int;  (** disk tablets before pruning *)
}

let no_selection =
  { lo = ""; hi = None; mems = []; disk = []; eff_ts_min = None;
    ts_max = None; considered = 0 }

(* The one tablet selection behind every read, in a single [state]
   acquisition: raise [ts_min] to the TTL cutoff, keep the memtables
   whose ts span overlaps the bounds and the disk tablets whose ts span
   and key span (against [\[lo, hi)]) both do, and take refs on those
   disk tablets. Opens no readers. Memtables are kept by ts span alone:
   [query_agg] treats each one as a possible shadow of the disk tablets
   it folds from footers. *)
let select t ~lo ~hi ~ts_min ~ts_max =
  Mutexes.with_lock t.state (fun () ->
      let eff_ts_min =
        match (ts_min, ttl_cutoff_locked t) with
        | None, c -> c
        | (Some _ as m), None -> m
        | Some m, Some c -> Some (max m c)
      in
      let ts_overlaps ~lo:a ~hi:b =
        (match eff_ts_min with None -> true | Some bound -> b >= bound)
        && match ts_max with None -> true | Some bound -> a <= bound
      in
      let mems =
        List.filter_map
          (fun m ->
            match Memtable.ts_range m with
            | Some (a, b) when ts_overlaps ~lo:a ~hi:b ->
                Some
                  { mv_id = Memtable.id m;
                    mv_rows = Memtable.snapshot m;
                    mv_schema = t.schema;
                    mv_lo = a;
                    mv_hi = b }
            | _ -> None)
          (t.filling @ t.frozen)
      in
      let disk =
        List.filter
          (fun dt ->
            let m = dt.meta in
            ts_overlaps ~lo:m.Descriptor.min_ts ~hi:m.Descriptor.max_ts
            && key_span_meets ~lo ~hi m)
          t.disk
      in
      List.iter (fun dt -> dt.refs <- dt.refs + 1) disk;
      { lo; hi; mems; disk; eff_ts_min; ts_max; considered = List.length t.disk })

(* The selection of [q]'s bounding box; empty when its key range is. *)
let select_query t (q : Query.t) =
  match Query.compile t.schema q with
  | None -> no_selection
  | Some { Query.lo; hi } ->
      select t ~lo ~hi ~ts_min:q.Query.ts_min ~ts_max:q.Query.ts_max

(* One read in flight: its accounting record, the selection it holds
   refs on, the rows its sources scanned, and the finish functions of
   the sources it staged on the pool. *)
type read = {
  acct : acct;
  sel : selection;
  scanned : int ref;
  mutable joins : (unit -> unit) list;
  mutable closed : Lt_obs.Profile.t option;
}

let read_of acct sel = { acct; sel; scanned = ref 0; joins = []; closed = None }

(* The one close of a read, however it ends: join the producers staged
   for it (so no worker still reads, and worker busy totals are final),
   drop the selection's tablet refs, and close the record. Later calls
   return the first close's profile. *)
let close_read t rd ~returned =
  match rd.closed with
  | Some r -> r
  | None ->
      List.iter (fun join -> join ()) rd.joins;
      release t rd.sel.disk;
      let tablets = List.length rd.sel.disk in
      let r =
        acct_close t rd.acct ~scanned:!(rd.scanned) ~returned ~tablets
          ~pruned:(rd.sel.considered - tablets)
      in
      rd.closed <- Some r;
      r

(* [f ()] within read [rd]: if it raises, [rd] is closed, with no rows
   returned, before the exception goes on. *)
let or_close t rd f =
  match f () with
  | v -> v
  | exception e ->
      ignore (close_read t rd ~returned:0);
      raise e

(* The selection's disk tablets with their readers; planning ends here. *)
let open_readers t rd =
  let readers =
    Mutexes.with_lock t.state (fun () ->
        List.map (fun dt -> (dt, get_reader_locked t dt)) rd.sel.disk)
  in
  acct_planned t rd.acct;
  readers

let mem_source ~asc ~lo ?hi mv =
  let it =
    if asc then Btree.iter_asc ~lo ?hi mv.mv_rows
    else Btree.iter_desc ~lo ?hi mv.mv_rows
  in
  (mv.mv_id, mem_stream mv.mv_schema it)

(* Fan the scan's sources out over the worker pool when it can help: a
   pool is configured, the scan touches disk, and there is more than one
   source. Each source gets a single self-rescheduling producer task at
   a time, so the memtable AVL snapshots (frozen) and per-source
   tablet iterators (never shared between tasks) need no extra locking.
   The returned finish function must run before the caller releases its
   tablet references; {!Pscan.stage} guarantees no producer task is
   still reading after it returns. *)
let maybe_stage t a ~has_disk sources =
  match t.pool with
  | Some pool when has_disk && List.length sources > 1 ->
      let obs_on = Obs.enabled t.obs in
      if obs_on then
        Ometrics.Histogram.observe t.instr.Obs.h_fanout
          (float_of_int (List.length sources));
      Atomic.set a.a_staged true;
      let timed = a.a_timed in
      let worker_us = a.a_worker_us and stall_us = a.a_stall_us in
      let now_us () = if timed then Clock.now t.clock else 0L in
      let on_worker busy_us =
        if obs_on then
          Ometrics.Histogram.observe_us t.instr.Obs.h_worker_scan busy_us;
        if timed then
          ignore (Atomic.fetch_and_add worker_us (Int64.to_int busy_us))
      in
      let on_stall dur =
        if obs_on && Int64.compare dur 0L > 0 then
          Obs.record_op t.obs ~hist:t.instr.Obs.h_stall ~op:Otrace.Stall
            ~table:t.tname
            ~t0:(Int64.sub (Clock.now t.clock) dur)
            { Lt_obs.Profile.empty with p_total_us = dur };
        if timed then ignore (Atomic.fetch_and_add stall_us (Int64.to_int dur))
      in
      Pscan.stage pool ~now_us ~on_worker ~on_stall sources
  | _ -> (sources, fun () -> ())

(* The one source builder behind every read: memtable views [mems] and
   opened disk tablets [disk] of [rd]'s selection become one stream,
   merged in key order ([asc] or descending) over the selection's key
   range, without the rows outside its ts bounds; every row the filter
   sees counts as scanned on [rd]. Disk tablets stream through
   {!Tablet.iter} with the record's counters, so every column a read
   decompresses is counted. With [stage], the sources may fan out over
   the pool, and the read's close joins their producers. *)
let read_sources t rd ~asc ?projection ~stage mems disk =
  let { lo; hi; eff_ts_min; ts_max; _ } = rd.sel in
  let sources =
    List.map (mem_source ~asc ~lo ?hi) mems
    @ List.map
        (fun (dt, r) ->
          ( dt.meta.Descriptor.id,
            Tablet.iter r ~asc ~lo ?hi ?projection
              ~counters:rd.acct.a_counters () ))
        disk
  in
  let sources =
    if not stage then sources
    else begin
      let staged, join = maybe_stage t rd.acct ~has_disk:(disk <> []) sources in
      rd.joins <- join :: rd.joins;
      staged
    end
  in
  Cursor.filter_ts ~scanned:rd.scanned ?ts_min:eff_ts_min ?ts_max
    (Cursor.merge ~asc sources)

(* Open a range scan over [q] under record [a]: the read, and the
   merged, ts-filtered cursor over its selection. If opening raises (the
   merge reads each source's first block), the read is closed before
   the exception goes on. *)
let open_scan t a (q : Query.t) =
  (* A negative limit would never reach the row cap. *)
  (match q.Query.limit with
  | Some n when n < 0 -> invalid_arg (Printf.sprintf "negative query limit %d" n)
  | _ -> ());
  let rd = read_of a (select_query t q) in
  let src =
    or_close t rd (fun () ->
        read_sources t rd ~asc:(q.Query.direction = Query.Asc)
          ?projection:q.Query.projection ~stage:true rd.sel.mems
          (open_readers t rd))
  in
  (rd, src)

(* A streaming scan and the one way to end it. [close] (idempotent)
   closes the read with the rows pulled so far; draining the source, or
   a read that raises, calls it. *)
let stream t q =
  let a = acct_open t t.instr.Obs.h_query Otrace.Query in
  let rd, src = open_scan t a q in
  let src =
    match q.Query.limit with None -> src | Some n -> Cursor.take n src
  in
  let returned = ref 0 in
  let close () = ignore (close_read t rd ~returned:!returned) in
  let next () =
    if Option.is_some rd.closed then None
    else
      match
        match src () with
        | Some (key, h) -> Some (key, Tablet.force h)
        | None -> None
      with
      | Some _ as item ->
          incr returned;
          item
      | None ->
          close ();
          None
      | exception e ->
          close ();
          raise e
  in
  (next, close)

let query_iter t q = fst (stream t q)

let with_query t q f =
  let next, close = stream t q in
  Fun.protect ~finally:close (fun () -> f next)

type result = {
  rows : Value.t array list;
  more_available : bool;
  scanned : int;
  profile : Lt_obs.Profile.t option;
}

let query ?(profile = false) t (q : Query.t) =
  let a = acct_open ~profile t t.instr.Obs.h_query Otrace.Query in
  let rd, src = open_scan t a q in
  let rows, more_available =
    or_close t rd (fun () ->
        Cursor.cap ~limit:q.Query.limit
          ~row_limit:t.config.Config.server_row_limit
          (fun (_, h) -> Tablet.force h)
          src)
  in
  let r = close_read t rd ~returned:(List.length rows) in
  { rows; more_available; scanned = r.Lt_obs.Profile.p_rows_scanned;
    profile = (if profile then Some r else None) }

(* ------------------------------------------------------------------ *)
(* Aggregate pushdown                                                  *)
(* ------------------------------------------------------------------ *)

(* [query_agg t q ~specs] evaluates one aggregate row over every row
   matching [q]'s bounds. A selected disk tablet whose key span is
   disjoint from every other selected source's span can never have a
   row shadowed by the merge cursor's dedup, so it is folded directly
   with {!Tablet.fold_aggs} — columnar blocks wholly inside the bounds
   are answered from footer stats without being read. Overlapping
   sources (and memtables) run through the ordinary merged cursor into
   the same accumulators. Always sequential — never staged on the
   worker pool — so results are identical at any [query_domains]. *)
let query_agg ?(profile = false) t (q : Query.t) ~specs =
  let a = acct_open ~profile t t.instr.Obs.h_query Otrace.Query in
  let accs = Array.map (fun _ -> Agg.fresh_acc ()) specs in
  let needed =
    Array.to_list specs
    |> List.filter_map (fun s -> s.Agg.a_col)
    |> List.sort_uniq Int.compare
  in
  let rd = read_of a (select_query t q) in
  or_close t rd (fun () ->
      let sel = rd.sel in
      let disk = open_readers t rd in
      let span (dt, _) = (dt.meta.Descriptor.min_key, dt.meta.Descriptor.max_key) in
      let mem_spans =
        List.filter_map
          (fun mv ->
            match (Btree.min_key mv.mv_rows, Btree.max_key mv.mv_rows) with
            | Some k0, Some k1 -> Some (k0, k1)
            | _ -> None)
          sel.mems
      in
      let disjoint (a_lo, a_hi) (b_lo, b_hi) =
        String.compare a_hi b_lo < 0 || String.compare b_hi a_lo < 0
      in
      let pushable d =
        let s = span d in
        List.for_all (disjoint s) mem_spans
        && List.for_all (fun d' -> d' == d || disjoint s (span d')) disk
      in
      let folded, residue = List.partition pushable disk in
      let ts_min = Option.value sel.eff_ts_min ~default:Int64.min_int in
      let ts_max = Option.value sel.ts_max ~default:Int64.max_int in
      (* Newest tablet first, then the residue: a float sum depends on
         the order its rows are fed in. *)
      List.iter
        (fun (_, r) ->
          Tablet.fold_aggs r ~counters:a.a_counters ~lo:(Some sel.lo)
            ~hi:sel.hi ~ts_min ~ts_max ~specs ~accs ())
        (List.rev folded);
      Cursor.fold
        (fun () (_, h) -> Agg.feed_row specs accs (Tablet.force h))
        ()
        (read_sources t rd ~asc:true ~projection:needed ~stage:false sel.mems
           residue));
  let r = close_read t rd ~returned:1 in
  ( Array.mapi (fun i s -> Agg.result s.Agg.a_fn accs.(i)) specs,
    if profile then Some r else None )

(* ------------------------------------------------------------------ *)
(* Latest row for a key prefix (§3.4.5)                                *)
(* ------------------------------------------------------------------ *)

type span_item =
  | In_mem of mem_view
  | On_disk of disk_tablet

let item_span = function
  | In_mem mv -> (mv.mv_lo, mv.mv_hi)
  | On_disk dt -> (dt.meta.Descriptor.min_ts, dt.meta.Descriptor.max_ts)

(* The selection's key bounds are the prefix's range, so tablets whose
   key span cannot hold the prefix are never ref'd; readers open only
   for the groups actually searched. *)
let latest t prefix_values =
  let a = acct_open t t.instr.Obs.h_latest Otrace.Latest in
  let prefix = Key_codec.encode_prefix t.schema prefix_values in
  let full_prefix =
    List.length prefix_values = Array.length (Schema.pkey t.schema) - 1
  in
  let rd =
    read_of a
      (select t ~lo:prefix ~hi:(Key_codec.prefix_succ prefix) ~ts_min:None
         ~ts_max:None)
  in
  let result =
    or_close t rd (fun () ->
        let items =
          List.sort
            (fun x y -> Int64.compare (fst (item_span x)) (fst (item_span y)))
            (List.map (fun mv -> In_mem mv) rd.sel.mems
            @ List.map (fun dt -> On_disk dt) rd.sel.disk)
        in
        (* Group items whose timespans overlap; within a group timespans
           cannot be ordered, so the group is searched as one unit. *)
        let groups =
          List.fold_left
            (fun groups item ->
              let lo, hi = item_span item in
              match groups with
              | (ghi, members) :: rest when lo <= ghi ->
                  (max ghi hi, item :: members) :: rest
              | _ -> (hi, [ item ]) :: groups)
            [] items
        in
        (* [groups] is now newest-first. *)
        let search_group members =
          let mems =
            List.filter_map
              (function In_mem mv -> Some mv | On_disk _ -> None)
              members
          in
          let disk =
            List.filter_map
              (function
                | In_mem _ -> None
                | On_disk dt ->
                    let r =
                      Mutexes.with_lock t.state (fun () -> get_reader_locked t dt)
                    in
                    if Tablet.may_contain_prefix r prefix then Some (dt, r)
                    else None)
              members
          in
          (* A full-prefix hit on the first row leaves the rest of the
             group's workers to the read's close, which cancels them. *)
          let src = read_sources t rd ~asc:false ~stage:true mems disk in
          if full_prefix then
            (* Keys sharing all non-ts columns differ only in ts, and ts
               is the last key column, so descending key order is
               descending ts order: the first hit is the latest. *)
            Option.map (fun (_, h) -> Tablet.force h) (src ())
          else begin
            let best = ref None in
            let rec go () =
              match src () with
              | None -> ()
              | Some (key, h) ->
                  let ts = Key_codec.ts_of_key key in
                  (match !best with
                  | Some (bts, _) when bts >= ts -> ()
                  | _ -> best := Some (ts, h));
                  go ()
            in
            go ();
            Option.map (fun (_, h) -> Tablet.force h) !best
          end
        in
        List.fold_left
          (fun found (_, members) ->
            match found with None -> search_group members | Some _ -> found)
          None groups)
  in
  ignore
    (close_read t rd ~returned:(match result with None -> 0 | Some _ -> 1));
  result

(* ------------------------------------------------------------------ *)
(* Merging (§3.4.1, §3.4.2)                                            *)
(* ------------------------------------------------------------------ *)

(* Advance rollover bookkeeping and pick a merge candidate. Must be
   called with [state] held. *)
let merge_plan_locked t =
  let n = now t in
  List.iter
    (fun dt ->
      let cls = Period.classify ~now:n dt.meta.Descriptor.min_ts in
      if cls <> dt.last_cls then begin
        dt.last_cls <- cls;
        if t.config.Config.rollover_spread > 0.0 then begin
          let spread =
            Xorshift.float t.rng *. t.config.Config.rollover_spread
            *. Int64.to_float (Period.class_length cls)
          in
          let until = Int64.add n (Int64.of_float spread) in
          if until > dt.eligible_at then dt.eligible_at <- until
        end
      end)
    t.disk;
  let inputs =
    List.map
      (fun dt ->
        Merge_policy.
          {
            id = dt.meta.Descriptor.id;
            size = dt.meta.Descriptor.size;
            min_ts = dt.meta.Descriptor.min_ts;
            max_ts = dt.meta.Descriptor.max_ts;
            eligible_at = dt.eligible_at;
            stale_layout =
              (not dt.meta.Descriptor.columnar)
              && columnar_output t ~now:n ~max_ts:dt.meta.Descriptor.max_ts;
          })
      t.disk
  in
  Merge_policy.plan ~now:n ~max_tablet_size:t.config.Config.max_tablet_size
    inputs

let merge_step_unlocked t =
  let plan =
    Mutexes.with_lock t.state (fun () ->
        match merge_plan_locked t with
        | None -> None
        | Some plan ->
            let sources =
              List.filter_map
                (fun id ->
                  List.find_opt (fun dt -> dt.meta.Descriptor.id = id) t.disk)
                plan.Merge_policy.ids
            in
            List.iter (fun dt -> dt.refs <- dt.refs + 1) sources;
            (* The streams translate rows to the readers' target schema
               as of now — [t.schema], read under the same lock. *)
            let streams =
              List.map
                (fun dt ->
                  ( dt.meta.Descriptor.id,
                    Tablet.iter (get_reader_locked t dt) ~asc:true () ))
                sources
            in
            let new_id = t.next_id in
            t.next_id <- t.next_id + 1;
            Some (sources, streams, t.schema, new_id, ttl_cutoff_locked t))
  in
  match plan with
  | None -> false
  | Some (sources, streams, schema, new_id, cutoff) ->
      let a = acct_open t t.instr.Obs.h_merge Otrace.Merge in
      Fun.protect
        ~finally:(fun () -> release t sources)
        (fun () ->
          let scanned = ref 0 in
          let src =
            Cursor.filter_ts ~scanned ?ts_min:cutoff
              (Cursor.merge ~asc:true streams)
          in
          let sum f = List.fold_left (fun acc dt -> f acc dt.meta) in
          let expected_rows =
            sum (fun a m -> a + m.Descriptor.row_count) 0 sources
          in
          let max_ts =
            sum (fun a m -> max a m.Descriptor.max_ts) Int64.min_int sources
          in
          (* On a write failure the sources are untouched, so the merge
             simply retries later. [None]: everything had expired. *)
          let new_meta =
            write_tablet t ~id:new_id ~schema ~expected_rows
              ~layout:(output_layout t ~max_ts) src
          in
          let rows_out, bytes_out =
            match new_meta with
            | None -> (0, 0)
            | Some m -> (m.Descriptor.row_count, m.Descriptor.size)
          in
          (* The commit dooms the sources only once the new descriptor
             is durable: a failed save leaves them live, so the release
             above cannot delete files the descriptor still names. *)
          Mutexes.with_lock t.state (fun () ->
              commit_locked t ~removed:sources (Option.to_list new_meta));
          ignore
            (acct_close t a ~scanned:!scanned ~returned:rows_out
               ~tablets:(List.length sources)
               ~bytes_in:(sum (fun a m -> a + m.Descriptor.size) 0 sources)
               ~bytes_out);
          true)

let merge_step t =
  Fun.protect
    ~finally:(fun () -> drain_doomed t)
    (fun () -> Mutexes.with_lock t.maint_lock (fun () -> merge_step_unlocked t))

(* ------------------------------------------------------------------ *)
(* Expiry (§3.3)                                                       *)
(* ------------------------------------------------------------------ *)

let expire_unlocked t =
  Mutexes.with_lock t.state (fun () ->
      match ttl_cutoff_locked t with
      | None -> 0
      | Some cutoff ->
          let expired =
            List.filter (fun dt -> dt.meta.Descriptor.max_ts < cutoff) t.disk
          in
          if expired <> [] then begin
            commit_locked t ~removed:expired [];
            Stats.note t.stats
              { Stats.zero with tablets_expired = List.length expired }
          end;
          List.length expired)

let expire t =
  Fun.protect
    ~finally:(fun () -> drain_doomed t)
    (fun () -> Mutexes.with_lock t.maint_lock (fun () -> expire_unlocked t))

(* ------------------------------------------------------------------ *)
(* Bulk delete (§7's planned privacy-compliance feature)               *)
(* ------------------------------------------------------------------ *)

let delete_prefix t prefix_values =
  let lo = Key_codec.encode_prefix t.schema prefix_values in
  let hi_opt = Key_codec.prefix_succ lo in
  let in_range key =
    String.compare key lo >= 0
    && match hi_opt with None -> true | Some hi -> String.compare key hi < 0
  in
  Fun.protect ~finally:(fun () -> drain_doomed t) @@ fun () ->
  Mutexes.with_lock t.writer_lock (fun () ->
      Mutexes.with_lock t.maint_lock (fun () ->
          let deleted = ref 0 in
          let drop key value =
            if in_range key then begin
              incr deleted;
              None
            end
            else Some (key, value)
          in
          let victims =
            Mutexes.with_lock t.state (fun () ->
                (* Memtables: rebuild without the range. Emptied ones
                   leave the queues; the survivors' spans keep the
                   insert order later closures obey. *)
                let rebuild mts =
                  List.filter
                    (fun m -> Memtable.row_count m > 0)
                    (List.map (rebuild_memtable drop) mts)
                in
                t.filling <- rebuild t.filling;
                t.frozen <- rebuild t.frozen;
                (* Disk tablets overlapping the range, ref'd until the
                   commit is over. *)
                let vs =
                  List.filter (fun dt -> key_span_meets ~lo ~hi:hi_opt dt.meta) t.disk
                in
                List.iter (fun dt -> dt.refs <- dt.refs + 1) vs;
                vs)
          in
          (* A failed rewrite or commit leaves the victims live; files of
             replacements written so far die unreferenced and are swept
             at the next open. *)
          Fun.protect
            ~finally:(fun () ->
              Mutexes.with_lock t.state (fun () -> release_locked t victims))
          @@ fun () ->
          let replacements =
            List.filter_map
              (fun dt ->
                let m = dt.meta in
                if in_range m.Descriptor.min_key && in_range m.Descriptor.max_key
                then begin
                  deleted := !deleted + m.Descriptor.row_count;
                  None
                end
                else begin
                  (* Straddling tablet: rewrite it without the range. *)
                  let it, schema, new_id =
                    Mutexes.with_lock t.state (fun () ->
                        let it =
                          Tablet.iter (get_reader_locked t dt) ~asc:true ()
                        in
                        let id = t.next_id in
                        t.next_id <- t.next_id + 1;
                        (it, t.schema, id))
                  in
                  let rec kept () =
                    match it () with
                    | Some (key, _) when in_range key ->
                        incr deleted;
                        kept ()
                    | item -> item
                  in
                  write_tablet t ~id:new_id ~schema
                    ~expected_rows:m.Descriptor.row_count
                    ~layout:(output_layout t ~max_ts:m.Descriptor.max_ts)
                    kept
                end)
              victims
          in
          Mutexes.with_lock t.state (fun () ->
              commit_locked t ~removed:victims replacements);
          !deleted))

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let maintenance t =
  Mutexes.with_lock t.writer_lock (fun () ->
      let n = now t in
      Mutexes.with_lock t.state (fun () ->
          List.iter
            (fun m ->
              if Int64.sub n (Memtable.created_at m) >= t.config.Config.flush_age
              then freeze_locked t m)
            t.filling);
      flush_frozen_backlog ~swallow:true t ~limit:1);
  Mutexes.with_lock t.maint_lock (fun () ->
      while merge_step_unlocked t do
        ()
      done;
      ignore (expire_unlocked t));
  drain_doomed t

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let tablet_count t = Mutexes.with_lock t.state (fun () -> List.length t.disk)

let memtable_count t =
  Mutexes.with_lock t.state (fun () -> List.length t.filling + List.length t.frozen)

let tablets t = Mutexes.with_lock t.state (fun () -> List.map (fun dt -> dt.meta) t.disk)

let disk_size t =
  Mutexes.with_lock t.state (fun () ->
      List.fold_left (fun acc dt -> acc + dt.meta.Descriptor.size) 0 t.disk)
