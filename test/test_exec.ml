(* Unit tests for the lib/exec worker pool and staged parallel scan,
   plus a sequential-vs-parallel byte-equality sweep over every query
   shape at the Table level. *)

open Littletable
module Pool = Lt_exec.Pool
module Pscan = Lt_exec.Pscan

exception Boom of int

(* ---- Pool ------------------------------------------------------------ *)

let with_pool ~domains f =
  let pool = Pool.create ~domains in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Run [tasks] on the pool and wait for every result, in list order. *)
let run_all pool tasks =
  let m = Mutex.create () and c = Condition.create () in
  let results = Array.make (List.length tasks) None in
  let left = ref (List.length tasks) in
  List.iteri
    (fun i f ->
      Pool.submit_task pool (fun () ->
          let r = f () in
          Lt_util.Mutexes.with_lock m (fun () ->
              results.(i) <- Some r;
              decr left;
              if !left = 0 then Condition.signal c)))
    tasks;
  Lt_util.Mutexes.with_lock m (fun () ->
      while !left > 0 do Condition.wait c m done);
  Array.to_list (Array.map Option.get results)

let test_pool_fifo () =
  let pool = Pool.create ~domains:1 in
  let order = ref [] in
  for i = 1 to 200 do
    Pool.submit_task pool (fun () -> order := i :: !order)
  done;
  (* Shutdown drains the queue and joins the one worker. *)
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "one worker runs tasks in submission order" (List.init 200 succ)
    (List.rev !order)

let test_pool_raising_task () =
  let pool = Pool.create ~domains:1 in
  let ran = Atomic.make false in
  Pool.submit_task pool (fun () -> raise (Boom 7));
  Pool.submit_task pool (fun () -> Atomic.set ran true);
  (* A worker killed by the first task would leave the second queued,
     and joining it would re-raise [Boom]. *)
  Pool.shutdown pool;
  Support.check_bool "the task after a raising one ran" true (Atomic.get ran)

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  let counter = Atomic.make 0 in
  for _ = 1 to 100 do
    Pool.submit_task pool (fun () -> Atomic.incr counter)
  done;
  Pool.shutdown pool;
  (* Shutdown drains the queue before joining the workers. *)
  Support.check_int "queued tasks drained by shutdown" 100 (Atomic.get counter);
  Pool.shutdown pool (* idempotent *);
  match Pool.submit_task pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_pool_reuse () =
  with_pool ~domains:2 (fun pool ->
      (* Many sequential batches through the same pool: the workers are
         long-lived, not per-batch. *)
      for round = 1 to 20 do
        let got = run_all pool (List.map (fun x () -> x + round) [ 1; 2; 3; 4 ]) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          [ 1 + round; 2 + round; 3 + round; 4 + round ]
          got
      done)

let test_pool_shared () =
  let a = Pool.shared ~domains:2 in
  let b = Pool.shared ~domains:2 in
  Support.check_bool "same size yields the same pool" true (a == b);
  Support.check_int "shared pool has the requested size" 2 (Pool.size a);
  let c = Pool.shared ~domains:1 in
  Support.check_bool "different size is a different pool" true (not (a == c))

(* ---- Pscan ----------------------------------------------------------- *)

let drain src =
  let acc = ref [] in
  let rec go () =
    match src () with
    | Some v ->
        acc := v :: !acc;
        go ()
    | None -> ()
  in
  go ();
  List.rev !acc

let test_pscan_order () =
  with_pool ~domains:2 (fun pool ->
      let mk n =
        let i = ref 0 in
        ( n,
          fun () ->
            if !i >= 2000 then None
            else begin
              incr i;
              Some ((n * 1000) + !i)
            end )
      in
      (* 2,000 rows a source: 16 chunks of 128, so each producer fills
         its 4-chunk depth and parks before its consumer catches up. *)
      let staged, finish = Pscan.stage pool [ mk 1; mk 2; mk 3 ] in
      let got = List.map (fun (p, src) -> (p, drain src)) staged in
      finish ();
      Support.check_int "priorities preserved" 3 (List.length got);
      List.iter
        (fun (p, vs) ->
          Alcotest.(check (list int))
            (Printf.sprintf "source %d ordered and complete" p)
            (List.init 2000 (fun i -> (p * 1000) + i + 1))
            vs)
        got)

let test_pscan_cancel () =
  with_pool ~domains:1 (fun pool ->
      let pulled = Atomic.make 0 in
      let src () =
        Atomic.incr pulled;
        Some (Atomic.get pulled)
      in
      (* An infinite source: only cancellation can stop its producer. *)
      let staged, finish = Pscan.stage pool [ (0, src) ] in
      let _, s = List.hd staged in
      for _ = 1 to 5 do
        ignore (s ())
      done;
      finish ();
      let after = Atomic.get pulled in
      (* Credit-based flow control bounds production to the buffered
         chunks (depth 4) plus the popped and one in-flight chunk, 128
         rows each. *)
      Support.check_bool
        (Printf.sprintf "production bounded by backpressure (pulled %d)" after)
        true
        (after <= 128 * 6);
      Thread.delay 0.05;
      Support.check_int "no production after finish returned" after
        (Atomic.get pulled))

let test_pscan_failure () =
  with_pool ~domains:2 (fun pool ->
      let i = ref 0 in
      let src () =
        incr i;
        if !i > 300 then raise (Boom !i) else Some !i
      in
      (* The failure comes in the third 128-row chunk. *)
      let staged, finish = Pscan.stage pool [ (0, src) ] in
      let _, s = List.hd staged in
      let seen = ref [] in
      (match
         let rec go () =
           match s () with
           | Some v ->
               seen := v :: !seen;
               go ()
           | None -> ()
         in
         go ()
       with
      | () -> Alcotest.fail "source failure should propagate to consumer"
      | exception Boom 301 -> ());
      finish ();
      Alcotest.(check (list int))
        "rows before the failure all delivered" (List.init 300 (fun i -> i + 1))
        (List.rev !seen))

let test_pscan_empty_sources () =
  with_pool ~domains:1 (fun pool ->
      let staged, finish =
        Pscan.stage pool [ (0, fun () -> None); (1, fun () -> None) ]
      in
      List.iter
        (fun (p, src) ->
          Support.check_int (Printf.sprintf "source %d empty" p) 0
            (List.length (drain src)))
        staged;
      finish ())

(* ---- Sequential vs parallel byte equality ---------------------------- *)

let sec_us s = Int64.of_int (s * 1_000_000)

(* Three insert waves with two flushes: two disk tablets plus a live
   memtable, so scans see three overlapping sources. *)
let build config =
  let db, _clock, _vfs = Support.fresh_db ~config () in
  let tbl = Db.create_table db "usage" (Support.usage_schema ()) ~ttl:None in
  for wave = 0 to 2 do
    for net = 0 to 3 do
      for dev = 0 to 4 do
        for i = 0 to 9 do
          let ts =
            Int64.add Support.ts0 (sec_us ((wave * 100) + (net * 17) + i))
          in
          Table.insert_row tbl
            (Support.usage_row ~network:(Int64.of_int net)
               ~device:(Int64.of_int dev) ~ts
               ~bytes:(Int64.of_int ((wave * 1000) + i))
               ~rate:(float_of_int i /. 7.))
        done
      done
    done;
    if wave < 2 then Table.flush_all tbl
  done;
  (db, tbl)

let query_shapes =
  let open Query in
  let net n = Value.Int64 (Int64.of_int n) in
  let t_lo = Int64.add Support.ts0 (sec_us 30) in
  let t_hi = Int64.add Support.ts0 (sec_us 150) in
  [
    ("all-asc", all);
    ("all-desc", with_direction Desc all);
    ("prefix-net", prefix [ net 2 ]);
    ("prefix-net-desc", with_direction Desc (prefix [ net 2 ]));
    ("prefix-net-dev", prefix [ net 1; Value.Int64 3L ]);
    ("prefix-net-dev-desc", with_direction Desc (prefix [ net 1; Value.Int64 3L ]));
    ("ts-window", between ~ts_min:t_lo ~ts_max:t_hi all);
    ("ts-window-desc", with_direction Desc (between ~ts_min:t_lo ~ts_max:t_hi all));
    ("ts-min-only", between ~ts_min:t_hi all);
    ("ts-max-only", between ~ts_max:t_lo all);
    ("limit-1", with_limit 1 all);
    ("limit-7", with_limit 7 all);
    ("limit-7-desc", with_limit 7 (with_direction Desc all));
    ("prefix-ts-limit", with_limit 5 (between ~ts_min:t_lo (prefix [ net 3 ])));
    ("empty-prefix", prefix [ net 99 ]);
    ("empty-ts", between ~ts_max:(Int64.sub Support.ts0 1L) all);
  ]

let drain_iter tbl q =
  let src = Table.query_iter tbl q in
  let acc = ref [] in
  let rec go () =
    match src () with
    | Some kv ->
        acc := kv :: !acc;
        go ()
    | None -> ()
  in
  go ();
  List.rev !acc

let test_seq_vs_parallel () =
  let db0, t0 = build (Config.make ~query_domains:0 ()) in
  let db2, t2 = build (Config.make ~query_domains:2 ()) in
  Support.check_bool "parallel db has a pool" true (Db.scan_pool db2 <> None);
  Support.check_bool "sequential db has no pool" true (Db.scan_pool db0 = None);
  List.iter
    (fun (name, q) ->
      let seq = drain_iter t0 q and par = drain_iter t2 q in
      Alcotest.(check int)
        (name ^ ": row count") (List.length seq) (List.length par);
      List.iter2
        (fun (k0, r0) (k1, r1) ->
          Support.check_string (name ^ ": encoded key bytes") k0 k1;
          Support.check_bool (name ^ ": row values") true (r0 = r1))
        seq par;
      let rs = Table.query t0 q and rp = Table.query t2 q in
      Support.check_bool (name ^ ": result rows") true (rs.Table.rows = rp.Table.rows);
      Support.check_bool (name ^ ": more_available") true
        (rs.Table.more_available = rp.Table.more_available);
      Support.check_int (name ^ ": scanned") rs.Table.scanned rp.Table.scanned)
    query_shapes;
  (* Latest-row searches cancel their workers on the first hit; results
     must still match the sequential path. *)
  for net = 0 to 4 do
    for dev = 0 to 5 do
      let p = [ Value.Int64 (Int64.of_int net); Value.Int64 (Int64.of_int dev) ] in
      Support.check_bool
        (Printf.sprintf "latest net=%d dev=%d" net dev)
        true
        (Table.latest t0 p = Table.latest t2 p)
    done;
    Support.check_bool
      (Printf.sprintf "latest net=%d (partial prefix)" net)
      true
      (Table.latest t0 [ Value.Int64 (Int64.of_int net) ]
      = Table.latest t2 [ Value.Int64 (Int64.of_int net) ])
  done;
  (* Consumer-side accounting is unchanged by staging. *)
  let s0 = Table.stats t0 and s2 = Table.stats t2 in
  Support.check_int "rows_scanned identical" s0.Stats.rows_scanned
    s2.Stats.rows_scanned;
  Support.check_int "rows_returned identical" s0.Stats.rows_returned
    s2.Stats.rows_returned;
  Support.check_int "queries identical" s0.Stats.queries s2.Stats.queries;
  Db.close db0;
  Db.close db2

let test_fanout_metric () =
  let db, tbl = build (Config.make ~query_domains:2 ()) in
  ignore (Table.query tbl Query.all);
  let rendered = Lt_obs.Obs.render (Db.obs db) in
  Support.check_bool "fanout histogram exported" true
    (let sub = "lt_parallel_scan_fanout" in
     let n = String.length sub and m = String.length rendered in
     let rec go i = i + n <= m && (String.sub rendered i n = sub || go (i + 1)) in
     go 0);
  Db.close db

let suite =
  [
    Alcotest.test_case "pool: FIFO on one worker" `Quick test_pool_fifo;
    Alcotest.test_case "pool: raising task keeps its worker" `Quick
      test_pool_raising_task;
    Alcotest.test_case "pool: shutdown drains and joins" `Quick
      test_pool_shutdown;
    Alcotest.test_case "pool: reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "pool: shared registry" `Quick test_pool_shared;
    Alcotest.test_case "pscan: per-source order" `Quick test_pscan_order;
    Alcotest.test_case "pscan: cancellation bounds work" `Quick
      test_pscan_cancel;
    Alcotest.test_case "pscan: failure propagation" `Quick test_pscan_failure;
    Alcotest.test_case "pscan: empty sources" `Quick test_pscan_empty_sources;
    Alcotest.test_case "sequential vs parallel byte equality" `Quick
      test_seq_vs_parallel;
    Alcotest.test_case "fanout metric exported" `Quick test_fanout_metric;
  ]
