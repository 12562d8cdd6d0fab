(* Crash-point torture sweeps plus regression tests for the three
   durability bugs the harness flushed out: unsynced directory entries
   losing published files, a transient flush failure wedging the table,
   and a corrupt tablet making the whole table unopenable. *)

open Littletable
open Lt_util
module Torture = Lt_torture.Torture
module Vfs = Lt_vfs.Vfs

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

let sweep_mode mode seed =
  List.iter
    (fun w ->
      let n = Torture.count_points ~seed w in
      Alcotest.(check bool)
        (Printf.sprintf "%s has durability points" (Torture.workload_name w))
        true (n > 0);
      for k = 0 to n - 1 do
        match Torture.execute ~inject:(mode, k) ~seed w with
        | Ok () -> ()
        | Error reason ->
            Alcotest.failf "%s/%s seed=%Ld k=%d: %s" (Torture.workload_name w)
              (Torture.mode_name mode) seed k reason
      done)
    Torture.all_workloads

(* Crash-equivalence property: for every durability point of every
   workload, crashing there and reopening yields a state equivalent to
   some prefix of the acknowledged inserts in insert order. *)
let test_crash_sweep () = sweep_mode Torture.Crash 7L

(* Io_error sweep: a single transient fault at any durability point must
   leave the engine recoverable — a subsequent flush_all lands every
   attempted row durably. *)
let test_io_error_sweep () = sweep_mode Torture.Io_err 11L

let test_sweep_api () =
  let runs, failures = Torture.sweep ~seed:42L () in
  let expected =
    2
    * List.fold_left
        (fun acc w -> acc + Torture.count_points ~seed:42L w)
        0 Torture.all_workloads
  in
  Alcotest.(check int) "sweep covers every point in both modes" expected runs;
  List.iter
    (fun f -> Alcotest.failf "%s" (Format.asprintf "%a" Torture.pp_failure f))
    failures

let test_replay_is_deterministic () =
  (* count_points is stable, and replay produces the same verdict as the
     sweep's own execution of the same (seed, k). *)
  let w = Torture.Merge in
  let n = Torture.count_points ~seed:5L w in
  Alcotest.(check int) "stable point count" n (Torture.count_points ~seed:5L w);
  let k = n / 2 in
  let a = Torture.execute ~inject:(Torture.Crash, k) ~seed:5L w in
  let b = Torture.replay ~seed:5L w Torture.Crash k in
  Alcotest.(check bool) "replay matches execute" true (a = b)

(* ------------------------------------------------------------------ *)
(* Named bug 1: unsynced directory entries (descriptor/tablet publish)  *)
(* ------------------------------------------------------------------ *)

let schema = Support.usage_schema ()

let config =
  Config.make ~block_size:1024 ~flush_size:2048 ~merge_delay:0L
    ~rollover_spread:0.0 ~enforce_unique:false ()

let insert t clock i =
  Table.insert_row t
    (Support.usage_row ~network:1L ~device:(Int64.of_int i)
       ~ts:(Int64.add (Clock.now clock) (Int64.of_int i))
       ~bytes:(Int64.of_int i) ~rate:0.0)

let survivors vfs clock =
  let t =
    Table.open_ vfs ~clock ~config ~dir:"dbroot/usage" ~name:"usage"
  in
  let rows = (Table.query t Query.all).Table.rows in
  let st = Table.stats t in
  Table.close t;
  ( List.sort compare (List.map (fun r -> Support.int64_of_cell r.(3)) rows),
    st )

(* Before the fix, Descriptor.save renamed the new descriptor into place
   without fsyncing the directory, so a crash reverted the rename and
   the flushed rows vanished with it. The memory VFS models exactly
   that: directory entries only survive a crash after sync_dir. *)
let test_descriptor_publish_survives_crash () =
  let vfs = Vfs.memory () in
  let clock = Clock.manual ~start:Support.ts0 () in
  let t =
    Table.create vfs ~clock ~config ~dir:"dbroot/usage" ~name:"usage" schema
      ~ttl:None
  in
  for i = 0 to 9 do insert t clock i done;
  Table.flush_all t;
  Table.close t;
  Vfs.crash vfs;
  Alcotest.(check bool)
    "descriptor entry survived the crash" true
    (Descriptor.exists vfs ~dir:"dbroot/usage");
  let seqs, _ = survivors vfs clock in
  Alcotest.(check int) "all flushed rows survived" 10 (List.length seqs)

(* ------------------------------------------------------------------ *)
(* Named bug 2: transient flush failure must requeue, not wedge         *)
(* ------------------------------------------------------------------ *)

let test_flush_retry_requeues () =
  let armed = ref false in
  let base = Vfs.memory () in
  let vfs =
    Vfs.faulty ~should_fail:(fun ~op ~path:_ -> !armed && op = "create") base
  in
  let clock = Clock.manual ~start:Support.ts0 () in
  let t =
    Table.create vfs ~clock ~config ~dir:"dbroot/usage" ~name:"usage" schema
      ~ttl:None
  in
  armed := true;
  (* Enough inserts to roll the memtable over several times; every flush
     attempt from the insert path fails, yet no insert may raise. *)
  for i = 0 to 199 do insert t clock i done;
  let st = Table.stats t in
  Alcotest.(check bool) "a flush retry was recorded" true
    (st.Stats.flush_retries >= 1);
  Alcotest.(check int) "no flush completed while the fault held" 0
    st.Stats.flushes;
  (* Backoff is bounded: with the clock frozen, the failed attempt is
     not retried on every insert. *)
  let retries_frozen = st.Stats.flush_retries in
  for i = 200 to 219 do insert t clock i done;
  Alcotest.(check int) "backoff suppressed further attempts" retries_frozen
    (Table.stats t).Stats.flush_retries;
  Alcotest.(check int) "all rows still queryable from memory" 220
    (List.length (Table.query t Query.all).Table.rows);
  (* Fault clears; after the backoff window the backlog drains. *)
  armed := false;
  Clock.advance clock Clock.hour;
  Table.maintenance t;
  Alcotest.(check bool) "backlog flushed after recovery" true
    ((Table.stats t).Stats.flushes >= 1);
  Table.flush_all t;
  Table.close t;
  Vfs.crash base;
  let seqs, _ = survivors base clock in
  Alcotest.(check int) "every row became durable" 220 (List.length seqs)

(* ------------------------------------------------------------------ *)
(* Named bug 3: corrupt tablet quarantined at open                      *)
(* ------------------------------------------------------------------ *)

let test_corrupt_tablet_quarantined () =
  let vfs = Vfs.memory () in
  let clock = Clock.manual ~start:Support.ts0 () in
  let t =
    Table.create vfs ~clock ~config ~dir:"dbroot/usage" ~name:"usage" schema
      ~ttl:None
  in
  for i = 0 to 9 do insert t clock i done;
  Table.flush_all t;
  for i = 10 to 19 do insert t clock i done;
  Table.flush_all t;
  let tablets =
    List.map (fun m -> m.Descriptor.file) (Table.tablets t)
  in
  Alcotest.(check int) "two tablets on disk" 2 (List.length tablets);
  Table.close t;
  (* Smash the second tablet: truncate it to garbage. *)
  let victim = Filename.concat "dbroot/usage" (List.nth tablets 1) in
  Vfs.delete vfs victim;
  let f = Vfs.create vfs victim in
  Vfs.append vfs f "not a tablet";
  Vfs.fsync vfs f;
  Vfs.close vfs f;
  (* Before the fix this open raised Binio.Corrupt and the whole table
     (including the nine hundred healthy tablets it might have) was
     unreadable. Now the bad tablet is set aside and the rest serves. *)
  let seqs, st = survivors vfs clock in
  Alcotest.(check int) "one tablet quarantined" 1 st.Stats.tablets_quarantined;
  Alcotest.(check int) "healthy tablet still serves" 10 (List.length seqs);
  Alcotest.(check bool) "quarantine file kept for forensics" true
    (List.exists
       (fun e -> Filename.check_suffix e ".quarantine")
       (Vfs.readdir vfs "dbroot/usage"));
  (* The rewritten descriptor no longer references the bad tablet, so a
     second open is clean. *)
  let _, st2 = survivors vfs clock in
  Alcotest.(check int) "second open quarantines nothing" 0
    st2.Stats.tablets_quarantined

(* ------------------------------------------------------------------ *)
(* Named regression: a crash mid columnar rewrite must leave the old    *)
(* row-major tablets referenced and readable                            *)
(* ------------------------------------------------------------------ *)

(* Deterministic scenario: flush two row-major generations of old data
   under [columnar_age = 0], then merge — the merge rewrites them
   column-major. Run it fault-free once to locate the first operation
   of the merge phase, then replay with a crash right after the rewrite
   starts (blocks of the columnar output partially written, descriptor
   not yet swapped). Reopening must serve every flushed row from the
   original row tablets. *)
let test_columnar_rewrite_crash_keeps_row_tablets () =
  let cfg =
    Config.make ~block_size:1024 ~flush_size:2048 ~merge_delay:0L
      ~rollover_spread:0.0 ~enforce_unique:false ~cache_bytes:0
      ~obs_enabled:false ~columnar_age:0L ()
  in
  let start = 1_720_000_000_000_000L in
  let run inject =
    let base = Vfs.memory () in
    let counter, vfs = Vfs.counting ~inject base in
    let clock = Clock.manual ~start () in
    let t =
      Table.create vfs ~clock ~config:cfg ~dir:"dbroot/usage" ~name:"usage"
        schema ~ttl:None
    in
    let old_ts i = Int64.add (Int64.sub start Clock.day) (Int64.of_int i) in
    (try
       for i = 0 to 9 do
         Table.insert_row t
           (Support.usage_row ~network:1L ~device:(Int64.of_int i)
              ~ts:(old_ts i) ~bytes:(Int64.of_int i) ~rate:0.0)
       done;
       Table.flush_all t;
       for i = 10 to 19 do
         Table.insert_row t
           (Support.usage_row ~network:1L ~device:(Int64.of_int i)
              ~ts:(old_ts i) ~bytes:(Int64.of_int i) ~rate:0.0)
       done;
       Table.flush_all t
     with Vfs.Crash_point _ -> Alcotest.fail "crashed before the merge phase");
    let merge_starts_at = Vfs.op_count counter in
    let crashed =
      try
        while Table.merge_step t do
          ()
        done;
        false
      with Vfs.Crash_point _ -> true
    in
    (base, clock, merge_starts_at, crashed)
  in
  (* Fault-free probe: find where the merge phase begins and check the
     rewrite actually went columnar. *)
  let base0, clock0, merge_at, crashed0 = run Vfs.No_fault in
  Alcotest.(check bool) "probe run does not crash" false crashed0;
  let t0 =
    Table.open_ base0 ~clock:clock0 ~config:cfg ~dir:"dbroot/usage"
      ~name:"usage"
  in
  Alcotest.(check bool) "probe run rewrote column-major" true
    (List.exists
       (fun (m : Descriptor.tablet_meta) -> m.Descriptor.columnar)
       (Table.tablets t0));
  Table.close t0;
  (* Crash on the second operation of the rewrite: output block bytes
     are in flight, the descriptor still references the row tablets. *)
  let base, clock, _, crashed = run (Vfs.Crash_at (merge_at + 1)) in
  Alcotest.(check bool) "merge crashed mid-rewrite" true crashed;
  Vfs.crash base;
  let t =
    Table.open_ base ~clock ~config:cfg ~dir:"dbroot/usage" ~name:"usage"
  in
  let st = Table.stats t in
  Alcotest.(check int) "no tablet quarantined" 0 st.Stats.tablets_quarantined;
  Alcotest.(check bool) "old tablets still row-major" true
    (List.for_all
       (fun (m : Descriptor.tablet_meta) -> not m.Descriptor.columnar)
       (Table.tablets t));
  let rows = (Table.query t Query.all).Table.rows in
  Alcotest.(check int) "every flushed row survives in row tablets" 20
    (List.length rows);
  (* The table is not wedged: the interrupted rewrite retries cleanly. *)
  while Table.merge_step t do
    ()
  done;
  Alcotest.(check bool) "retried merge completes column-major" true
    (List.exists
       (fun (m : Descriptor.tablet_meta) -> m.Descriptor.columnar)
       (Table.tablets t));
  let rows' = (Table.query t Query.all).Table.rows in
  Alcotest.(check bool) "rows identical after the retried rewrite" true
    (rows = rows');
  Table.close t

let suite =
  [
    Alcotest.test_case "crash sweep over all workloads" `Quick test_crash_sweep;
    Alcotest.test_case "io-error sweep over all workloads" `Quick
      test_io_error_sweep;
    Alcotest.test_case "sweep api covers both modes" `Quick test_sweep_api;
    Alcotest.test_case "replay is deterministic" `Quick
      test_replay_is_deterministic;
    Alcotest.test_case "descriptor publish survives crash" `Quick
      test_descriptor_publish_survives_crash;
    Alcotest.test_case "transient flush failure requeues" `Quick
      test_flush_retry_requeues;
    Alcotest.test_case "crash mid columnar rewrite keeps row tablets" `Quick
      test_columnar_rewrite_crash_keeps_row_tablets;
    Alcotest.test_case "corrupt tablet quarantined at open" `Quick
      test_corrupt_tablet_quarantined;
  ]
