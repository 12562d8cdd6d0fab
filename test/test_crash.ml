(* Crash-durability tests.

   The contract (§3.1): LittleTable "guarantees only that if it retains a
   particular row after a crash, it will also retain all rows that were
   inserted into the same table prior to that row" — relative to insertion
   order, not timestamps. We validate it by inserting rows carrying their
   insertion sequence number, crashing the in-memory filesystem at random
   points (dropping everything not fsynced/renamed), reopening, and
   checking that the surviving sequence numbers form a prefix. *)

open Littletable
open Lt_util

let schema = Support.usage_schema ()

let config =
  Config.make ~block_size:1024 ~flush_size:(4 * 1024) ~merge_delay:0L
    ~rollover_spread:0.0 ~enforce_unique:false ()

let survivors vfs clock =
  let t = Table.open_ vfs ~clock ~config ~dir:"dbroot/usage" ~name:"usage" in
  let rows = (Table.query t Query.all).Table.rows in
  Table.close t;
  List.sort compare (List.map (fun r -> Support.int64_of_cell r.(3)) rows)

let is_prefix seqs =
  List.for_all2 (fun got want -> got = want) seqs
    (List.init (List.length seqs) Int64.of_int)

let test_crash_loses_only_unflushed_suffix () =
  let db, clock, vfs = Support.fresh_db ~config () in
  let t = Db.create_table db "usage" schema ~ttl:None in
  let now = Clock.now clock in
  for i = 0 to 99 do
    Table.insert_row t
      (Support.usage_row ~network:1L ~device:(Int64.of_int i)
         ~ts:(Int64.add now (Int64.of_int i)) ~bytes:(Int64.of_int i) ~rate:0.0)
  done;
  Table.flush_all t;
  for i = 100 to 120 do
    Table.insert_row t
      (Support.usage_row ~network:1L ~device:(Int64.of_int i)
         ~ts:(Int64.add now (Int64.of_int i)) ~bytes:(Int64.of_int i) ~rate:0.0)
  done;
  Lt_vfs.Vfs.crash vfs;
  let seqs = survivors vfs clock in
  Alcotest.(check int) "flushed rows survive" 100 (List.length seqs);
  Alcotest.(check bool) "prefix" true (is_prefix seqs)

let test_crash_mid_flush_is_atomic () =
  (* Crash between tablet-file writes and the descriptor rename: the new
     tablets must be invisible (old descriptor) or fully visible. We
     simulate by crashing right after inserts with a failing rename. *)
  let fail_renames = ref false in
  let base = Lt_vfs.Vfs.memory () in
  let vfs =
    Lt_vfs.Vfs.faulty
      ~should_fail:(fun ~op ~path:_ -> !fail_renames && op = "rename")
      base
  in
  let clock = Clock.manual ~start:Support.ts0 () in
  let db = Db.open_ ~config ~clock ~vfs ~dir:"dbroot" () in
  let t = Db.create_table db "usage" schema ~ttl:None in
  let now = Clock.now clock in
  let insert i =
    Table.insert_row t
      (Support.usage_row ~network:1L ~device:(Int64.of_int i)
         ~ts:(Int64.add now (Int64.of_int i)) ~bytes:(Int64.of_int i) ~rate:0.0)
  in
  for i = 0 to 9 do insert i done;
  Table.flush_all t;
  for i = 10 to 19 do insert i done;
  fail_renames := true;
  (match Table.flush_all t with
  | () -> Alcotest.fail "flush should have failed"
  | exception Lt_vfs.Vfs.Io_error _ -> ());
  fail_renames := false;
  Lt_vfs.Vfs.crash base;
  let seqs = survivors base clock in
  (* The second flush never published: exactly the first ten rows. *)
  Alcotest.(check int) "first flush only" 10 (List.length seqs);
  Alcotest.(check bool) "prefix" true (is_prefix seqs)

(* Random interleaved-period workloads with a crash at a random point.
   Out-of-order timestamps spread inserts across filling tablets, so this
   exercises the flush-dependency closure logic (§3.4.3). *)
let prop_crash_prefix =
  QCheck.Test.make ~name:"crash always leaves an insertion-order prefix" ~count:60
    QCheck.(
      pair (int_range 1 150)
        (list_of_size (Gen.int_range 1 150) (int_bound 4)))
    (fun (crash_after, period_choices) ->
      let db, clock, vfs = Support.fresh_db ~config () in
      let t = Db.create_table db "usage" schema ~ttl:None in
      let now = Clock.now clock in
      (* Period offsets: now, yesterday, last week, a month back, future. *)
      let offsets =
        [| 0L; Int64.neg Clock.day; Int64.neg Clock.week;
           Int64.neg (Int64.mul 30L Clock.day); Clock.hour |]
      in
      List.iteri
        (fun i choice ->
          if i < crash_after then begin
            let ts =
              Int64.add (Int64.add now offsets.(choice)) (Int64.of_int i)
            in
            Table.insert_row t
              (Support.usage_row ~network:1L ~device:(Int64.of_int i) ~ts
                 ~bytes:(Int64.of_int i) ~rate:0.0)
          end)
        period_choices;
      Lt_vfs.Vfs.crash vfs;
      let seqs = survivors vfs clock in
      is_prefix seqs)

(* With size-triggered flushes (tiny flush_size), dependencies force
   multi-tablet atomic flushes; crash after every batch still yields a
   prefix. *)
let prop_crash_prefix_with_flushes =
  QCheck.Test.make ~name:"crash after size-triggered flushes leaves a prefix"
    ~count:40
    QCheck.(list_of_size (Gen.int_range 10 250) (int_bound 3))
    (fun period_choices ->
      let db, clock, vfs = Support.fresh_db ~config () in
      let t = Db.create_table db "usage" schema ~ttl:None in
      let now = Clock.now clock in
      let offsets =
        [| 0L; Int64.neg Clock.day; Int64.neg Clock.week;
           Int64.neg (Int64.mul 30L Clock.day) |]
      in
      List.iteri
        (fun i choice ->
          let ts = Int64.add (Int64.add now offsets.(choice)) (Int64.of_int i) in
          (* Large blob padding drives size-based freezes at 4 kB. *)
          Table.insert_row t
            (Support.usage_row ~network:1L ~device:(Int64.of_int i) ~ts
               ~bytes:(Int64.of_int i) ~rate:(float_of_int i)))
        period_choices;
      Lt_vfs.Vfs.crash vfs;
      let seqs = survivors vfs clock in
      is_prefix seqs)

(* Bulk delete must not lose the insert order between the memtables it
   rebuilds. P, E and B are three periods' memtables: P gets two rows,
   then E one, then B two. The delete takes one row of P, E's only row
   and one row of B, so E leaves the queues. P's surviving row was still
   inserted before B's, so B's size-triggered flush must take P with it:
   after a crash the survivors, less the deleted rows, are a prefix. *)
let test_delete_keeps_insert_order () =
  let db, clock, vfs = Support.fresh_db ~config () in
  let t = Db.create_table db "usage" schema ~ttl:None in
  let now = Clock.now clock in
  let p = Int64.neg (Int64.mul 30L Clock.day) and e = Int64.neg Clock.week in
  let insert seq ~network ~offset =
    Table.insert_row t
      (Support.usage_row ~network ~device:(Int64.of_int (100 + seq))
         ~ts:(Int64.add (Int64.add now offset) (Int64.of_int seq))
         ~bytes:(Int64.of_int seq) ~rate:0.0)
  in
  insert 0 ~network:1L ~offset:p;
  insert 1 ~network:2L ~offset:p;
  insert 2 ~network:2L ~offset:e;
  insert 3 ~network:2L ~offset:0L;
  insert 4 ~network:1L ~offset:0L;
  Alcotest.(check int) "deleted" 3 (Table.delete_prefix t [ Value.Int64 2L ]);
  let next = ref 5 in
  while Table.tablet_count t = 0 do
    insert !next ~network:1L ~offset:0L;
    incr next
  done;
  Lt_vfs.Vfs.crash vfs;
  let seqs = survivors vfs clock in
  let order = 0L :: List.init (!next - 4) (fun i -> Int64.of_int (4 + i)) in
  Alcotest.(check bool) "P row 100 survived" true (List.mem 0L seqs);
  Alcotest.(check bool) "prefix" true
    (List.filteri (fun i _ -> i < List.length seqs) order = seqs)

let test_descriptor_crash_mid_save_keeps_old () =
  (* Crash with a .tmp descriptor written but not renamed: load sees the
     previous version. *)
  let vfs = Lt_vfs.Vfs.memory () in
  Lt_vfs.Vfs.mkdir_p vfs "tbl";
  Descriptor.save vfs ~dir:"tbl"
    Descriptor.{ schema; ttl = None; next_id = 5; tablets = [] };
  (* Simulate the partial second save: a temp file that never renamed. *)
  let f = Lt_vfs.Vfs.create vfs "tbl/DESCRIPTOR.tmp" in
  Lt_vfs.Vfs.append vfs f "garbage";
  Lt_vfs.Vfs.fsync vfs f;
  Lt_vfs.Vfs.crash vfs;
  let d = Descriptor.load vfs ~dir:"tbl" in
  Alcotest.(check int) "old version intact" 5 d.Descriptor.next_id

let suite =
  [
    ("crash loses only unflushed suffix", `Quick, test_crash_loses_only_unflushed_suffix);
    ("crash mid-flush is atomic", `Quick, test_crash_mid_flush_is_atomic);
    ("descriptor crash mid-save", `Quick, test_descriptor_crash_mid_save_keeps_old);
    ("bulk delete keeps the P-E-B insert order", `Quick, test_delete_keeps_insert_order);
    Support.qcheck prop_crash_prefix;
    Support.qcheck prop_crash_prefix_with_flushes;
  ]
