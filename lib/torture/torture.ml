open Littletable
open Lt_util
module Vfs = Lt_vfs.Vfs
module Sync = Lt_vfs.Sync

type workload =
  | Insert_flush
  | Merge
  | Columnar_merge
  | Ttl_expiry
  | Schema_change
  | Set_ttl
  | Sync_spare
  | Bulk_delete

let all_workloads =
  [ Insert_flush; Merge; Columnar_merge; Ttl_expiry; Schema_change; Set_ttl;
    Sync_spare; Bulk_delete ]

let workload_name = function
  | Insert_flush -> "insert-flush"
  | Merge -> "merge"
  | Columnar_merge -> "columnar-merge"
  | Ttl_expiry -> "ttl-expiry"
  | Schema_change -> "schema-change"
  | Set_ttl -> "set-ttl"
  | Sync_spare -> "sync-spare"
  | Bulk_delete -> "bulk-delete"

type mode = Crash | Io_err

let mode_name = function Crash -> "crash" | Io_err -> "io-error"

type failure = {
  f_workload : workload;
  f_mode : mode;
  f_seed : int64;
  f_point : int;
  f_reason : string;
}

let pp_failure ppf f =
  Format.fprintf ppf "%s/%s seed=%Ld k=%d: %s" (workload_name f.f_workload)
    (mode_name f.f_mode) f.f_seed f.f_point f.f_reason

(* ------------------------------------------------------------------ *)
(* Fixed environment                                                   *)
(* ------------------------------------------------------------------ *)

let ts0 = 1_720_000_000_000_000L

let dir = "dbroot/usage"

let spare_dir = "spare/usage"

let tname = "usage"

(* Deterministic, observability off, tiny blocks, eager merges. *)
let base_config =
  Config.make ~block_size:1024 ~flush_size:(16 * 1024) ~merge_delay:0L
    ~rollover_spread:0.0 ~enforce_unique:false ~cache_bytes:0
    ~obs_enabled:false ()

(* [Columnar_merge] sets [columnar_age = 0]: every merge whose newest
   row is not in the future rewrites column-major, so the fault sweep
   covers every point of the columnar rewrite path (block build, column
   sections, footer stats, descriptor swap). *)
let config_of = function
  | Columnar_merge -> { base_config with Config.columnar_age = 0L }
  | _ -> base_config

(* network, device, ts key; [bytes] carries the insertion sequence
   number; [flags] is int32 so Schema_change can widen it. *)
let mk_schema () =
  Schema.create
    ~columns:
      [
        { Schema.name = "network"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "device"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "ts"; ctype = Value.T_timestamp; default = Value.Timestamp 0L };
        { Schema.name = "bytes"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "flags"; ctype = Value.T_int32; default = Value.Int32 0l };
      ]
    ~pkey:[ "network"; "device"; "ts" ]

let ttl_of = function
  | Ttl_expiry -> Some (Int64.mul 8L Clock.day)
  | _ -> None

(* Timestamp offsets spreading inserts across period bins, exercising
   the flush-dependency closure (§3.4.3): now, yesterday, last week, a
   month back, an hour ahead. *)
let offsets =
  [|
    0L;
    Int64.neg Clock.day;
    Int64.neg Clock.week;
    Int64.neg (Int64.mul 30L Clock.day);
    Clock.hour;
  |]

type ctx = {
  base : Vfs.t;  (** the memory filesystem underneath the counter *)
  vfs : Vfs.t;  (** counting / fault-injecting wrapper *)
  clock : Clock.t;
  rng : Xorshift.t;
  table : Table.t;
  mutable issued : (int * int64) list;  (** (seq, ts), newest first *)
  mutable next_seq : int;
  mutable floor : int;
      (** attempts known durable: set after each successful flush_all *)
  mutable extra_cols : int;
  mutable widened : bool;
  mutable deleted : int list;
      (** seqs removed by an acknowledged delete: must never survive *)
  mutable deleting : int list;
      (** seqs of a delete the fault interrupted: may survive or not *)
}

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let mk_row ctx ~seq ~ts =
  let flags = if ctx.widened then Value.Int64 0L else Value.Int32 0l in
  let base =
    [
      Value.Int64 1L;
      Value.Int64 (Int64.of_int seq);
      Value.Timestamp ts;
      Value.Int64 (Int64.of_int seq);
      flags;
    ]
  in
  let extras = List.init ctx.extra_cols (fun _ -> Value.String "") in
  Array.of_list (base @ extras)

(* Record the attempt before issuing it: a row the crash interrupts
   mid-insert may legitimately survive (it can ride an earlier closure's
   flush) even though the caller never saw an ack. *)
let insert_rows ctx n =
  for _ = 1 to n do
    let seq = ctx.next_seq in
    let off = offsets.(Xorshift.int ctx.rng (Array.length offsets)) in
    let ts =
      Int64.add (Int64.add (Clock.now ctx.clock) off) (Int64.of_int seq)
    in
    ctx.next_seq <- seq + 1;
    ctx.issued <- (seq, ts) :: ctx.issued;
    Table.insert_row ctx.table (mk_row ctx ~seq ~ts)
  done

(* flush_all is strict: when it returns, every attempt so far is in a
   descriptor-referenced tablet, directory entry and all. *)
let flush_note ctx =
  Table.flush_all ctx.table;
  ctx.floor <- List.length ctx.issued

(* Bulk-delete the row of one device (device = seq, see [mk_row]). *)
let delete_device ctx seq =
  ctx.deleting <- seq :: ctx.deleting;
  ignore
    (Table.delete_prefix ctx.table [ Value.Int64 1L; Value.Int64 (Int64.of_int seq) ]);
  ctx.deleting <- List.filter (( <> ) seq) ctx.deleting;
  ctx.deleted <- seq :: ctx.deleted

let merge_fixpoint ctx =
  while Table.merge_step ctx.table do
    ()
  done

let run ctx = function
  | Insert_flush ->
      insert_rows ctx 12;
      flush_note ctx;
      insert_rows ctx 8;
      flush_note ctx;
      (* Deliberately unflushed suffix: a crash may drop it. *)
      insert_rows ctx 5
  | Merge ->
      insert_rows ctx 6;
      flush_note ctx;
      insert_rows ctx 6;
      flush_note ctx;
      insert_rows ctx 6;
      flush_note ctx;
      merge_fixpoint ctx
  | Columnar_merge ->
      (* Same shape as [Merge] but under [columnar_age = 0], plus a
         second generation of flushes and merges so row-major tablets
         merge with already-columnar output (the mixed-layout rewrite). *)
      insert_rows ctx 6;
      flush_note ctx;
      insert_rows ctx 6;
      flush_note ctx;
      merge_fixpoint ctx;
      insert_rows ctx 6;
      flush_note ctx;
      merge_fixpoint ctx
  | Ttl_expiry ->
      insert_rows ctx 10;
      flush_note ctx;
      Clock.advance ctx.clock Clock.day;
      ignore (Table.expire ctx.table);
      insert_rows ctx 6;
      flush_note ctx
  | Schema_change ->
      insert_rows ctx 6;
      flush_note ctx;
      Table.add_column ctx.table
        { Schema.name = "note"; ctype = Value.T_string; default = Value.String "" };
      ctx.extra_cols <- ctx.extra_cols + 1;
      insert_rows ctx 5;
      Table.widen_column ctx.table "flags";
      ctx.widened <- true;
      insert_rows ctx 5;
      flush_note ctx
  | Set_ttl ->
      insert_rows ctx 8;
      flush_note ctx;
      Table.set_ttl ctx.table (Some (Int64.mul 30L Clock.day));
      insert_rows ctx 4;
      flush_note ctx;
      Table.set_ttl ctx.table (Some (Int64.mul 8L Clock.day));
      insert_rows ctx 4;
      flush_note ctx
  | Sync_spare ->
      insert_rows ctx 8;
      flush_note ctx;
      ignore
        (Sync.until_stable ~src:ctx.vfs ~src_dir:dir ~dst:ctx.vfs
           ~dst_dir:spare_dir ());
      insert_rows ctx 6;
      flush_note ctx;
      ignore
        (Sync.until_stable ~src:ctx.vfs ~src_dir:dir ~dst:ctx.vfs
           ~dst_dir:spare_dir ())
  | Bulk_delete ->
      insert_rows ctx 12;
      flush_note ctx;
      insert_rows ctx 6;
      flush_note ctx;
      insert_rows ctx 4;
      (* Devices 3 and 14 sit in flushed tablets beside other devices,
         so their deletes rewrite straddling tablets; device 19's row is
         still in a memtable. *)
      List.iter (delete_device ctx) [ 3; 14; 19 ];
      flush_note ctx;
      merge_fixpoint ctx;
      insert_rows ctx 3;
      flush_note ctx

(* ------------------------------------------------------------------ *)
(* Invariant                                                           *)
(* ------------------------------------------------------------------ *)

(* [Fun.protect] wraps an exception raised by a cleanup handler; the
   injected fault underneath is what matters for classification. *)
let rec unwrap = function Fun.Finally_raised e -> unwrap e | e -> e

let seq_of_row r =
  match r.(3) with
  | Value.Int64 v -> Int64.to_int v
  | _ -> invalid_arg "torture: bytes column is not int64"

(* Check one reopened table against the attempt history. [floor] is the
   number of attempts that must have survived (0 for the spare, whose
   sync completion was never acknowledged). *)
let check_table ctx ~floor ~label t =
  let fail fmt = Format.kasprintf (fun s -> Error (label ^ s)) fmt in
  let st = Table.stats t in
  if st.Stats.tablets_quarantined > 0 then
    fail "a referenced tablet was corrupt after the crash (quarantined)"
  else begin
    let rows = (Table.query t Query.all).Table.rows in
    let seqs = List.map seq_of_row rows in
    let sorted = List.sort_uniq compare seqs in
    if List.length sorted <> List.length seqs then fail "duplicate rows survived"
    else begin
      let ts_of =
        let tbl = Hashtbl.create 64 in
        List.iter (fun (s, ts) -> Hashtbl.replace tbl s ts) ctx.issued;
        fun s -> Hashtbl.find_opt tbl s
      in
      let cutoff =
        match Table.ttl t with
        | None -> None
        | Some ttl -> Some (Int64.sub (Clock.now ctx.clock) ttl)
      in
      let visible s =
        match (ts_of s, cutoff) with
        | None, _ -> false
        | Some _, None -> true
        | Some ts, Some c -> ts >= c
      in
      let exempt s = List.mem s ctx.deleted || List.mem s ctx.deleting in
      match
        ( List.find_opt (fun s -> s < 0 || s >= ctx.next_seq) sorted,
          List.find_opt (fun s -> List.mem s ctx.deleted) sorted )
      with
      | Some s, _ -> fail "phantom row %d survived (never attempted)" s
      | None, Some s -> fail "deleted row %d survived" s
      | None, None -> (
          let survived = Hashtbl.create 64 in
          List.iter (fun s -> Hashtbl.replace survived s ()) sorted;
          let m =
            List.fold_left (fun acc s -> max acc (s + 1)) floor sorted
          in
          let missing = ref None in
          for s = 0 to m - 1 do
            if !missing = None && visible s && (not (exempt s))
               && not (Hashtbl.mem survived s)
            then missing := Some s
          done;
          match !missing with
          | Some s ->
              fail "row %d lost below the durable prefix (prefix height %d, \
                    floor %d)"
                s m floor
          | None ->
              (* Hygiene: only the descriptor, referenced tablets, and
                 quarantined files may remain after the open sweep. *)
              let referenced =
                Descriptor.file_name
                :: List.map
                     (fun (meta : Descriptor.tablet_meta) -> meta.Descriptor.file)
                     (Table.tablets t)
              in
              let stray =
                List.find_opt
                  (fun e ->
                    (not (List.mem e referenced))
                    && not (Filename.check_suffix e ".quarantine"))
                  (Vfs.readdir ctx.base (Table.dir t))
              in
              (match stray with
              | Some e -> fail "stray file %s survived the hygiene sweep" e
              | None -> Ok ()))
    end
  end

let check ctx w =
  Vfs.crash ctx.base;
  let config = config_of w in
  let open_and_check ~floor ~label d =
    match Table.open_ ctx.base ~clock:ctx.clock ~config ~dir:d ~name:tname with
    | exception e ->
        Error
          (Printf.sprintf "%sreopen failed: %s" label (Printexc.to_string e))
    | t ->
        Fun.protect
          ~finally:(fun () -> Table.close t)
          (fun () -> check_table ctx ~floor ~label t)
  in
  let primary =
    if Descriptor.exists ctx.base ~dir then
      open_and_check ~floor:ctx.floor ~label:"" dir
    else if ctx.floor = 0 then Ok ()
    else Error "descriptor lost after an acknowledged flush"
  in
  match (primary, w) with
  | Error _, _ -> primary
  | Ok (), Sync_spare when Descriptor.exists ctx.base ~dir:spare_dir ->
      (* Whatever state the spare reached must itself open to a
         consistent prefix — a torn copy is a failure even though the
         sync never completed. *)
      open_and_check ~floor:0 ~label:"spare: " spare_dir
  | Ok (), _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run_once ~inject ~seed w =
  let config = config_of w in
  let base = Vfs.memory () in
  let vfs_inject =
    match inject with
    | None -> Vfs.No_fault
    | Some (Crash, k) -> Vfs.Crash_at k
    | Some (Io_err, k) -> Vfs.Io_error_at k
  in
  let counter, vfs = Vfs.counting ~inject:vfs_inject base in
  let clock = Clock.manual ~start:ts0 () in
  let schema = mk_schema () in
  let create () =
    Table.create vfs ~clock ~config ~dir ~name:tname schema ~ttl:(ttl_of w)
  in
  let setup () =
    try Ok (create ())
    with e -> (
      match unwrap e with
      | Vfs.Io_error _ -> (
          (* A transient fault mid-create: recover by opening whatever
             the interrupted save left behind, else create again. *)
          try
            Ok
              (if Descriptor.exists vfs ~dir then
                 Table.open_ vfs ~clock ~config ~dir ~name:tname
               else create ())
          with e -> Error (unwrap e))
      | e -> Error e)
  in
  match setup () with
  | Error (Vfs.Crash_point _) ->
      (* Died during setup: nothing was ever acknowledged; the only
         requirement is that whatever descriptor survived loads. *)
      Vfs.crash base;
      let r =
        if not (Descriptor.exists base ~dir) then Ok ()
        else
          match
            Table.open_ base ~clock ~config ~dir ~name:tname
          with
          | t ->
              Table.close t;
              Ok ()
          | exception e ->
              Error ("reopen after setup crash failed: " ^ Printexc.to_string e)
      in
      (counter, r)
  | Error e -> (counter, Error ("setup failed: " ^ Printexc.to_string e))
  | Ok table -> (
      let ctx =
        {
          base;
          vfs;
          clock;
          rng = Xorshift.create seed;
          table;
          issued = [];
          next_seq = 0;
          floor = 0;
          extra_cols = 0;
          widened = false;
          deleted = [];
          deleting = [];
        }
      in
      let outcome =
        try
          run ctx w;
          (match inject with
          | Some (Crash, k) when not (Vfs.halted counter) ->
              `Bad_point k  (* the sweep enumerated a point never reached *)
          | _ -> `Check)
        with e -> (
          match unwrap e with
          | Vfs.Crash_point _ -> `Check
          | Vfs.Io_error _ -> (
              (* Transient fault: the engine must still be usable — flush
                 everything attempted and require it all durable. *)
              match Table.flush_all ctx.table with
              | () ->
                  ctx.floor <- List.length ctx.issued;
                  `Check
              | exception e -> `Wedged e)
          | e -> `Died e)
      in
      match outcome with
      | `Check -> (counter, check ctx w)
      | `Bad_point k ->
          ( counter,
            Error
              (Printf.sprintf
                 "crash point %d was enumerated but never reached" k) )
      | `Wedged e ->
          ( counter,
            Error
              ("table wedged after a single transient I/O error: "
              ^ Printexc.to_string e) )
      | `Died e ->
          (counter, Error ("workload raised: " ^ Printexc.to_string e)))

let count_points ~seed w =
  let counter, result = run_once ~inject:None ~seed w in
  match result with
  | Ok () -> Vfs.op_count counter
  | Error reason ->
      invalid_arg
        (Printf.sprintf "torture: fault-free %s run is inconsistent: %s"
           (workload_name w) reason)

let execute ?inject ~seed w = snd (run_once ~inject ~seed w)

let replay ~seed w mode k = execute ~inject:(mode, k) ~seed w

let sweep ?(workloads = all_workloads) ~seed () =
  let runs = ref 0 in
  let failures =
    List.concat_map
      (fun w ->
        let n = count_points ~seed w in
        List.concat_map
          (fun mode ->
            List.filter_map
              (fun k ->
                incr runs;
                match execute ~inject:(mode, k) ~seed w with
                | Ok () -> None
                | Error reason ->
                    Some
                      {
                        f_workload = w;
                        f_mode = mode;
                        f_seed = seed;
                        f_point = k;
                        f_reason = reason;
                      })
              (List.init n Fun.id))
          [ Crash; Io_err ])
      workloads
  in
  (!runs, failures)
