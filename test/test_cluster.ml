open Littletable
open Lt_cluster
module Client = Lt_net.Client
module Server = Lt_net.Server
module P = Lt_net.Protocol

(* ---- Placement units (pure) ------------------------------------------- *)

let test_hash_placement () =
  let p = Placement.create ~shards:4 ~policy:(Placement.Hash { vnodes = 64 }) in
  let p' = Placement.create ~shards:4 ~policy:(Placement.Hash { vnodes = 64 }) in
  let hits = Array.make 4 0 in
  for i = 0 to 999 do
    let v = Value.Int64 (Int64.of_int i) in
    let s = Placement.shard_of_value p v in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
    Alcotest.(check int) "deterministic" s (Placement.shard_of_value p v);
    Alcotest.(check int) "same across instances" s (Placement.shard_of_value p' v);
    hits.(s) <- hits.(s) + 1
  done;
  Array.iteri
    (fun i n ->
      Alcotest.(check bool) (Printf.sprintf "shard %d gets traffic" i) true (n > 0))
    hits;
  (* Key-pinned queries route to one shard; open scans fan out. *)
  Alcotest.(check int) "prefix pins one shard" 1
    (List.length (Placement.shards_of_query p (Query.prefix [ Value.Int64 7L ])));
  Alcotest.(check (list int)) "open scan fans out" [ 0; 1; 2; 3 ]
    (Placement.shards_of_query p Query.all)

(* Placement must not move between releases: a changed hash sends rows
   already on one shard to another. Pinned owners of a few values. *)
let test_hash_placement_golden () =
  let owners shards =
    let p = Placement.create ~shards ~policy:(Placement.Hash { vnodes = 64 }) in
    List.map (Placement.shard_of_value p)
      [ Value.Int64 0L; Value.Int64 1L; Value.Int64 2L; Value.Int64 42L;
        Value.Int64 (-7L); Value.Int64 1_000_000_007L; Value.String "";
        Value.String "net-17"; Value.Int32 5l; Value.Timestamp 1_720_000_000_000_000L ]
  in
  Alcotest.(check (list int)) "3 shards" [ 1; 0; 2; 2; 1; 1; 0; 0; 2; 1 ] (owners 3);
  Alcotest.(check (list int)) "4 shards" [ 1; 3; 3; 2; 1; 3; 0; 0; 3; 3 ] (owners 4)

let test_range_placement () =
  let p =
    Placement.create ~shards:3
      ~policy:(Placement.Range [ Value.Int64 3L; Value.Int64 5L ])
  in
  let owner v = Placement.shard_of_value p (Value.Int64 v) in
  Alcotest.(check (list int)) "split point ownership" [ 0; 0; 1; 1; 2; 2 ]
    (List.map owner [ 1L; 2L; 3L; 4L; 5L; 6L ]);
  Alcotest.(check (list int)) "pinned value" [ 1 ]
    (Placement.shards_of_query p (Query.prefix [ Value.Int64 4L ]));
  Alcotest.(check (list int)) "everything" [ 0; 1; 2 ]
    (Placement.shards_of_query p Query.all);
  (* A bounded leading-key range touches only the contiguous span. *)
  let bounded =
    { Query.all with
      Query.key_low = Query.Incl [ Value.Int64 2L ];
      key_high = Query.Incl [ Value.Int64 4L ] }
  in
  Alcotest.(check (list int)) "contiguous span" [ 0; 1 ]
    (Placement.shards_of_query p bounded);
  (* Validation. *)
  (match
     Placement.create ~shards:3
       ~policy:(Placement.Range [ Value.Int64 5L; Value.Int64 3L ])
   with
  | (_ : Placement.t) -> Alcotest.fail "descending split points accepted"
  | exception Invalid_argument _ -> ())

let test_placement_overrides () =
  let p = Placement.create ~shards:3 ~policy:(Placement.Hash { vnodes = 16 }) in
  let v = Value.Int64 42L in
  let home = Placement.shard_of_value p v in
  let target = (home + 1) mod 3 in
  let p2 = Placement.with_override p ~value:v ~shard:target in
  Alcotest.(check int) "epoch bumped" 1 (Placement.epoch p2);
  Alcotest.(check int) "override wins" target (Placement.shard_of_value p2 v);
  Alcotest.(check int) "original untouched" home (Placement.shard_of_value p v);
  Alcotest.(check (list int)) "prefix follows override" [ target ]
    (Placement.shards_of_prefix p2 [ v; Value.Int64 9L ]);
  (* Re-overriding the same value replaces, not stacks. *)
  let p3 = Placement.with_override p2 ~value:v ~shard:home in
  Alcotest.(check int) "second override wins" home (Placement.shard_of_value p3 v);
  Alcotest.(check int) "one override entry" 1 (List.length (Placement.overrides p3));
  Alcotest.(check int) "epoch bumps again" 2 (Placement.epoch p3)

(* ---- Multi-server fixtures -------------------------------------------- *)

let row_limit = 8

let node_config = Config.make ~server_row_limit:row_limit ()

type node = { n_dir : string; n_db : Db.t; n_server : Server.t }

let temp_dir () =
  let dir = Filename.temp_file "lt_cluster" "" in
  Sys.remove dir;
  dir

let rm_rf dir =
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let start_node () =
  let dir = temp_dir () in
  let db = Db.open_ ~config:node_config ~dir () in
  let server = Server.start ~maintenance_period_s:0.0 ~db ~port:0 () in
  { n_dir = dir; n_db = db; n_server = server }

let stop_node n =
  (try Server.stop n.n_server with _ -> ());
  rm_rf n.n_dir

let endpoint_of n =
  { Cluster_client.host = "127.0.0.1"; port = Server.port n.n_server }

(* [with_cluster ~shards ~policy f] runs [f ~router ~rc ~sc ~nodes]: a
   router (served over TCP) in front of [shards] fresh backends, plus a
   single-node reference server; [rc]/[sc] are clients of each. The
   equality gate drives identical traffic through both and expects
   identical answers. *)
let with_cluster ~shards ~policy f =
  let nodes = List.init shards (fun _ -> start_node ()) in
  let reference = start_node () in
  let cleanup = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun g -> try g () with _ -> ()) !cleanup;
      List.iter stop_node (reference :: nodes))
    (fun () ->
      let cluster =
        Cluster_client.create ~backends:(List.map endpoint_of nodes) ()
      in
      let placement = Placement.create ~shards ~policy in
      let router = Router.create ~row_limit ~placement ~cluster () in
      let rserver = Server.start_custom ~backend:(Router.backend router) ~port:0 () in
      cleanup := (fun () -> Server.stop rserver) :: !cleanup;
      let rc = Client.connect ~port:(Server.port rserver) () in
      let sc = Client.connect ~port:(Server.port reference.n_server) () in
      cleanup := (fun () -> Client.close rc; Client.close sc) :: !cleanup;
      f ~router ~rc ~sc ~nodes)

(* Insert the standard dataset through both paths: 6 networks x 4
   devices x 5 timestamps, batched so each batch spans shards. *)
let load_dataset rc sc =
  let schema = Support.usage_schema () in
  Client.create_table rc "usage" schema ~ttl:None;
  Client.create_table sc "usage" schema ~ttl:None;
  for ts = 1 to 5 do
    let batch =
      List.concat_map
        (fun net ->
          List.map
            (fun dev ->
              Support.usage_row ~network:(Int64.of_int net)
                ~device:(Int64.of_int dev) ~ts:(Int64.of_int ts)
                ~bytes:(Int64.of_int ((net * 100) + (dev * 10) + ts))
                ~rate:0.5)
            [ 1; 2; 3; 4 ])
        [ 1; 2; 3; 4; 5; 6 ]
    in
    Client.insert rc "usage" batch;
    Client.insert sc "usage" batch
  done

(* The gate itself: one page and the fully-paged result must match the
   single node byte for byte (rows, order, more_available). *)
let check_query name ~rc ~sc q =
  let pr = Client.query_page rc "usage" q in
  let ps = Client.query_page sc "usage" q in
  Alcotest.(check bool) (name ^ ": page rows identical") true
    (pr.Client.rows = ps.Client.rows);
  Alcotest.(check bool) (name ^ ": more_available identical")
    ps.Client.more_available pr.Client.more_available;
  Alcotest.(check bool) (name ^ ": paged-through rows identical") true
    (Client.query_all rc "usage" q = Client.query_all sc "usage" q)

let query_shapes =
  let open Query in
  [ ("all", all);
    ("all desc", with_direction Desc all);
    ("limit 1", with_limit 1 all);
    ("limit 3 desc", with_limit 3 (with_direction Desc all));
    ("limit 8 (= page)", with_limit 8 all);
    ("limit 20 (> page)", with_limit 20 all);
    ("limit 200 (> total)", with_limit 200 all);
    ("prefix net", prefix [ Value.Int64 3L ]);
    ("prefix net desc", with_direction Desc (prefix [ Value.Int64 3L ]));
    ("prefix net+dev", prefix [ Value.Int64 3L; Value.Int64 2L ]);
    ("prefix missing net", prefix [ Value.Int64 99L ]);
    ("ts band", between ~ts_min:2L ~ts_max:4L all);
    ("ts band desc limit", with_limit 5 (with_direction Desc (between ~ts_min:2L ~ts_max:4L all)));
    ("prefix + ts band", between ~ts_min:3L (prefix [ Value.Int64 5L ]));
    ("key range", { all with key_low = Incl [ Value.Int64 2L ];
                    key_high = Excl [ Value.Int64 5L ] }) ]

let check_latest name ~rc ~sc prefix =
  Alcotest.(check bool) (name ^ ": latest identical") true
    (Client.latest rc "usage" prefix = Client.latest sc "usage" prefix)

(* The router's stats view is the field-wise sum of its shards'. *)
let check_summed_stats ~rc ~nodes =
  (* Flushed tablets read twice: the block-cache counters move too. *)
  Client.flush_before rc "usage" ~ts:100L;
  for _ = 1 to 2 do
    ignore (Client.query_all rc "usage" Query.all)
  done;
  let per_shard =
    List.map (fun n -> Table.stats (Db.table n.n_db "usage")) nodes
  in
  let expected =
    List.fold_left Stats.add (List.hd per_shard) (List.tl per_shard)
  in
  Alcotest.(check bool) "router stats = sum of shard stats" true
    (Client.stats rc "usage" = expected)

let run_equality_gate ~router ~rc ~sc ~nodes =
  load_dataset rc sc;
  List.iter (fun (name, q) -> check_query name ~rc ~sc q) query_shapes;
  (* latest: pinned prefixes and the full fan-out (max-ts ties across
     shards exercise the larger-key tie-break). *)
  check_latest "latest net" ~rc ~sc [ Value.Int64 4L ];
  check_latest "latest net+dev" ~rc ~sc [ Value.Int64 4L; Value.Int64 1L ];
  check_latest "latest missing" ~rc ~sc [ Value.Int64 99L ];
  check_latest "latest all (tie-break)" ~rc ~sc [];
  (* stats are summed across shards. *)
  let s = Client.stats rc "usage" in
  Alcotest.(check int) "summed rows_inserted" 120 s.Stats.rows_inserted;
  check_summed_stats ~rc ~nodes;
  (* placement is visible over the wire. *)
  let pl = Client.placement rc in
  Alcotest.(check int) "backends listed"
    (Placement.shards (Router.placement router))
    (List.length pl.P.pl_backends);
  (* bulk delete routes to the owner(s) and agrees on the count. *)
  let dr = Client.delete_prefix rc "usage" [ Value.Int64 3L ] in
  let ds = Client.delete_prefix sc "usage" [ Value.Int64 3L ] in
  Alcotest.(check int) "delete count identical" ds dr;
  Alcotest.(check int) "deleted a network" 20 dr;
  check_query "post-delete all" ~rc ~sc Query.all;
  check_query "post-delete gap prefix" ~rc ~sc (Query.prefix [ Value.Int64 3L ])

let test_equality_hash () =
  with_cluster ~shards:3 ~policy:(Placement.Hash { vnodes = 64 }) run_equality_gate

let test_equality_range () =
  with_cluster ~shards:3
    ~policy:(Placement.Range [ Value.Int64 3L; Value.Int64 5L ])
    run_equality_gate

(* DDL fans out to every shard: schema evolution through the router
   matches the single node. *)
let test_ddl_fanout () =
  with_cluster ~shards:3 ~policy:(Placement.Hash { vnodes = 64 })
    (fun ~router:_ ~rc ~sc ~nodes ->
      load_dataset rc sc;
      let col =
        { Schema.name = "note"; ctype = Value.T_string;
          default = Value.String "-" }
      in
      Client.add_column rc "usage" col;
      Client.add_column sc "usage" col;
      let (sch_r, _), (sch_s, _) =
        (Client.table_info rc "usage", Client.table_info sc "usage")
      in
      Alcotest.(check bool) "schemas agree" true (Schema.equal sch_r sch_s);
      (* Every backend really got the new column. *)
      List.iter
        (fun n ->
          let c = Client.connect ~port:(Server.port n.n_server) () in
          let sch, _ = Client.table_info c "usage" in
          Alcotest.(check bool) "backend schema evolved" true
            (Schema.equal sch sch_r);
          Client.close c)
        nodes;
      check_query "post-ddl all" ~rc ~sc Query.all;
      Client.drop_table rc "usage";
      Client.drop_table sc "usage";
      Alcotest.(check (list string)) "dropped everywhere" [] (Client.list_tables rc))

(* Rebalance: move one network to another shard mid-flight; results stay
   identical, the epoch bumps, and new inserts land on the new owner. *)
let test_rebalance () =
  with_cluster ~shards:3 ~policy:(Placement.Hash { vnodes = 64 })
    (fun ~router ~rc ~sc ~nodes ->
      load_dataset rc sc;
      let v = Value.Int64 2L in
      let home = Placement.shard_of_value (Router.placement router) v in
      let target = (home + 1) mod 3 in
      let moved = Router.rebalance router ~value:v ~to_shard:target in
      Alcotest.(check int) "whole network moved" 20 moved;
      Alcotest.(check int) "epoch bumped" 1
        (Placement.epoch (Router.placement router));
      Alcotest.(check int) "idempotent: already home" 0
        (Router.rebalance router ~value:v ~to_shard:target);
      List.iter (fun (name, q) -> check_query name ~rc ~sc q) query_shapes;
      (* The rows now physically live on the target shard only. *)
      let on_shard i =
        let c = Client.connect ~port:(Server.port (List.nth nodes i).n_server) () in
        let rows = Client.query_all c "usage" (Query.prefix [ v ]) in
        Client.close c;
        List.length rows
      in
      Alcotest.(check int) "old owner emptied" 0 (on_shard home);
      Alcotest.(check int) "new owner holds the network" 20 (on_shard target);
      (* New inserts follow the override. *)
      let row =
        Support.usage_row ~network:2L ~device:9L ~ts:99L ~bytes:0L ~rate:0.0
      in
      Client.insert rc "usage" [ row ];
      Client.insert sc "usage" [ row ];
      Alcotest.(check int) "insert followed override" 21 (on_shard target);
      check_query "post-rebalance-insert" ~rc ~sc (Query.prefix [ v ]))

(* ---- Insert partial failure across shards ------------------------------ *)

(* Regression: the router used to answer [Insert_ok (List.length rows)]
   for any fan-out whose first shard succeeded, even when a later
   shard's sub-batch failed after earlier shards had already committed.
   Now a mid-batch duplicate on one shard must surface as
   [Partial_insert] naming per-shard landed counts, and retrying just
   the un-landed remainder must converge to the single-node state. *)
let test_router_partial_failure () =
  with_cluster ~shards:3 ~policy:(Placement.Hash { vnodes = 64 })
    (fun ~router ~rc ~sc ~nodes:_ ->
      let schema = Support.usage_schema () in
      Client.create_table rc "usage" schema ~ttl:None;
      Client.create_table sc "usage" schema ~ttl:None;
      (* Two networks owned by different shards, so the batch fans out. *)
      let shard_of net =
        Placement.shard_of_value (Router.placement router) (Value.Int64 net)
      in
      let net_a = 1L in
      let sa = shard_of net_a in
      let net_b =
        let rec find n =
          if shard_of n <> sa then n else find (Int64.add n 1L)
        in
        find 2L
      in
      let sb = shard_of net_b in
      let row net dev ts =
        Support.usage_row ~network:net ~device:dev ~ts ~bytes:0L ~rate:0.0
      in
      (* Pre-existing row on shard [sb]: the batch below collides with it. *)
      let dup = row net_b 1L 1L in
      Client.insert rc "usage" [ dup ];
      Client.insert sc "usage" [ dup ];
      (* Arrival order matters: the single node stops at the duplicate
         (index 3), the router commits each shard's prefix. *)
      let batch =
        [ row net_a 1L 1L; row net_a 2L 1L; row net_b 9L 5L; dup;
          row net_b 3L 2L; row net_a 3L 1L ]
      in
      let landed_r =
        match Client.insert rc "usage" batch with
        | () -> Alcotest.fail "router reported Insert_ok for a partial batch"
        | exception Client.Partial_insert (landed, msg) ->
            Alcotest.(check bool) "router names the duplicate" true
              (Support.contains ~sub:"duplicate" msg);
            landed
      in
      (* Per-shard accounting: all of shard A's sub-batch committed, and
         shard B's prefix before the duplicate. *)
      let label s = Printf.sprintf "shard%d/usage" s in
      Alcotest.(check int) "shard A rows all landed" 3
        (List.assoc (label sa) landed_r);
      Alcotest.(check int) "shard B landed its prefix" 1
        (List.assoc (label sb) landed_r);
      Alcotest.(check int) "no other shards reported" 2 (List.length landed_r);
      (* Single node: same batch stops at the duplicate. *)
      let landed_s =
        match Client.insert sc "usage" batch with
        | () -> Alcotest.fail "single node accepted a duplicate"
        | exception Client.Partial_insert (landed, _) -> landed
      in
      Alcotest.(check int) "single node landed the prefix" 3
        (List.assoc "usage" landed_s);
      (* Each side retries exactly its un-landed remainder (minus the
         duplicate itself); the two states must then be identical. *)
      Client.insert rc "usage" [ row net_b 3L 2L ];
      Client.insert sc "usage" [ row net_b 3L 2L; row net_a 3L 1L ];
      Alcotest.(check int) "converged row count" 6
        (List.length (Client.query_all rc "usage" Query.all));
      check_query "post-partial all" ~rc ~sc Query.all;
      check_query "post-partial net A" ~rc ~sc (Query.prefix [ Value.Int64 net_a ]);
      check_query "post-partial net B" ~rc ~sc (Query.prefix [ Value.Int64 net_b ]);
      (* An all-duplicate batch lands nothing anywhere: plain error, so
         the whole batch is safe to retry. *)
      (match Client.insert rc "usage" [ dup ] with
      | () -> Alcotest.fail "duplicate re-insert accepted"
      | exception Client.Remote_error msg ->
          Alcotest.(check bool) "zero-landed is a plain error" true
            (Support.contains ~sub:"duplicate" msg)))

(* Batched ingest through the router answers queries identically to
   row-at-a-time ingest on a single node: the client-side buffer plus
   [Insert_batch] fan-out change only the wire shape, never the data. *)
let test_router_batched_equality () =
  with_cluster ~shards:3 ~policy:(Placement.Hash { vnodes = 64 })
    (fun ~router:_ ~rc ~sc ~nodes:_ ->
      let schema = Support.usage_schema () in
      Client.create_table rc "usage" schema ~ttl:None;
      Client.create_table sc "usage" schema ~ttl:None;
      for ts = 1 to 5 do
        List.iter
          (fun net ->
            List.iter
              (fun dev ->
                let r =
                  Support.usage_row ~network:(Int64.of_int net)
                    ~device:(Int64.of_int dev) ~ts:(Int64.of_int ts)
                    ~bytes:(Int64.of_int ((net * 100) + (dev * 10) + ts))
                    ~rate:0.5
                in
                (* Routed side buffers; reference side goes row by row. *)
                Client.buffered_insert rc "usage" [ r ];
                Client.insert sc "usage" [ r ])
              [ 1; 2; 3; 4 ])
          [ 1; 2; 3; 4; 5; 6 ];
        (* Flush mid-stream on some rounds so batches of several sizes
           cross the wire, with a straggler buffer left for the end. *)
        if ts mod 2 = 0 then Client.flush rc
      done;
      Client.flush rc;
      Alcotest.(check int) "buffer drained" 0 (Client.pending rc);
      List.iter (fun (name, q) -> check_query name ~rc ~sc q) query_shapes;
      check_latest "latest net" ~rc ~sc [ Value.Int64 4L ];
      let s = Client.stats rc "usage" in
      Alcotest.(check int) "all rows inserted" 120 s.Stats.rows_inserted)

(* ---- Router = single node on insert payloads ------------------------- *)

(* An [Insert_batch] groups section has one reader, [Protocol.walk_groups],
   and a row one check against its table, [Protocol.fit_row], behind
   both the router's split and a single node's landing, so the two
   agree on a payload: both refuse a malformed one whole, landing
   nothing; both land every row of a valid one; and on a well-framed
   one that a single node stops part-way through, both land the same
   rows and answer with the same message. Payloads are random valid
   batches over two existing tables (int64 and string leading keys),
   intact or with trailing bytes, a cut, a value tag outside
   [Value.tag]'s table, or a group count, row count or row arity that is
   negative or larger than the payload holds; or well framed with a cell
   of the wrong type, a row cut short (down to no cells, below its
   leading key column), or a group naming a missing table. *)

type mutation =
  | Intact
  | Trailing of string
  | Cut of int  (** bytes removed from the end *)
  | Bad_tag of int * int  (** (cell index in the payload, tag) *)
  | Group_count of int
  | Row_count of int * int  (** (group index, count) *)
  | Arity of int * int  (** (row index in the payload, arity) *)
  | Wrong_type of int  (** cell index in the payload *)
  | Short of int * int  (** (row index, cells kept), well framed *)
  | Missing_table of int  (** group index *)

(* Both tables keep [ts] in column 2. *)
let payload_tables () =
  [ ("usage", Support.usage_schema ()); ("events", Support.event_schema ()) ]

(* A varint of any int, a negative one included: nine 7-bit groups, as
   a hostile peer may send them ([Binio.put_varint] refuses to). *)
let put_any_varint b v =
  if v >= 0 then Lt_util.Binio.put_varint b v
  else begin
    for i = 0 to 7 do
      Buffer.add_char b (Char.chr (0x80 lor ((v lsr (7 * i)) land 0x7f)))
    done;
    Buffer.add_char b (Char.chr ((v lsr 56) land 0x7f))
  end

(* The groups section written field by field, so a mutation can replace
   any one field. *)
let encode_payload mutation groups =
  let b = Buffer.create 256 in
  let row_i = ref 0 and cell_i = ref 0 in
  put_any_varint b
    (match mutation with Group_count n -> n | _ -> List.length groups);
  List.iteri
    (fun gi (table, rows) ->
      Lt_util.Binio.put_string b
        (match mutation with Missing_table g when g = gi -> "nope" | _ -> table);
      put_any_varint b
        (match mutation with
        | Row_count (g, n) when g = gi -> n
        | _ -> List.length rows);
      List.iter
        (fun row ->
          let row =
            match mutation with
            | Short (r, n) when r = !row_i -> Array.sub row 0 n
            | _ -> row
          in
          put_any_varint b
            (match mutation with
            | Arity (r, n) when r = !row_i -> n
            | _ -> Array.length row);
          incr row_i;
          Array.iter
            (fun v ->
              let v =
                match mutation with
                | Wrong_type c when c = !cell_i -> (
                    match v with Value.Int32 _ -> Value.String "x" | _ -> Value.Int32 7l)
                | _ -> v
              in
              Lt_util.Binio.put_u8 b
                (match mutation with
                | Bad_tag (c, tag) when c = !cell_i -> tag
                | _ -> Value.tag (Value.type_of v));
              incr cell_i;
              Value.encode b v)
            row)
        rows)
    groups;
  let p = Buffer.contents b in
  match mutation with
  | Trailing extra -> p ^ extra
  | Cut n -> String.sub p 0 (String.length p - n)
  | _ -> p

let gen_payload_case =
  let open QCheck.Gen in
  let usage_row =
    map3
      (fun net dev bytes ->
        Support.usage_row ~network:(Int64.of_int net) ~device:(Int64.of_int dev)
          ~ts:0L ~bytes:(Int64.of_int bytes) ~rate:0.5)
      (int_range 1 6) (int_range 1 4) int
  in
  let event_row =
    map3
      (fun net id body ->
        [| Value.String net; Value.String "ap"; Value.Timestamp 0L;
           Value.Int64 (Int64.of_int id); Value.Blob body |])
      (oneofl [ "n1"; "n2"; "n3"; "" ])
      int (string_size (int_bound 6))
  in
  let group =
    oneofl [ "usage"; "events" ] >>= fun table ->
    list_size (int_bound 8) (if table = "usage" then usage_row else event_row)
    >|= fun rows -> (table, rows)
  in
  list_size (int_bound 3) group >>= fun groups ->
  let rows = List.concat_map snd groups in
  let nrows = List.length rows in
  let ncells = List.fold_left (fun n r -> n + Array.length r) 0 rows in
  let ngroups = List.length groups in
  let size = String.length (encode_payload Intact groups) in
  let negative = map (fun n -> -1 - n) (oneof [ small_nat; int_bound max_int ]) in
  let past = map (fun k -> 65537 + k) small_nat in
  let mutation =
    frequency
      ([ (3, return Intact);
         (2, map (fun s -> Trailing s) (string_size (int_range 1 3)));
         (2, map (fun n -> Cut n) (int_range 1 size));
         (1, map (fun n -> Group_count n) (oneof [ negative; past ]));
         (1, map (fun k -> Group_count (ngroups + k)) (int_range 1 3)) ]
      @ (if ngroups = 0 then []
         else
           [ ( 2,
               int_bound (ngroups - 1) >>= fun g ->
               let count = List.length (snd (List.nth groups g)) in
               map
                 (fun n -> Row_count (g, n))
                 (oneof
                    [ negative; map (fun k -> 1 lsl k) (int_range 20 40);
                      map (fun k -> count + k) (int_range 1 3) ]) );
             (2, map (fun g -> Missing_table g) (int_bound (ngroups - 1))) ])
      @ (if nrows = 0 then []
         else
           let last = Array.length (List.nth rows (nrows - 1)) in
           [ ( 2,
               map2
                 (fun r n -> Arity (r, n))
                 (int_bound (nrows - 1))
                 (oneof [ negative; past ]) );
             (* More cells than are left: only the last row's overrun is
                sure to run off the end rather than into the next row. *)
             (1, map (fun k -> Arity (nrows - 1, last + k)) (int_range 1 3));
             (2, map (fun c -> Wrong_type c) (int_bound (ncells - 1)));
             ( 2,
               int_bound (nrows - 1) >>= fun r ->
               map
                 (fun n -> Short (r, n))
                 (int_bound (Array.length (List.nth rows r) - 1)) );
             ( 2,
               map2
                 (fun c tag -> Bad_tag (c, tag))
                 (int_bound (ncells - 1))
                 (int_range 6 255) ) ]))
  in
  mutation >|= fun m -> (groups, m)

let print_payload_case (groups, m) =
  let mutation =
    match m with
    | Intact -> "intact"
    | Trailing s -> Printf.sprintf "trailing %S" s
    | Cut n -> Printf.sprintf "cut %d" n
    | Bad_tag (c, t) -> Printf.sprintf "cell %d tag %d" c t
    | Group_count n -> Printf.sprintf "group count %d" n
    | Row_count (g, n) -> Printf.sprintf "group %d row count %d" g n
    | Arity (r, n) -> Printf.sprintf "row %d arity %d" r n
    | Wrong_type c -> Printf.sprintf "cell %d of the wrong type" c
    | Short (r, n) -> Printf.sprintf "row %d cut to %d cells" r n
    | Missing_table g -> Printf.sprintf "group %d names a missing table" g
  in
  String.concat "\n"
    (mutation
    :: List.map
         (fun (table, rows) ->
           Printf.sprintf "%s: %s" table
             (String.concat "; "
                (List.map
                   (fun r ->
                     String.concat ", "
                       (Array.to_list (Array.map Value.to_string r)))
                   rows)))
         groups)

(* Every row of [table] from [ts_min] on, paged through [handle]. *)
let rows_from handle table schema ~ts_min =
  let fetch query =
    match handle (P.Query { table; query; profile = false }) with
    | P.Row_batch { rows; more_available; scanned; profile } ->
        { Client.rows; more_available; scanned; profile }
    | _ -> Alcotest.fail "query refused"
  in
  let next = Client.pager schema ~fetch (Query.between ~ts_min Query.all) in
  let rec go acc = match next () with Some r -> go (r :: acc) | None -> List.rev acc in
  go []

let test_router_payloads_match_single_node () =
  let nodes = List.init 3 (fun _ -> start_node ()) in
  let reference = start_node () in
  let cluster = Cluster_client.create ~backends:(List.map endpoint_of nodes) () in
  Fun.protect
    ~finally:(fun () ->
      Cluster_client.close cluster;
      List.iter stop_node (reference :: nodes))
    (fun () ->
      let placement =
        Placement.create ~shards:3 ~policy:(Placement.Hash { vnodes = 64 })
      in
      let router = Router.create ~row_limit ~placement ~cluster () in
      let routed = Router.handle router and single = Server.handle reference.n_db in
      List.iter
        (fun (table, schema) ->
          let req = P.Create_table { table; schema; ttl = None } in
          Alcotest.(check bool) ("created " ^ table) true
            (routed req = P.Ok && single req = P.Ok))
        (payload_tables ());
      (* Each case stamps its rows with timestamps of its own, so the
         rows a case landed are those at or past its first one. *)
      let case = ref 0 in
      let prop (groups, mutation) =
        incr case;
        let base = Int64.of_int (!case * 1000) in
        let k = ref 0 in
        let groups =
          List.map
            (fun (table, rows) ->
              ( table,
                List.map
                  (fun r ->
                    let r = Array.copy r in
                    r.(2) <- Value.Timestamp (Int64.add base (Int64.of_int !k));
                    incr k;
                    r)
                  rows ))
            groups
        in
        let payload = encode_payload mutation groups in
        if mutation = Intact then
          Alcotest.(check string) "the test's encoding is the wire's"
            (P.raw_of_payload (P.Groups groups)).P.buf payload;
        let req = P.Insert_batch { groups = P.Raw (P.section_of_string payload) } in
        let answers = (routed req, single req) in
        let landed =
          List.for_all
            (fun (table, schema) ->
              rows_from routed table schema ~ts_min:base
              = rows_from single table schema ~ts_min:base)
            (payload_tables ())
        in
        let none_landed =
          List.for_all
            (fun (table, schema) ->
              rows_from single table schema ~ts_min:base = [])
            (payload_tables ())
        in
        (* Rows landed per table, a routed answer's ["shard<i>/<table>"]
           labels summed over shards. *)
        let per_table counts =
          let table label =
            match String.index_opt label '/' with
            | Some i -> String.sub label (i + 1) (String.length label - i - 1)
            | None -> label
          in
          List.filter_map
            (fun (name, _) ->
              let n =
                List.fold_left
                  (fun acc (label, n) -> if table label = name then acc + n else acc)
                  0 counts
              in
              if n = 0 then None else Some (name, n))
            (payload_tables ())
        in
        match answers with
        | P.Error a, P.Error b -> a = b && landed && none_landed
        | P.Insert_ok a, P.Insert_ok b -> a = b && landed
        | ( P.Insert_partial { landed = a; message = ma },
            P.Insert_partial { landed = b; message = mb } ) ->
            ma = mb && per_table a = per_table b && landed
        | _ -> false
      in
      let _, _, run =
        Support.qcheck
          (QCheck.Test.make ~name:"router = single node on insert payloads"
             ~count:300
             (QCheck.make ~print:print_payload_case gen_payload_case)
             prop)
      in
      run ())

(* ---- Replica failover -------------------------------------------------- *)

(* Kill the only backend; reads fail over to its warm spare and lose
   exactly the rows that never reached durable storage before the last
   sync (§3.4.1's bounded loss). *)
let test_replica_failover () =
  let primary = start_node () in
  let spare_dir = temp_dir () in
  let cleanup = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun g -> try g () with _ -> ()) !cleanup;
      stop_node primary;
      rm_rf spare_dir)
    (fun () ->
      let pc = Client.connect ~port:(Server.port primary.n_server) () in
      Client.create_table pc "usage" (Support.usage_schema ()) ~ttl:None;
      let row i =
        Support.usage_row ~network:1L ~device:(Int64.of_int i)
          ~ts:(Int64.of_int i) ~bytes:0L ~rate:0.0
      in
      Client.insert pc "usage" (List.init 6 (fun i -> row (i + 1)));
      Client.flush_before pc "usage" ~ts:100L;
      (* Spare syncs the durable state... *)
      let replica =
        Replica.start ~config:node_config ~period_s:0.0
          ~vfs:(Lt_vfs.Vfs.real ()) ~primary_dir:primary.n_dir ~dir:spare_dir ()
      in
      cleanup := (fun () -> Replica.stop replica) :: !cleanup;
      Replica.sync_now replica;
      (* ...then the primary takes three more rows it never flushes. *)
      Client.insert pc "usage" (List.init 3 (fun i -> row (i + 7)));
      Client.close pc;
      let rspare = Server.start_custom ~backend:(Replica.backend replica) ~port:0 () in
      cleanup := (fun () -> Server.stop rspare) :: !cleanup;
      (* Probing a spare's placement is metadata, not data: it must not
         promote and end the sync loop. *)
      let probe = Client.connect ~port:(Server.port rspare) () in
      Alcotest.(check string) "spare answers placement probes" "spare"
        (Client.placement probe).P.pl_policy;
      Client.close probe;
      Alcotest.(check bool) "probe did not promote" false
        (Replica.promoted replica);
      let obs = Lt_obs.Obs.create ~clock:Lt_util.Clock.system () in
      let cluster =
        Cluster_client.create ~obs
          ~replicas:[ (0, { Cluster_client.host = "127.0.0.1";
                            port = Server.port rspare }) ]
          ~backends:[ endpoint_of primary ] ()
      in
      let placement =
        Placement.create ~shards:1 ~policy:(Placement.Hash { vnodes = 16 })
      in
      let router = Router.create ~obs ~row_limit ~placement ~cluster () in
      let rserver = Server.start_custom ~backend:(Router.backend router) ~port:0 () in
      cleanup := (fun () -> Server.stop rserver) :: !cleanup;
      let rc = Client.connect ~port:(Server.port rserver) () in
      cleanup := (fun () -> Client.close rc) :: !cleanup;
      Alcotest.(check int) "all rows before the crash" 9
        (List.length (Client.query_all rc "usage" Query.all));
      (* Primary dies. Server.stop flushes, but the spare never resyncs:
         it serves what the last completed sync captured. *)
      let primary_peer = Printf.sprintf "127.0.0.1:%d" (Server.port primary.n_server) in
      Server.stop primary.n_server;
      let rows = Client.query_all rc "usage" Query.all in
      Alcotest.(check int) "flushed+synced rows survive" 6 (List.length rows);
      Alcotest.(check bool) "only un-synced rows lost" true
        (List.map (fun r -> Support.int64_of_cell r.(1)) rows
        = List.init 6 (fun i -> Int64.of_int (i + 1)));
      Alcotest.(check bool) "shard marked over" true
        (Cluster_client.on_replica cluster 0);
      Alcotest.(check bool) "failover counted" true
        (Lt_obs.Metrics.Counter.value
           (Lt_obs.Obs.failovers obs ~backend:primary_peer)
        >= 1);
      Alcotest.(check bool) "spare promoted" true (Replica.promoted replica);
      (* Sticky: the next read goes straight to the replica. *)
      Alcotest.(check int) "reads keep working" 6
        (List.length (Client.query_all rc "usage" Query.all)))

(* ---- Distributed observability ----------------------------------------- *)

(* Sum every series value in a Prometheus text whose line starts with
   [prefix] (values here are integer counts). *)
let sum_series text ~prefix =
  let plen = String.length prefix in
  String.split_on_char '\n' text
  |> List.fold_left
       (fun acc line ->
         if String.length line > plen && String.sub line 0 plen = prefix then
           match String.rindex_opt line ' ' with
           | Some i ->
               acc
               + int_of_float
                   (float_of_string
                      (String.sub line (i + 1) (String.length line - i - 1)))
           | None -> acc
         else acc)
       0

(* An obs-enabled router + client over three obs-enabled backends: a
   fan-out query yields (a) one reassembled trace tree via Get_trace,
   (b) a profile whose per-shard breakdown sums to the totals, and (c)
   a federated /metrics document whose aggregate series equal the sum
   of the shard-labeled ones. *)
let test_distributed_observability () =
  let shards = 3 in
  let nodes = List.init shards (fun _ -> start_node ()) in
  let cleanup = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun g -> try g () with _ -> ()) !cleanup;
      List.iter stop_node nodes)
    (fun () ->
      let robs = Lt_obs.Obs.create ~clock:Lt_util.Clock.system () in
      let cluster =
        Cluster_client.create ~obs:robs
          ~backends:(List.map endpoint_of nodes) ()
      in
      let placement =
        Placement.create ~shards ~policy:(Placement.Hash { vnodes = 64 })
      in
      let router = Router.create ~obs:robs ~row_limit ~placement ~cluster () in
      let rserver =
        Server.start_custom ~backend:(Router.backend router) ~port:0 ()
      in
      cleanup := (fun () -> Server.stop rserver) :: !cleanup;
      let cobs = Lt_obs.Obs.create ~clock:Lt_util.Clock.system () in
      let rc = Client.connect ~obs:cobs ~port:(Server.port rserver) () in
      cleanup := (fun () -> Client.close rc) :: !cleanup;
      Client.create_table rc "usage" (Support.usage_schema ()) ~ttl:None;
      for ts = 1 to 5 do
        Client.insert rc "usage"
          (List.concat_map
             (fun net ->
               List.map
                 (fun dev ->
                   Support.usage_row ~network:(Int64.of_int net)
                     ~device:(Int64.of_int dev) ~ts:(Int64.of_int ts)
                     ~bytes:(Int64.of_int ((net * 100) + (dev * 10) + ts))
                     ~rate:0.5)
                 [ 1; 2; 3; 4 ])
             [ 1; 2; 3; 4; 5; 6 ])
      done;
      (* (b) Profiled fan-out query: the k-way merge pulls a first page
         from every shard, so the breakdown covers all of them. *)
      let page = Client.query_page ~profile:true rc "usage" Query.all in
      let module Profile = Lt_obs.Profile in
      (match page.Client.profile with
      | None -> Alcotest.fail "routed query must honour the profile flag"
      | Some p ->
          Alcotest.(check int) "profile covers every shard" shards
            (List.length p.Profile.p_shards);
          Alcotest.(check int) "profiled returned = page rows"
            (List.length page.Client.rows) p.Profile.p_rows_returned;
          Alcotest.(check int) "shard scans sum to the total"
            p.Profile.p_rows_scanned
            (List.fold_left
               (fun acc (_, s) -> acc + s.Profile.p_rows_scanned)
               0 p.Profile.p_shards);
          Alcotest.(check bool) "total spans the stages" true
            (p.Profile.p_total_us >= 0L
            && p.Profile.p_plan_us >= 0L
            && p.Profile.p_scan_us >= 0L));
      (* (a) The same request's trace, reassembled across processes into
         a single tree: exactly one root (the router's Request span —
         its parent, the client's root span, lives client-side), with
         Route, Backend, and the backends' Request spans beneath it. *)
      let module Trace = Lt_obs.Trace in
      (match Client.last_trace rc with
      | None -> Alcotest.fail "an obs-enabled client records its trace id"
      | Some (hi, lo) ->
          let spans = Client.trace rc (hi, lo) in
          Alcotest.(check bool) "every span belongs to the trace" true
            (spans <> []
            && List.for_all
                 (fun sp ->
                   match sp.Trace.sp_ctx with
                   | Some cx -> Trace.same_trace ~hi ~lo cx
                   | None -> false)
                 spans);
          let has op = List.exists (fun sp -> sp.Trace.sp_op = op) spans in
          Alcotest.(check bool) "router Route span present" true (has Trace.Route);
          Alcotest.(check bool) "backend round trips spanned" true
            (has Trace.Backend);
          let count op =
            List.length (List.filter (fun sp -> sp.Trace.sp_op = op) spans)
          in
          (* One Request span per backend round trip (each Backend span
             pairs with the backend's own Request span), plus the
             router's own; every shard was pulled at least once. *)
          Alcotest.(check int) "request spans: router + backend round trips"
            (count Trace.Backend + 1)
            (count Trace.Request);
          Alcotest.(check bool) "at least one round trip per shard" true
            (count Trace.Backend >= shards);
          let ids = Hashtbl.create 32 in
          List.iter
            (fun sp ->
              match sp.Trace.sp_ctx with
              | Some cx -> Hashtbl.replace ids cx.Trace.cx_span ()
              | None -> ())
            spans;
          let roots =
            List.filter
              (fun sp ->
                match sp.Trace.sp_ctx with
                | Some cx -> not (Hashtbl.mem ids cx.Trace.cx_parent)
                | None -> true)
              spans
          in
          (match roots with
          | [ root ] ->
              Alcotest.(check bool) "the tree's root is the router request"
                true
                (root.Trace.sp_op = Trace.Request)
          | _ ->
              Alcotest.failf "expected one trace root, got %d"
                (List.length roots)));
      (* (c) Federated metrics through the router: shard labels present,
         counters aggregate, and for histograms the merged _count equals
         the sum of the per-shard _counts. *)
      let text = Client.metrics rc in
      let contains sub = Support.contains ~sub text in
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d labeled" i)
            true
            (contains (Printf.sprintf "shard=\"%d\"" i)))
        (List.init shards Fun.id);
      Alcotest.(check bool) "router's own series labeled" true
        (contains "shard=\"router\"");
      Alcotest.(check int) "counter aggregate sums the fleet" 120
        (sum_series text ~prefix:"lt_rows_inserted_total{table=\"usage\"} ");
      let agg =
        sum_series text
          ~prefix:"lt_insert_duration_seconds_count{table=\"usage\"} "
      in
      let per_shard =
        sum_series text
          ~prefix:"lt_insert_duration_seconds_count{table=\"usage\",shard="
      in
      Alcotest.(check bool) "insert histograms observed" true (agg > 0);
      Alcotest.(check int) "federated histogram merge equals sum" agg per_shard)

(* With one shard's server stopped and no replica, the router's scrape
   degrades instead of failing: the live shards' series are still there
   and [lt_router_shard_up] names the dead one. A stats view would be a
   partial sum, so it is refused. *)
let test_degraded_scrape () =
  with_cluster ~shards:3 ~policy:(Placement.Hash { vnodes = 64 })
    (fun ~router:_ ~rc ~sc ~nodes ->
      load_dataset rc sc;
      Server.stop (List.nth nodes 1).n_server;
      let text = Client.metrics rc in
      let contains sub = Support.contains ~sub text in
      Alcotest.(check bool) "live shard 0 series" true
        (contains "lt_rows_inserted_total{table=\"usage\",shard=\"0\"}");
      Alcotest.(check bool) "live shard 2 series" true
        (contains "lt_rows_inserted_total{table=\"usage\",shard=\"2\"}");
      Alcotest.(check bool) "no series from the dead shard" false
        (contains "lt_rows_inserted_total{table=\"usage\",shard=\"1\"}");
      List.iter
        (fun (shard, up) ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %s up=%d" shard up)
            true
            (contains
               (Printf.sprintf "lt_router_shard_up{shard=\"%s\"} %d\n" shard
                  up)))
        [ ("0", 1); ("1", 0); ("2", 1) ];
      match Client.stats rc "usage" with
      | (_ : Stats.snapshot) -> Alcotest.fail "partial stats sum returned"
      | exception Client.Remote_error _ -> ())

(* Regression: every telemetry probe a monitor sends to a warm spare
   must answer in spare mode. [.stats] and [.slow] used to promote it,
   ending its sync loop. *)
let test_spare_probes_never_promote () =
  let primary = start_node () in
  let spare_dir = temp_dir () in
  let cleanup = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun g -> try g () with _ -> ()) !cleanup;
      stop_node primary;
      rm_rf spare_dir)
    (fun () ->
      let pc = Client.connect ~port:(Server.port primary.n_server) () in
      Client.create_table pc "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert pc "usage"
        [ Support.usage_row ~network:1L ~device:1L ~ts:1L ~bytes:0L ~rate:0.0 ];
      Client.flush_before pc "usage" ~ts:100L;
      Client.close pc;
      let replica =
        Replica.start ~config:node_config ~period_s:0.0
          ~vfs:(Lt_vfs.Vfs.real ()) ~primary_dir:primary.n_dir ~dir:spare_dir ()
      in
      cleanup := (fun () -> Replica.stop replica) :: !cleanup;
      Replica.sync_now replica;
      let rspare =
        Server.start_custom ~backend:(Replica.backend replica) ~port:0 ()
      in
      cleanup := (fun () -> Server.stop rspare) :: !cleanup;
      let probe = Client.connect ~port:(Server.port rspare) () in
      cleanup := (fun () -> Client.close probe) :: !cleanup;
      (match Client.stats probe "usage" with
      | (_ : Stats.snapshot) -> Alcotest.fail "a spare has no table stats"
      | exception Client.Remote_error _ -> ());
      ignore (Client.metrics probe : string);
      ignore (Client.slow_ops probe : Lt_obs.Trace.span list);
      ignore (Client.trace probe (1L, 2L) : Lt_obs.Trace.span list);
      ignore (Client.metrics_snapshot probe : Lt_obs.Metrics.snapshot);
      Alcotest.(check bool) "no probe promoted the spare" false
        (Replica.promoted replica))

(* ---- Client backoff ---------------------------------------------------- *)

let dead_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let test_client_backoff () =
  let port = dead_port () in
  let obs = Lt_obs.Obs.create ~clock:Lt_util.Clock.system () in
  let c = Client.create ~obs ~connect_timeout:1.0 ~port () in
  Alcotest.(check bool) "starts disconnected" false (Client.connected c);
  (match Client.ping c with
  | () -> Alcotest.fail "ping without a connection"
  | exception Client.Disconnected -> ());
  let clock = Lt_util.Clock.system in
  let t0 = Lt_util.Clock.now clock in
  (match Client.reconnect ~max_attempts:3 c with
  | () -> Alcotest.fail "connected to a dead port"
  | exception Client.Remote_error _ -> ());
  let elapsed_us = Int64.sub (Lt_util.Clock.now clock) t0 in
  Alcotest.(check bool)
    "backoff slept between attempts" true (elapsed_us >= 140_000L);
  Alcotest.(check int) "every attempt counted" 3
    (Lt_obs.Metrics.Counter.value
       (Lt_obs.Obs.client_reconnects obs ~peer:(Client.peer c)));
  Alcotest.(check bool) "still disconnected" false (Client.connected c)

let suite =
  [
    ("hash placement", `Quick, test_hash_placement);
    ("hash placement is pinned", `Quick, test_hash_placement_golden);
    ("range placement", `Quick, test_range_placement);
    ("placement overrides", `Quick, test_placement_overrides);
    ("router equality gate (hash)", `Quick, test_equality_hash);
    ("router equality gate (range)", `Quick, test_equality_range);
    ("ddl fans out", `Quick, test_ddl_fanout);
    ("rebalance", `Quick, test_rebalance);
    ("router partial failure reports per-shard landed rows", `Quick,
      test_router_partial_failure);
    ("router batched ingest equality", `Quick, test_router_batched_equality);
    ("router = single node on insert payloads", `Quick,
      test_router_payloads_match_single_node);
    ("replica failover", `Quick, test_replica_failover);
    ("telemetry probes never promote a spare", `Quick,
      test_spare_probes_never_promote);
    ("router degraded scrape", `Quick, test_degraded_scrape);
    ("distributed observability", `Quick, test_distributed_observability);
    ("client reconnect backoff", `Quick, test_client_backoff);
  ]
