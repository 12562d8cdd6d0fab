open Littletable
open Lt_util

exception Protocol_error of string

let error fmt = Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

let version = 8

let max_frame = 64 * 1024 * 1024

(* A batch's groups travel either structured (the sender has rows in
   hand) or raw (the receiver captured the wire bytes without decoding
   them). Both spellings share one wire format; [read_request] always
   returns [Raw] so a router can forward row spans and a server can
   transcode rows into stored form ([transcode_rows]) without boxing a
   single value; [groups_of_payload] decodes for a caller that wants
   the values. *)
type batch_payload =
  | Groups of (string * Value.t array list) list
  | Raw of string

type request =
  | Hello of int
  | List_tables
  | Get_table of string
  | Create_table of { table : string; schema : Schema.t; ttl : int64 option }
  | Drop_table of string
  | Query of { table : string; query : Query.t; profile : bool }
  | Latest of { table : string; prefix : Value.t list }
  | Flush_before of { table : string; ts : int64 }
  | Ping
  | Delete_prefix of { table : string; prefix : Value.t list }
  | Add_column of { table : string; column : Schema.column }
  | Widen_column of { table : string; column : string }
  | Set_ttl of { table : string; ttl : int64 option }
  | Get_placement
  | Get_trace of { trace : (int64 * int64) option; slow_only : bool }
      (** retained spans, of one trace and/or only the slow ones *)
  | Get_metrics_snapshot  (** mergeable registry image for federation *)
  | Insert_batch of { groups : batch_payload }
      (** buffered inserts, possibly for several tables, in one frame *)

type placement_info = {
  pl_epoch : int;
  pl_policy : string;
  pl_backends : (string * int) list;
}

type response =
  | Hello_ok of int
  | Tables of string list
  | Table_info of { schema : Schema.t; ttl : int64 option }
  | Ok
  | Insert_ok of int
  | Row_batch of {
      rows : Value.t array list;
      more_available : bool;
      scanned : int;
      profile : Lt_obs.Profile.t option;
    }
  | Latest_row of Value.t array option
  | Error of string
  | Pong
  | Deleted of int
  | Placement_info of placement_info
  | Trace_spans of Lt_obs.Trace.span list
  | Metrics_snapshot of Lt_obs.Metrics.snapshot
  | Insert_partial of { landed : (string * int) list; message : string }
      (** some rows committed before a failure; [landed] names, per
          group label (table or shard), how many rows are in *)

let request_kind = function
  | Hello _ -> "hello"
  | List_tables -> "list_tables"
  | Get_table _ -> "get_table"
  | Create_table _ -> "create_table"
  | Drop_table _ -> "drop_table"
  | Query _ -> "query"
  | Latest _ -> "latest"
  | Flush_before _ -> "flush_before"
  | Ping -> "ping"
  | Delete_prefix _ -> "delete_prefix"
  | Add_column _ -> "add_column"
  | Widen_column _ -> "widen_column"
  | Set_ttl _ -> "set_ttl"
  | Get_placement -> "get_placement"
  | Get_trace _ -> "get_trace"
  | Get_metrics_snapshot -> "get_metrics_snapshot"
  | Insert_batch _ -> "insert_batch"

(* ---- Tagged values ---------------------------------------------------- *)

let value_tag = function
  | Value.Int32 _ -> 0
  | Value.Int64 _ -> 1
  | Value.Double _ -> 2
  | Value.Timestamp _ -> 3
  | Value.String _ -> 4
  | Value.Blob _ -> 5

(* The tag a value of a column of type [ctype] travels with. *)
let tag_of_ctype ctype = value_tag (Value.zero ctype)

let put_value b v =
  Binio.put_u8 b (value_tag v);
  Value.encode b v

let get_value cur =
  let tag = Binio.get_u8 cur in
  let ctype =
    match tag with
    | 0 -> Value.T_int32
    | 1 -> Value.T_int64
    | 2 -> Value.T_double
    | 3 -> Value.T_timestamp
    | 4 -> Value.T_string
    | 5 -> Value.T_blob
    | n -> error "bad value tag %d" n
  in
  Value.decode ctype cur

let put_row b row =
  Binio.put_varint b (Array.length row);
  Array.iter (put_value b) row

let get_row cur =
  let n = Binio.get_varint cur in
  if n < 0 || n > 65536 then error "implausible row arity %d" n;
  Array.init n (fun _ -> get_value cur)

let put_rows b rows =
  Binio.put_varint b (List.length rows);
  List.iter (put_row b) rows

let get_rows cur =
  let n = Binio.get_varint cur in
  if n < 0 then error "implausible row count %d" n;
  List.init n (fun _ -> get_row cur)

(* Step over one tagged value without constructing it: the zero-copy
   side of {!get_value}, used by span scans that only need offsets. *)
let skip_value cur =
  match Binio.get_u8 cur with
  | 0 -> Binio.skip cur 4
  | 1 | 2 | 3 -> Binio.skip cur 8
  | 4 | 5 -> Binio.skip cur (Binio.get_varint cur)
  | n -> error "bad value tag %d" n

let put_groups b groups =
  Binio.put_varint b (List.length groups);
  List.iter
    (fun (table, rows) ->
      Binio.put_string b table;
      put_rows b rows)
    groups

(* Groups whose rows were appended to a buffer one by one ({!put_row}):
   the same groups section [put_groups] writes, framed around the row
   bytes without a walk over the rows. *)
let raw_of_encoded_groups groups =
  let size =
    List.fold_left
      (fun n (table, _, rows) -> n + String.length table + Buffer.length rows + 16)
      8 groups
  in
  let b = Buffer.create size in
  Binio.put_varint b (List.length groups);
  List.iter
    (fun (table, count, rows) ->
      Binio.put_string b table;
      Binio.put_varint b count;
      Buffer.add_buffer b rows)
    groups;
  Buffer.contents b

let decode_groups payload =
  let cur = Binio.cursor payload in
  let n = Binio.get_varint cur in
  if n < 0 || n > 65536 then error "implausible group count %d" n;
  let groups =
    List.init n (fun _ ->
        let table = Binio.get_string cur in
        let rows = get_rows cur in
        (table, rows))
  in
  Binio.expect_end cur;
  groups

let groups_of_payload = function
  | Groups gs -> gs
  | Raw payload -> decode_groups payload

(* ---- Rows in stored form ------------------------------------------------- *)

let skip_row cur =
  let n = Binio.get_varint cur in
  if n < 0 || n > 65536 then error "implausible row arity %d" n;
  for _ = 1 to n do skip_value cur done

(* The framing checks of [decode_groups], made by stepping over every
   value instead of building it. *)
let raw_groups payload =
  let cur = Binio.cursor payload in
  let n = Binio.get_varint cur in
  if n < 0 || n > 65536 then error "implausible group count %d" n;
  let groups =
    List.init n (fun _ ->
        let table = Binio.get_string cur in
        let count = Binio.get_varint cur in
        if count < 0 then error "implausible row count %d" count;
        let pos = cur.Binio.pos in
        for _ = 1 to count do skip_row cur done;
        (table, count, pos))
  in
  Binio.expect_end cur;
  groups

(* A wire cell's [Value.encode] bytes are a stored value cell's, so a
   row is transcoded by checking each tag against its column's type,
   writing the key cells' order-preserving form and copying the others.
   [spans] holds, per column of the current row, where its cell starts
   (past the tag), where its content starts (past a string's length)
   and where it ends. A row that does not fit the schema is decoded
   and refused by [Schema.validate_row], so it fails with the message
   the boxed path gives. *)
let transcode_rows payload ~pos ~count schema =
  let cols = Schema.columns schema and pkey = Schema.pkey schema in
  let ncols = Array.length cols in
  let tags = Array.map (fun c -> tag_of_ctype c.Schema.ctype) cols in
  let is_key = Array.init ncols (Schema.is_pkey schema) in
  let spans = Array.make (3 * ncols) 0 in
  let cur = Binio.cursor ~pos payload in
  let left = ref count in
  let refuse start =
    Schema.validate_row schema (get_row (Binio.cursor ~pos:start payload));
    raise (Schema.Invalid "row does not match the schema")
  in
  fun () ->
    if !left = 0 then None
    else begin
      decr left;
      let start = cur.Binio.pos in
      if Binio.get_varint cur <> ncols then refuse start;
      let vlen = ref 0 in
      for i = 0 to ncols - 1 do
        let tag = Binio.get_u8 cur in
        if tag <> tags.(i) then refuse start;
        spans.(3 * i) <- cur.Binio.pos;
        if tag >= 4 then begin
          (* A string or blob: its length, then its bytes. *)
          let len = Binio.get_varint cur in
          spans.((3 * i) + 1) <- cur.Binio.pos;
          Binio.skip cur len
        end
        else begin
          spans.((3 * i) + 1) <- cur.Binio.pos;
          Binio.skip cur (if tag = 0 then 4 else 8)
        end;
        spans.((3 * i) + 2) <- cur.Binio.pos;
        if not is_key.(i) then vlen := !vlen + cur.Binio.pos - spans.(3 * i)
      done;
      (* The key: sized, then written, cell by cell in key order. *)
      let klen = ref 0 in
      for j = 0 to Array.length pkey - 1 do
        let i = pkey.(j) in
        let off = spans.((3 * i) + 1) in
        klen :=
          !klen
          + Key_codec.cell_size cols.(i).Schema.ctype payload ~off
              ~len:(spans.((3 * i) + 2) - off)
      done;
      let key = Bytes.create !klen in
      let at = ref 0 in
      for j = 0 to Array.length pkey - 1 do
        let i = pkey.(j) in
        let off = spans.((3 * i) + 1) in
        at :=
          Key_codec.blit_cell cols.(i).Schema.ctype payload ~off
            ~len:(spans.((3 * i) + 2) - off) key ~pos:!at
      done;
      let value = Bytes.create !vlen in
      let at = ref 0 in
      for i = 0 to ncols - 1 do
        if not is_key.(i) then begin
          let n = spans.((3 * i) + 2) - spans.(3 * i) in
          Bytes.blit_string payload spans.(3 * i) value !at n;
          at := !at + n
        end
      done;
      Some (Bytes.unsafe_to_string key, Bytes.unsafe_to_string value)
    end

let raw_of_payload = function
  | Raw payload -> payload
  | Groups gs ->
      let b = Buffer.create 256 in
      put_groups b gs;
      Buffer.contents b

let put_opt_i64 b = function
  | None -> Binio.put_u8 b 0
  | Some v ->
      Binio.put_u8 b 1;
      Binio.put_i64 b v

let get_opt_i64 cur =
  match Binio.get_u8 cur with
  | 0 -> None
  | 1 -> Some (Binio.get_i64 cur)
  | n -> error "bad option tag %d" n

(* ---- Query ------------------------------------------------------------- *)

let put_key_bound b = function
  | Query.Unbounded -> Binio.put_u8 b 0
  | Query.Incl vs ->
      Binio.put_u8 b 1;
      Binio.put_varint b (List.length vs);
      List.iter (put_value b) vs
  | Query.Excl vs ->
      Binio.put_u8 b 2;
      Binio.put_varint b (List.length vs);
      List.iter (put_value b) vs

(* An element count; a varint that overflowed to a negative one is a
   malformed frame, not an argument for [List.init]. *)
let get_count cur what =
  let n = Binio.get_varint cur in
  if n < 0 then error "negative %s count %d" what n;
  n

let get_key_bound cur =
  match Binio.get_u8 cur with
  | 0 -> Query.Unbounded
  | 1 ->
      let n = get_count cur "key bound" in
      Query.Incl (List.init n (fun _ -> get_value cur))
  | 2 ->
      let n = get_count cur "key bound" in
      Query.Excl (List.init n (fun _ -> get_value cur))
  | n -> error "bad key bound tag %d" n

let put_query b (q : Query.t) =
  put_key_bound b q.Query.key_low;
  put_key_bound b q.Query.key_high;
  put_opt_i64 b q.Query.ts_min;
  put_opt_i64 b q.Query.ts_max;
  Binio.put_u8 b (match q.Query.direction with Query.Asc -> 0 | Query.Desc -> 1);
  (match q.Query.limit with
  | None -> Binio.put_u8 b 0
  | Some n ->
      Binio.put_u8 b 1;
      Binio.put_varint b n);
  match q.Query.projection with
  | None -> Binio.put_u8 b 0
  | Some cols ->
      Binio.put_u8 b 1;
      Binio.put_varint b (List.length cols);
      List.iter (Binio.put_varint b) cols

let get_query cur =
  let key_low = get_key_bound cur in
  let key_high = get_key_bound cur in
  let ts_min = get_opt_i64 cur in
  let ts_max = get_opt_i64 cur in
  let direction =
    match Binio.get_u8 cur with
    | 0 -> Query.Asc
    | 1 -> Query.Desc
    | n -> error "bad direction %d" n
  in
  let limit =
    match Binio.get_u8 cur with
    | 0 -> None
    | 1 -> Some (Binio.get_varint cur)
    | n -> error "bad limit tag %d" n
  in
  let projection =
    match Binio.get_u8 cur with
    | 0 -> None
    | 1 ->
        let n = Binio.get_varint cur in
        if n < 0 || n > 4096 then error "implausible projection width %d" n;
        Some (List.init n (fun _ -> Binio.get_varint cur))
    | n -> error "bad projection tag %d" n
  in
  { Query.key_low; key_high; ts_min; ts_max; direction; limit; projection }

(* ---- Requests ----------------------------------------------------------- *)

let write_request b = function
  | Hello v ->
      Binio.put_u8 b 0;
      Binio.put_varint b v
  | List_tables -> Binio.put_u8 b 1
  | Get_table t ->
      Binio.put_u8 b 2;
      Binio.put_string b t
  | Create_table { table; schema; ttl } ->
      Binio.put_u8 b 3;
      Binio.put_string b table;
      Schema.encode b schema;
      put_opt_i64 b ttl
  | Drop_table t ->
      Binio.put_u8 b 4;
      Binio.put_string b t
  | Query { table; query; profile } ->
      Binio.put_u8 b 6;
      Binio.put_string b table;
      put_query b query;
      Binio.put_u8 b (if profile then 1 else 0)
  | Latest { table; prefix } ->
      Binio.put_u8 b 7;
      Binio.put_string b table;
      Binio.put_varint b (List.length prefix);
      List.iter (put_value b) prefix
  | Flush_before { table; ts } ->
      Binio.put_u8 b 8;
      Binio.put_string b table;
      Binio.put_i64 b ts
  | Ping -> Binio.put_u8 b 10
  | Delete_prefix { table; prefix } ->
      Binio.put_u8 b 11;
      Binio.put_string b table;
      Binio.put_varint b (List.length prefix);
      List.iter (put_value b) prefix
  | Add_column { table; column } ->
      Binio.put_u8 b 12;
      Binio.put_string b table;
      Schema.encode_column b column
  | Widen_column { table; column } ->
      Binio.put_u8 b 13;
      Binio.put_string b table;
      Binio.put_string b column
  | Set_ttl { table; ttl } ->
      Binio.put_u8 b 14;
      Binio.put_string b table;
      put_opt_i64 b ttl
  | Get_placement -> Binio.put_u8 b 17
  | Get_trace { trace; slow_only } -> (
      Binio.put_u8 b 18;
      Binio.put_u8 b (if slow_only then 1 else 0);
      match trace with
      | None -> Binio.put_u8 b 0
      | Some (hi, lo) ->
          Binio.put_u8 b 1;
          Binio.put_i64 b hi;
          Binio.put_i64 b lo)
  | Get_metrics_snapshot -> Binio.put_u8 b 19
  | Insert_batch { groups } -> (
      Binio.put_u8 b 20;
      match groups with
      | Groups gs -> put_groups b gs
      | Raw payload -> Buffer.add_string b payload)

let get_flag cur what =
  match Binio.get_u8 cur with
  | 0 -> false
  | 1 -> true
  | n -> error "bad %s flag %d" what n

let read_request cur =
  match Binio.get_u8 cur with
  | 0 -> Hello (Binio.get_varint cur)
  | 1 -> List_tables
  | 2 -> Get_table (Binio.get_string cur)
  | 3 ->
      let table = Binio.get_string cur in
      let schema = Schema.decode cur in
      let ttl = get_opt_i64 cur in
      Create_table { table; schema; ttl }
  | 4 -> Drop_table (Binio.get_string cur)
  | 6 ->
      let table = Binio.get_string cur in
      let query = get_query cur in
      let profile = get_flag cur "profile" in
      Query { table; query; profile }
  | 7 ->
      let table = Binio.get_string cur in
      let n = get_count cur "prefix" in
      Latest { table; prefix = List.init n (fun _ -> get_value cur) }
  | 8 ->
      let table = Binio.get_string cur in
      let ts = Binio.get_i64 cur in
      Flush_before { table; ts }
  | 10 -> Ping
  | 11 ->
      let table = Binio.get_string cur in
      let n = get_count cur "prefix" in
      Delete_prefix { table; prefix = List.init n (fun _ -> get_value cur) }
  | 12 ->
      let table = Binio.get_string cur in
      let column = Schema.decode_column cur in
      Add_column { table; column }
  | 13 ->
      let table = Binio.get_string cur in
      let column = Binio.get_string cur in
      Widen_column { table; column }
  | 14 ->
      let table = Binio.get_string cur in
      let ttl = get_opt_i64 cur in
      Set_ttl { table; ttl }
  | 17 -> Get_placement
  | 18 ->
      let slow_only = get_flag cur "slow" in
      let trace =
        if get_flag cur "trace" then
          let hi = Binio.get_i64 cur in
          let lo = Binio.get_i64 cur in
          Some (hi, lo)
        else None
      in
      Get_trace { trace; slow_only }
  | 19 -> Get_metrics_snapshot
  | 20 ->
      (* Captured undecoded: the single-node server transcodes rows
         straight into stored form ([transcode_rows]); the router never
         decodes forwarded columns at all (it scans spans, see
         Router.split_raw). *)
      Insert_batch { groups = Raw (Binio.rest cur) }
  | n -> error "bad request tag %d" n

(* ---- Responses ------------------------------------------------------------ *)

let span_op_tag = function
  | Lt_obs.Trace.Insert -> 0
  | Lt_obs.Trace.Query -> 1
  | Lt_obs.Trace.Latest -> 2
  | Lt_obs.Trace.Flush -> 3
  | Lt_obs.Trace.Merge -> 4
  | Lt_obs.Trace.Stall -> 5
  | Lt_obs.Trace.Request -> 6
  | Lt_obs.Trace.Route -> 7
  | Lt_obs.Trace.Backend -> 8
  | Lt_obs.Trace.Failover -> 9

let span_op_of_tag = function
  | 0 -> Lt_obs.Trace.Insert
  | 1 -> Lt_obs.Trace.Query
  | 2 -> Lt_obs.Trace.Latest
  | 3 -> Lt_obs.Trace.Flush
  | 4 -> Lt_obs.Trace.Merge
  | 5 -> Lt_obs.Trace.Stall
  | 6 -> Lt_obs.Trace.Request
  | 7 -> Lt_obs.Trace.Route
  | 8 -> Lt_obs.Trace.Backend
  | 9 -> Lt_obs.Trace.Failover
  | n -> error "bad span op tag %d" n

let put_ctx b (c : Lt_obs.Trace.ctx) =
  Binio.put_i64 b c.Lt_obs.Trace.cx_trace_hi;
  Binio.put_i64 b c.cx_trace_lo;
  Binio.put_i64 b c.cx_span;
  Binio.put_i64 b c.cx_parent

let get_ctx cur =
  let cx_trace_hi = Binio.get_i64 cur in
  let cx_trace_lo = Binio.get_i64 cur in
  let cx_span = Binio.get_i64 cur in
  let cx_parent = Binio.get_i64 cur in
  { Lt_obs.Trace.cx_trace_hi; cx_trace_lo; cx_span; cx_parent }

let put_opt_ctx b = function
  | None -> Binio.put_u8 b 0
  | Some c ->
      Binio.put_u8 b 1;
      put_ctx b c

let get_opt_ctx cur =
  match Binio.get_u8 cur with
  | 0 -> None
  | 1 -> Some (get_ctx cur)
  | n -> error "bad ctx tag %d" n

(* ---- Query profiles ---------------------------------------------------- *)

(* Shard sub-profiles recurse; a decoder bound keeps hostile input from
   stack-diving (real nesting is router -> backend, depth 2). *)
let max_profile_depth = 4

let rec put_profile b (p : Lt_obs.Profile.t) =
  Binio.put_i64 b p.Lt_obs.Profile.p_plan_us;
  Binio.put_i64 b p.p_scan_us;
  Binio.put_i64 b p.p_stall_us;
  Binio.put_i64 b p.p_total_us;
  List.iter (Binio.put_varint b)
    [ p.p_rows_scanned; p.p_rows_returned; p.p_tablets; p.p_tablets_pruned;
      p.p_cache_hits; p.p_cache_misses;
      p.p_blocks_footer_answered; p.p_columns_decoded; p.p_bytes_in;
      p.p_bytes_out ];
  Binio.put_varint b (List.length p.p_shards);
  List.iter
    (fun (label, sub) ->
      Binio.put_string b label;
      put_profile b sub)
    p.p_shards

let rec get_profile ?(depth = 0) cur =
  if depth > max_profile_depth then error "profile nesting too deep";
  let p_plan_us = Binio.get_i64 cur in
  let p_scan_us = Binio.get_i64 cur in
  let p_stall_us = Binio.get_i64 cur in
  let p_total_us = Binio.get_i64 cur in
  let v () = Binio.get_varint cur in
  let p_rows_scanned = v () in
  let p_rows_returned = v () in
  let p_tablets = v () in
  let p_tablets_pruned = v () in
  let p_cache_hits = v () in
  let p_cache_misses = v () in
  let p_blocks_footer_answered = v () in
  let p_columns_decoded = v () in
  let p_bytes_in = v () in
  let p_bytes_out = v () in
  let n = Binio.get_varint cur in
  if n < 0 || n > 4096 then error "implausible shard profile count %d" n;
  let p_shards =
    List.init n (fun _ ->
        let label = Binio.get_string cur in
        let sub = get_profile ~depth:(depth + 1) cur in
        (label, sub))
  in
  { Lt_obs.Profile.p_plan_us; p_scan_us; p_stall_us; p_total_us;
    p_rows_scanned; p_rows_returned; p_tablets; p_tablets_pruned;
    p_cache_hits; p_cache_misses; p_blocks_footer_answered;
    p_columns_decoded; p_bytes_in; p_bytes_out; p_shards }

let put_span b (sp : Lt_obs.Trace.span) =
  Binio.put_u8 b (span_op_tag sp.Lt_obs.Trace.sp_op);
  Binio.put_string b sp.sp_table;
  Binio.put_i64 b sp.sp_start_us;
  put_opt_ctx b sp.sp_ctx;
  put_profile b sp.sp_prof

let get_span cur =
  let sp_op = span_op_of_tag (Binio.get_u8 cur) in
  let sp_table = Binio.get_string cur in
  let sp_start_us = Binio.get_i64 cur in
  let sp_ctx = get_opt_ctx cur in
  let sp_prof = get_profile cur in
  { Lt_obs.Trace.sp_op; sp_table; sp_start_us; sp_ctx; sp_prof }

let put_opt_profile b = function
  | None -> Binio.put_u8 b 0
  | Some p ->
      Binio.put_u8 b 1;
      put_profile b p

let get_opt_profile cur =
  match Binio.get_u8 cur with
  | 0 -> None
  | 1 -> Some (get_profile cur)
  | n -> error "bad profile tag %d" n

(* ---- Metrics snapshots ------------------------------------------------- *)

let snap_kind_tag = function
  | Lt_obs.Metrics.K_counter -> 0
  | Lt_obs.Metrics.K_gauge -> 1
  | Lt_obs.Metrics.K_histogram -> 2

let snap_kind_of_tag = function
  | 0 -> Lt_obs.Metrics.K_counter
  | 1 -> Lt_obs.Metrics.K_gauge
  | 2 -> Lt_obs.Metrics.K_histogram
  | n -> error "bad metric kind tag %d" n

let put_snapshot b (snap : Lt_obs.Metrics.snapshot) =
  Binio.put_varint b (List.length snap);
  List.iter
    (fun (f : Lt_obs.Metrics.snap_family) ->
      Binio.put_string b f.Lt_obs.Metrics.sn_name;
      Binio.put_string b f.sn_help;
      Binio.put_u8 b (snap_kind_tag f.sn_kind);
      Binio.put_varint b (Array.length f.sn_bounds);
      Array.iter (Binio.put_double b) f.sn_bounds;
      Binio.put_varint b (List.length f.sn_children);
      List.iter
        (fun (c : Lt_obs.Metrics.snap_child) ->
          Binio.put_varint b (List.length c.Lt_obs.Metrics.sn_labels);
          List.iter
            (fun (k, v) ->
              Binio.put_string b k;
              Binio.put_string b v)
            c.sn_labels;
          Binio.put_varint b c.sn_count;
          Binio.put_double b c.sn_fval;
          Binio.put_double b c.sn_max;
          Binio.put_varint b (Array.length c.sn_buckets);
          Array.iter (Binio.put_varint b) c.sn_buckets)
        f.sn_children)
    snap

let get_snapshot cur =
  let nfam = Binio.get_varint cur in
  if nfam < 0 || nfam > 65536 then error "implausible family count %d" nfam;
  List.init nfam (fun _ ->
      let sn_name = Binio.get_string cur in
      let sn_help = Binio.get_string cur in
      let sn_kind = snap_kind_of_tag (Binio.get_u8 cur) in
      let nbounds = Binio.get_varint cur in
      if nbounds < 0 || nbounds > 1024 then
        error "implausible bound count %d" nbounds;
      let sn_bounds = Array.init nbounds (fun _ -> Binio.get_double cur) in
      let nchildren = Binio.get_varint cur in
      if nchildren < 0 || nchildren > 1_000_000 then
        error "implausible child count %d" nchildren;
      let sn_children =
        List.init nchildren (fun _ ->
            let nlabels = Binio.get_varint cur in
            if nlabels < 0 || nlabels > 64 then
              error "implausible label count %d" nlabels;
            let sn_labels =
              List.init nlabels (fun _ ->
                  let k = Binio.get_string cur in
                  let v = Binio.get_string cur in
                  (k, v))
            in
            let sn_count = Binio.get_varint cur in
            let sn_fval = Binio.get_double cur in
            let sn_max = Binio.get_double cur in
            let nbuckets = Binio.get_varint cur in
            if nbuckets < 0 || nbuckets > 1025 then
              error "implausible bucket count %d" nbuckets;
            let sn_buckets = Array.init nbuckets (fun _ -> Binio.get_varint cur) in
            { Lt_obs.Metrics.sn_labels; sn_count; sn_fval; sn_max; sn_buckets })
      in
      { Lt_obs.Metrics.sn_name; sn_help; sn_kind; sn_bounds; sn_children })

let write_response b = function
  | Hello_ok v ->
      Binio.put_u8 b 0;
      Binio.put_varint b v
  | Tables names ->
      Binio.put_u8 b 1;
      Binio.put_varint b (List.length names);
      List.iter (Binio.put_string b) names
  | Table_info { schema; ttl } ->
      Binio.put_u8 b 2;
      Schema.encode b schema;
      put_opt_i64 b ttl
  | Ok -> Binio.put_u8 b 3
  | Insert_ok n ->
      Binio.put_u8 b 4;
      Binio.put_varint b n
  | Row_batch { rows; more_available; scanned; profile } ->
      Binio.put_u8 b 5;
      put_rows b rows;
      Binio.put_u8 b (if more_available then 1 else 0);
      Binio.put_varint b scanned;
      put_opt_profile b profile
  | Latest_row None ->
      Binio.put_u8 b 6;
      Binio.put_u8 b 0
  | Latest_row (Some row) ->
      Binio.put_u8 b 6;
      Binio.put_u8 b 1;
      put_row b row
  | Error msg ->
      Binio.put_u8 b 8;
      Binio.put_string b msg
  | Pong -> Binio.put_u8 b 9
  | Deleted n ->
      Binio.put_u8 b 10;
      Binio.put_varint b n
  | Placement_info { pl_epoch; pl_policy; pl_backends } ->
      Binio.put_u8 b 13;
      Binio.put_varint b pl_epoch;
      Binio.put_string b pl_policy;
      Binio.put_varint b (List.length pl_backends);
      List.iter
        (fun (host, port) ->
          Binio.put_string b host;
          Binio.put_varint b port)
        pl_backends
  | Trace_spans spans ->
      Binio.put_u8 b 14;
      Binio.put_varint b (List.length spans);
      List.iter (put_span b) spans
  | Metrics_snapshot snap ->
      Binio.put_u8 b 15;
      put_snapshot b snap
  | Insert_partial { landed; message } ->
      Binio.put_u8 b 16;
      Binio.put_varint b (List.length landed);
      List.iter
        (fun (label, n) ->
          Binio.put_string b label;
          Binio.put_varint b n)
        landed;
      Binio.put_string b message

let read_response cur =
  match Binio.get_u8 cur with
  | 0 -> Hello_ok (Binio.get_varint cur)
  | 1 ->
      let n = get_count cur "table" in
      Tables (List.init n (fun _ -> Binio.get_string cur))
  | 2 ->
      let schema = Schema.decode cur in
      let ttl = get_opt_i64 cur in
      Table_info { schema; ttl }
  | 3 -> Ok
  | 4 -> Insert_ok (Binio.get_varint cur)
  | 5 ->
      let rows = get_rows cur in
      let more_available = Binio.get_u8 cur = 1 in
      let scanned = Binio.get_varint cur in
      let profile = get_opt_profile cur in
      Row_batch { rows; more_available; scanned; profile }
  | 6 -> (
      match Binio.get_u8 cur with
      | 0 -> Latest_row None
      | 1 -> Latest_row (Some (get_row cur))
      | n -> error "bad latest tag %d" n)
  | 8 -> Error (Binio.get_string cur)
  | 9 -> Pong
  | 10 -> Deleted (Binio.get_varint cur)
  | 13 ->
      let pl_epoch = Binio.get_varint cur in
      let pl_policy = Binio.get_string cur in
      let n = Binio.get_varint cur in
      if n < 0 || n > 65536 then error "implausible backend count %d" n;
      let pl_backends =
        List.init n (fun _ ->
            let host = Binio.get_string cur in
            let port = Binio.get_varint cur in
            (host, port))
      in
      Placement_info { pl_epoch; pl_policy; pl_backends }
  | 14 ->
      let n = Binio.get_varint cur in
      if n < 0 || n > 1_000_000 then error "implausible span count %d" n;
      Trace_spans (List.init n (fun _ -> get_span cur))
  | 15 -> Metrics_snapshot (get_snapshot cur)
  | 16 ->
      let n = Binio.get_varint cur in
      if n < 0 || n > 65536 then error "implausible landed count %d" n;
      let landed =
        List.init n (fun _ ->
            let label = Binio.get_string cur in
            let count = Binio.get_varint cur in
            (label, count))
      in
      let message = Binio.get_string cur in
      Insert_partial { landed; message }
  | n -> error "bad response tag %d" n

(* ---- Socket framing ------------------------------------------------------ *)

let write_all_bytes fd b =
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    let n = Unix.write fd b !off (len - !off) in
    off := !off + n
  done

let read_exact fd n =
  let b = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let got = Unix.read fd b !off (n - !off) in
    if got = 0 then raise End_of_file;
    off := !off + got
  done;
  Bytes.unsafe_to_string b

(* Writev-style gathered output: a message is encoded directly after
   four reserved length bytes, the length is patched in place, and the
   whole frame leaves in one [Unix.write] — so a batch of N rows costs
   one syscall and one buffer-to-bytes copy, not a header write plus a
   header^payload concatenation per message. *)
let frame_buffer () =
  let b = Buffer.create 256 in
  Binio.put_u32 b 0;
  b

let send_buffer fd b =
  let len = Buffer.length b - 4 in
  if len > max_frame then error "frame of %d bytes exceeds limit" len;
  let bytes = Buffer.to_bytes b in
  Bytes.set_int32_le bytes 0 (Int32.of_int len);
  write_all_bytes fd bytes

let send_frame fd payload =
  let b = frame_buffer () in
  Buffer.add_string b payload;
  send_buffer fd b

let recv_frame fd =
  let hdr = read_exact fd 4 in
  let len = Binio.get_u32 (Binio.cursor hdr) in
  if len > max_frame then error "frame of %d bytes exceeds limit" len;
  read_exact fd len

(* Requests carry an optional trace context as a frame-level prefix —
   one flag byte plus four i64s when present — so propagation needs no
   per-request-tag changes and costs one byte when tracing is off. *)
let send_request ?ctx fd req =
  let b = frame_buffer () in
  put_opt_ctx b ctx;
  write_request b req;
  send_buffer fd b

let recv_request fd =
  let cur = Binio.cursor (recv_frame fd) in
  let ctx = get_opt_ctx cur in
  let req = read_request cur in
  Binio.expect_end cur;
  (ctx, req)

let send_response fd resp =
  let b = frame_buffer () in
  write_response b resp;
  send_buffer fd b

let recv_response fd =
  let cur = Binio.cursor (recv_frame fd) in
  let resp = read_response cur in
  Binio.expect_end cur;
  resp

(* The exported span and record decoders report truncation as a
   protocol error, like every other malformed frame. *)
let protocol_errors f cur =
  try f cur with Binio.Corrupt msg -> error "%s" msg

let get_span = protocol_errors get_span

let get_profile = protocol_errors (fun cur -> get_profile cur)
