open Littletable
module Obs = Lt_obs.Obs
module Metrics = Lt_obs.Metrics

exception Remote_error of string

exception Disconnected

exception Partial_insert of (string * int) list * string

type t = {
  host : string;
  port : int;
  peer : string;
  obs : Obs.t;
  connect_timeout : float option;
  clock : Lt_util.Clock.t;  (** times the buffer's flush interval *)
  batch_rows : int;
  batch_interval_us : int64;
  mutable fd : Unix.file_descr option;
  schemas : (string, Schema.t * int64 option) Hashtbl.t;
  mutex : Mutex.t;  (** one outstanding request per connection *)
  mutable profiling : bool;  (** ask for per-query profiles by default *)
  mutable profiles : Lt_obs.Profile.t list;  (** newest first; see [take_profiles] *)
  mutable last_trace : (int64 * int64) option;  (** newest wire trace id *)
  mutable buf_groups : (string * int ref * Buffer.t) list;
      (** pending buffered inserts, per table, newest group first, each
          already in wire encoding — [buffered_insert] encodes rows as
          they arrive, so [flush] assembles the frame by concatenation
          instead of re-walking the rows. Every row here is
          not-yet-sent — [flush] removes rows from the buffer before
          the wire write, so nothing is ever replayed *)
  mutable buf_count : int;
  mutable buf_deadline : int64;  (** flush due once [Clock.now >= this] *)
}

let peer t = t.peer

let connect_error host port e =
  Remote_error
    (Printf.sprintf "connect %s:%d: %s" host port (Unix.error_message e))

(* Plain blocking connect, or — when a timeout is set — a non-blocking
   connect raced against select(2) so a black-holed backend cannot stall
   the router for the kernel's full TCP timeout. *)
let connect_fd ?timeout host port =
  (* A server gone mid-request must surface as EPIPE on the write, which
     [roundtrip] turns into [Disconnected], not as a signal killing the
     process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    (match timeout with
    | None -> Unix.connect fd addr
    | Some tmo ->
        Unix.set_nonblock fd;
        (try Unix.connect fd addr
         with Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
           match Unix.select [] [ fd ] [] tmo with
           | _, _ :: _, _ -> (
               match Unix.getsockopt_error fd with
               | None -> ()
               | Some e -> raise (Unix.Unix_error (e, "connect", "")))
           | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))));
        Unix.clear_nonblock fd);
    (* The protocol is strict request/response and frames leave in one
       write; Nagle would hold each frame's final partial segment until
       the peer ACKs, adding a round trip of idle latency per message. *)
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    fd
  with Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (connect_error host port e)

let drop_connection t =
  (match t.fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None

(* Every outbound request carries a trace context when this client's
   observability is on: a child of the calling thread's ambient context
   (one statement = one trace, even across resubmitted pages) or a fresh
   root. The round trip is recorded as a [Backend] span in this
   process's own ring — span only, no histogram, so the router's
   backend-latency series (owned by [Cluster_client]) is not double
   counted. *)
let roundtrip t req =
  let ctx =
    if Obs.enabled t.obs then
      Some
        (match Lt_obs.Trace.current () with
        | Some c -> Lt_obs.Trace.child_of c
        | None -> Lt_obs.Trace.new_root ~clock:(Obs.clock t.obs))
    else None
  in
  let t0 = Obs.now_us t.obs in
  let resp =
    Lt_util.Mutexes.with_lock t.mutex
      (fun () ->
        match t.fd with
        | None -> raise Disconnected
        | Some fd -> (
            match
              Protocol.send_request ?ctx fd req;
              Protocol.recv_response fd
            with
            | resp -> resp
            | exception (End_of_file | Unix.Unix_error _) ->
                drop_connection t;
                raise Disconnected))
  in
  (match ctx with
  | Some c ->
      Lt_util.Mutexes.with_lock t.mutex (fun () ->
          t.last_trace <- Some (c.Lt_obs.Trace.cx_trace_hi, c.cx_trace_lo));
      Obs.record_op t.obs ~op:Lt_obs.Trace.Backend ~table:t.peer ~t0 ~ctx:c
        (Obs.elapsed t.obs ~t0)
  | None -> ());
  resp

let request = roundtrip

let expect_ok = function
  | Protocol.Ok -> ()
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "unexpected response")

let hello t =
  match roundtrip t (Protocol.Hello Protocol.version) with
  | Protocol.Hello_ok _ -> ()
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad hello response")

(* Take every pending buffered row out, oldest first, as a finished
   [Insert_batch] payload (the groups section in wire order), emptying
   the buffer in the same locked step; [None] when nothing is pending.
   Emptying the buffer before the wire write is the no-replay
   guarantee: whatever happens to the send, the buffer never holds a
   row the server might already have, so a later flush or reconnect
   cannot double-insert. *)
let take_pending t =
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      match t.buf_groups with
      | [] -> None
      | newest_first ->
          let payload =
            Protocol.raw_of_encoded_groups
              (List.rev_map
                 (fun (tbl, count, rows) -> (tbl, !count, rows))
                 newest_first)
          in
          t.buf_groups <- [];
          t.buf_count <- 0;
          t.buf_deadline <- Int64.max_int;
          Some payload)

(* The one insert request, shared by [insert] and [flush]. *)
let send_batch t groups =
  match roundtrip t (Protocol.Insert_batch { groups }) with
  | Protocol.Insert_ok _ -> ()
  | Protocol.Insert_partial { landed; message } ->
      raise (Partial_insert (landed, message))
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad insert response")

let flush t =
  Option.iter (fun payload -> send_batch t (Protocol.Raw payload)) (take_pending t)

let buffered_insert t table rows =
  if rows <> [] then begin
    let due =
      Lt_util.Mutexes.with_lock t.mutex (fun () ->
          let was_empty = t.buf_count = 0 in
          let count, gbuf =
            match t.buf_groups with
            | (tbl, count, gbuf) :: _ when String.equal tbl table ->
                (count, gbuf)
            | _ ->
                let count = ref 0 and gbuf = Buffer.create 1024 in
                t.buf_groups <- (table, count, gbuf) :: t.buf_groups;
                (count, gbuf)
          in
          List.iter
            (fun row ->
              Protocol.put_row gbuf row;
              incr count;
              t.buf_count <- t.buf_count + 1)
            rows;
          if was_empty then
            t.buf_deadline <-
              Int64.add (Lt_util.Clock.now t.clock) t.batch_interval_us;
          t.buf_count >= t.batch_rows
          || Lt_util.Clock.now t.clock >= t.buf_deadline)
    in
    if due then flush t
  end

let pending t = Lt_util.Mutexes.with_lock t.mutex (fun () -> t.buf_count)

let create ?(obs = Obs.noop) ?connect_timeout ?(clock = Lt_util.Clock.system)
    ?(batch_rows = 256) ?(batch_interval_ms = 50) ?(host = "127.0.0.1") ~port
    () =
  if batch_rows < 1 then invalid_arg "Client.create: batch_rows < 1";
  if batch_interval_ms < 0 then
    invalid_arg "Client.create: batch_interval_ms < 0";
  {
    host;
    port;
    peer = Printf.sprintf "%s:%d" host port;
    obs;
    connect_timeout;
    clock;
    batch_rows;
    batch_interval_us = Lt_util.Clock.msec batch_interval_ms;
    fd = None;
    schemas = Hashtbl.create 8;
    mutex = Mutex.create ();
    profiling = false;
    profiles = [];
    last_trace = None;
    buf_groups = [];
    buf_count = 0;
    buf_deadline = Int64.max_int;
  }

let connected t =
  Lt_util.Mutexes.with_lock t.mutex (fun () -> t.fd <> None)

(* Exponential backoff between attempts: 50 ms doubling to a 2 s cap.
   The first attempt is immediate; with the default 5 attempts a dead
   peer costs ~750 ms of sleep before [Remote_error] propagates. *)
let backoff_delay k = Float.min 2.0 (0.05 *. Float.of_int (1 lsl k))

let reconnect ?(max_attempts = 5) t =
  if max_attempts < 1 then invalid_arg "Client.reconnect: max_attempts < 1";
  let rec attempt k =
    Lt_util.Mutexes.with_lock t.mutex (fun () -> drop_connection t);
    Metrics.Counter.inc (Obs.client_reconnects t.obs ~peer:t.peer) 1;
    match connect_fd ?timeout:t.connect_timeout t.host t.port with
    | fd ->
        Lt_util.Mutexes.with_lock t.mutex (fun () ->
            t.fd <- Some fd;
            Hashtbl.reset t.schemas);
        hello t;
        (* Deliver rows buffered across the outage — they were never
           sent (flush empties the buffer before each wire write), so
           this is flush-or-fail, never a replay and never a silent
           drop. A failure here propagates to the caller. *)
        flush t
    | exception (Remote_error _ as e) ->
        if k + 1 >= max_attempts then raise e
        else begin
          Thread.delay (backoff_delay k);
          attempt (k + 1)
        end
  in
  attempt 0

let connect ?obs ?connect_timeout ?clock ?batch_rows ?batch_interval_ms ?host
    ~port () =
  let t =
    create ?obs ?connect_timeout ?clock ?batch_rows ?batch_interval_ms ?host
      ~port ()
  in
  reconnect ~max_attempts:1 t;
  t

let close t = Lt_util.Mutexes.with_lock t.mutex (fun () -> drop_connection t)

let ping t =
  match roundtrip t Protocol.Ping with
  | Protocol.Pong -> ()
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad ping response")

let list_tables t =
  match roundtrip t Protocol.List_tables with
  | Protocol.Tables names -> names
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad tables response")

let table_info t name =
  let cached =
    Lt_util.Mutexes.with_lock t.mutex (fun () ->
        Hashtbl.find_opt t.schemas name)
  in
  match cached with
  | Some info -> info
  | None -> (
      (* The roundtrip stays outside the mutex: it blocks on the wire,
         and a concurrent miss merely repeats an idempotent fetch. *)
      match roundtrip t (Protocol.Get_table name) with
      | Protocol.Table_info { schema; ttl } ->
          Lt_util.Mutexes.with_lock t.mutex (fun () ->
              Hashtbl.replace t.schemas name (schema, ttl));
          (schema, ttl)
      | Protocol.Error msg -> raise (Remote_error msg)
      | _ -> raise (Remote_error "bad table info response"))

let create_table t name schema ~ttl =
  expect_ok (roundtrip t (Protocol.Create_table { table = name; schema; ttl }))

let drop_table t name =
  Lt_util.Mutexes.with_lock t.mutex (fun () -> Hashtbl.remove t.schemas name);
  expect_ok (roundtrip t (Protocol.Drop_table name))

let insert t table rows = send_batch t (Protocol.Groups [ (table, rows) ])

type page = {
  rows : Value.t array list;
  more_available : bool;
  scanned : int;
  profile : Lt_obs.Profile.t option;
}

let set_profiling t b = t.profiling <- b

let profiling t = t.profiling

let take_profiles t =
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      let ps = t.profiles in
      t.profiles <- [];
      List.rev ps)

let last_trace t = Lt_util.Mutexes.with_lock t.mutex (fun () -> t.last_trace)

let query_page ?profile t table query =
  (* Explicit [?profile] (the router) bypasses the sticky flag and the
     accumulator — only implicit (shell-style) profiles are retained for
     [take_profiles], so a router never accumulates unboundedly. *)
  let implicit = profile = None in
  let profile = Option.value profile ~default:t.profiling in
  match roundtrip t (Protocol.Query { table; query; profile }) with
  | Protocol.Row_batch { rows; more_available; scanned; profile = p } ->
      (match p with
      | Some prof when implicit ->
          Lt_util.Mutexes.with_lock t.mutex (fun () ->
              t.profiles <- prof :: t.profiles)
      | _ -> ());
      { rows; more_available; scanned; profile = p }
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad query response")

(* Advance the query past [last_row]: the new lower (ascending) or upper
   (descending) bound excludes the full primary key of the last row
   received — the adaptor's resubmission step (§3.5). *)
let advance_past schema (q : Query.t) last_row =
  let key_values =
    Array.to_list (Array.map (fun i -> last_row.(i)) (Schema.pkey schema))
  in
  match q.Query.direction with
  | Query.Asc -> { q with Query.key_low = Query.Excl key_values }
  | Query.Desc -> { q with Query.key_high = Query.Excl key_values }

let pager schema ~fetch query =
  let remaining = ref query.Query.limit in
  let next_q = ref (Some query) in
  let batch = ref [] in
  let rec next () =
    match (!batch, !remaining) with
    | _, Some 0 -> None
    | row :: rest, _ ->
        batch := rest;
        remaining := Option.map pred !remaining;
        Some row
    | [], _ -> (
        match !next_q with
        | None -> None
        | Some q ->
            let page = fetch q in
            batch := page.rows;
            (next_q :=
               if not page.more_available then None
               else
                 match List.rev page.rows with
                 | last :: _ -> Some (advance_past schema q last)
                 | [] -> None);
            next ())
  in
  next

let query_iter t table query =
  let schema, _ = table_info t table in
  pager schema ~fetch:(query_page t table) query

let query_all t table query =
  let it = query_iter t table query in
  let rec go acc =
    match it () with None -> List.rev acc | Some row -> go (row :: acc)
  in
  go []

let latest t table prefix =
  match roundtrip t (Protocol.Latest { table; prefix }) with
  | Protocol.Latest_row row -> row
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad latest response")

let flush_before t table ~ts =
  expect_ok (roundtrip t (Protocol.Flush_before { table; ts }))

let delete_prefix t table prefix =
  match roundtrip t (Protocol.Delete_prefix { table; prefix }) with
  | Protocol.Deleted n -> n
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad delete response")

let invalidate_schema t table =
  Lt_util.Mutexes.with_lock t.mutex (fun () -> Hashtbl.remove t.schemas table)

let add_column t table column =
  invalidate_schema t table;
  expect_ok (roundtrip t (Protocol.Add_column { table; column }))

let widen_column t table ~column =
  invalidate_schema t table;
  expect_ok (roundtrip t (Protocol.Widen_column { table; column }))

let set_ttl t table ~ttl =
  invalidate_schema t table;
  expect_ok (roundtrip t (Protocol.Set_ttl { table; ttl }))

let placement t =
  match roundtrip t Protocol.Get_placement with
  | Protocol.Placement_info info -> info
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad placement response")

(* Every telemetry view below is one of two answers, rendered here. *)

let metrics_snapshot t =
  match roundtrip t Protocol.Get_metrics_snapshot with
  | Protocol.Metrics_snapshot snap -> snap
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad metrics snapshot response")

let metrics t = Metrics.render_snapshot (metrics_snapshot t)

let stats t table =
  match Stats.of_metrics ~table (metrics_snapshot t) with
  | Ok s -> s
  | Error msg -> raise (Remote_error msg)

let spans t ~trace ~slow_only =
  match roundtrip t (Protocol.Get_trace { trace; slow_only }) with
  | Protocol.Trace_spans spans -> spans
  | Protocol.Error msg -> raise (Remote_error msg)
  | _ -> raise (Remote_error "bad trace response")

let trace t id = spans t ~trace:(Some id) ~slow_only:false

(* A router's answer joins several processes' rings, so "newest" is by
   completion time, not by list position. *)
let slow_ops ?(n = 20) t =
  let ended sp =
    Int64.add sp.Lt_obs.Trace.sp_start_us (Lt_obs.Trace.duration_us sp)
  in
  spans t ~trace:None ~slow_only:true
  |> List.rev
  |> List.stable_sort (fun a b -> Int64.compare (ended b) (ended a))
  |> List.filteri (fun i _ -> i < n)

let sql_backend t =
  {
    Lt_sql.Executor.b_schema =
      (fun name ->
        match table_info t name with
        | schema, _ -> Some schema
        | exception Remote_error _ -> None);
    b_query =
      (fun name q f ->
        let it = query_iter t name q in
        f (fun () -> Option.map (fun row -> ("", row)) (it ())));
    (* No wire aggregation: the client streams rows and aggregates
       locally. Projection pushdown still rides [b_query]'s Query.t. *)
    b_query_agg = None;
    b_insert = (fun name rows ->
        try insert t name rows
        with Remote_error msg -> raise (Lt_sql.Executor.Exec_error msg));
    b_create = (fun name schema ~ttl ->
        try create_table t name schema ~ttl
        with Remote_error msg -> raise (Lt_sql.Executor.Exec_error msg));
    b_drop = (fun name ->
        try drop_table t name
        with Remote_error msg -> raise (Lt_sql.Executor.Exec_error msg));
    b_tables = (fun () -> list_tables t);
    b_now = (fun () -> Lt_util.Clock.now Lt_util.Clock.system);
    b_delete_prefix =
      (fun name prefix ->
        try delete_prefix t name prefix
        with Remote_error msg -> raise (Lt_sql.Executor.Exec_error msg));
    b_add_column =
      (fun name col ->
        try add_column t name col
        with Remote_error msg -> raise (Lt_sql.Executor.Exec_error msg));
    b_widen_column =
      (fun name cname ->
        try widen_column t name ~column:cname
        with Remote_error msg -> raise (Lt_sql.Executor.Exec_error msg));
    b_set_ttl =
      (fun name ttl ->
        try set_ttl t name ~ttl
        with Remote_error msg -> raise (Lt_sql.Executor.Exec_error msg));
  }

let sql t input = Lt_sql.Executor.execute (sql_backend t) input
