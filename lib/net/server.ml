open Littletable
module Obs = Lt_obs.Obs
module Metrics = Lt_obs.Metrics
module Trace = Lt_obs.Trace

let log = Logs.Src.create "lt.server" ~doc:"LittleTable server"

module Log = (val Logs.src_log log)

(* What the connection loops need from whatever is behind them — a local
   [Db.t] or a cluster router. Keeping the socket plumbing generic means
   the router front-end is wire-identical to a single-node server. *)
type backend = {
  b_handle : Protocol.request -> Protocol.response;
  b_obs : Obs.t;
  b_maintenance : (unit -> unit) option;
  b_on_stop : unit -> unit;  (** final flush/teardown, runs once in [stop] *)
}

type t = {
  backend : backend;
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics_fd : Unix.file_descr option;
  metrics_bound_port : int option;
  running : bool Atomic.t;
  mutable threads : (Thread.t * Unix.file_descr) list;
      (** live connections; each handler adds its own entry and removes
          it before closing its fd *)
  accept_thread : Thread.t option ref;
  maint_thread : Thread.t option ref;
  metrics_thread : Thread.t option ref;
  mutex : Mutex.t;
  stopped : Condition.t;
}

let port t = t.bound_port

let metrics_port t = t.metrics_bound_port

(* What a client is told about the exception that ended an insert. *)
let insert_failure = function
  | Table.Duplicate_key key -> Printf.sprintf "duplicate key (%s)" key
  | Schema.Invalid msg | Invalid_argument msg | Lt_util.Binio.Corrupt msg -> msg
  | Lt_vfs.Vfs.Io_error msg -> "io error: " ^ msg
  | e -> Printexc.to_string e

let no_such_table name = Printf.sprintf "no such table %S" name

(* The one table lookup of a request that names a table. *)
let with_table db name f =
  match Db.find_table db name with
  | Some tbl -> f tbl
  | None -> Protocol.Error (no_such_table name)

let handle db req =
  let open Protocol in
  match req with
  | Hello v ->
      if v <> Protocol.version then
        Error (Printf.sprintf "unsupported protocol version %d" v)
      else Hello_ok Protocol.version
  | Ping -> Pong
  | List_tables -> Tables (Db.table_names db)
  | Get_table name ->
      with_table db name (fun tbl ->
          Table_info { schema = Table.schema tbl; ttl = Table.ttl tbl })
  | Create_table { table; schema; ttl } -> (
      match Db.create_table db table schema ~ttl with
      | (_ : Table.t) -> Ok
      | exception Invalid_argument msg -> Error msg)
  | Drop_table name -> (
      match Db.drop_table db name with
      | () -> Ok
      | exception Not_found -> Error (no_such_table name))
  | Insert_batch { groups = payload } -> (
      (* Groups run in order; on a failure the answer names how many
         rows of every attempted group are in (rows before a duplicate
         or invalid row stay committed), so the client resends only the
         remainder. The payload arrives raw (undecoded) from the frame
         reader; a structured one (an in-process caller's) is encoded
         to its wire bytes first, as the router does. The payload is
         checked whole, so a malformed one lands nothing; then each row
         is transcoded straight from its wire bytes into stored form as
         it lands. *)
      let raw = Protocol.raw_of_payload payload in
      let failed landed msg =
        if List.for_all (fun (_, n) -> n = 0) landed then Error msg
        else Insert_partial { landed = List.rev landed; message = msg }
      in
      let rec run landed = function
        | [] -> Insert_ok (List.fold_left (fun acc (_, n) -> acc + n) 0 landed)
        | (table, count, pos) :: rest -> (
            match Db.find_table db table with
            | None -> failed landed (no_such_table table)
            | Some tbl -> (
                match
                  Table.insert_encoded tbl (Protocol.transcode_rows raw ~pos ~count)
                with
                | Result.Ok () -> run ((table, count) :: landed) rest
                | Result.Error (n, e) ->
                    failed ((table, n) :: landed) (insert_failure e)))
      in
      match Protocol.raw_groups raw with
      | exception (Protocol.Protocol_error msg | Lt_util.Binio.Corrupt msg) ->
          Error msg
      | groups -> run [] groups)
  | Query { table; query; profile } ->
      with_table db table (fun tbl ->
          let r = Table.query ~profile tbl query in
          Row_batch
            {
              rows = r.Table.rows;
              more_available = r.Table.more_available;
              scanned = r.Table.scanned;
              profile = r.Table.profile;
            })
  | Latest { table; prefix } ->
      with_table db table (fun tbl ->
          match Table.latest tbl prefix with
          | row -> Latest_row row
          | exception Schema.Invalid msg -> Error msg)
  | Flush_before { table; ts = _ } ->
      (* Every row inserted before the request, whatever its timestamp,
         is covered by a full group-commit round. *)
      with_table db table (fun tbl ->
          Table.flush_all tbl;
          Ok)
  | Delete_prefix { table; prefix } ->
      with_table db table (fun tbl ->
          match Table.delete_prefix tbl prefix with
          | n -> Deleted n
          | exception Schema.Invalid msg -> Error msg)
  | Add_column { table; column } ->
      with_table db table (fun tbl ->
          match Table.add_column tbl column with
          | () -> Ok
          | exception Schema.Invalid msg -> Error msg)
  | Widen_column { table; column } ->
      with_table db table (fun tbl ->
          match Table.widen_column tbl column with
          | () -> Ok
          | exception Schema.Invalid msg -> Error msg)
  | Set_ttl { table; ttl } ->
      with_table db table (fun tbl ->
          Table.set_ttl tbl ttl;
          Ok)
  | Get_placement ->
      Placement_info { pl_epoch = 0; pl_policy = "single"; pl_backends = [] }
  | Get_trace { trace; slow_only } ->
      Trace_spans (Trace.find ?trace ~slow_only (Obs.trace (Db.obs db)))
  | Get_metrics_snapshot ->
      Metrics_snapshot (Metrics.snapshot (Obs.registry (Db.obs db)))

let db_backend db =
  {
    b_handle = handle db;
    b_obs = Db.obs db;
    b_maintenance = Some (fun () -> Db.maintenance db);
    b_on_stop = (fun () -> Db.flush_all db);
  }

let client_loop t fd =
  (* The handler registers itself, so it can never deregister before it
     is registered. [stop] clears [running] before it takes the list, so
     a handler registering too late to be shut down sees that and
     leaves. *)
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      if Atomic.get t.running then
        t.threads <- (Thread.self (), fd) :: t.threads);
  let obs = t.backend.b_obs in
  let finished = ref false in
  while Atomic.get t.running && not !finished do
    match Protocol.recv_request fd with
    | incoming_ctx, req ->
        let t0 = Obs.now_us obs in
        (* The request span: child of the caller's context when one came
           over the wire, a fresh root otherwise. Handler-side engine
           spans attach under it via the thread's ambient context. *)
        let ctx =
          if Obs.enabled obs then
            Some
              (match incoming_ctx with
              | Some c -> Trace.child_of c
              | None -> Trace.new_root ~clock:(Obs.clock obs))
          else None
        in
        let resp =
          Trace.with_ctx ctx (fun () ->
              try t.backend.b_handle req with
              | Protocol.Protocol_error msg | Lt_util.Binio.Corrupt msg ->
                  Protocol.Error msg
              | Lt_vfs.Vfs.Io_error msg -> Protocol.Error ("io error: " ^ msg)
              | Invalid_argument msg -> Protocol.Error msg)
        in
        (match ctx with
        | Some c ->
            Obs.record_op obs
              ~hist:(Obs.request_hist obs ~kind:(Protocol.request_kind req))
              ~op:Trace.Request
              ~table:(Protocol.request_kind req)
              ~t0 ~ctx:c (Obs.elapsed obs ~t0)
        | None -> ());
        (try Protocol.send_response fd resp
         with Unix.Unix_error _ -> finished := true)
    | exception (End_of_file | Unix.Unix_error _) -> finished := true
    | exception Protocol.Protocol_error msg ->
        Log.warn (fun m -> m "malformed frame: %s" msg);
        finished := true
  done;
  (* Deregister before closing: a closed fd number can be reused by any
     other socket in the process, and [stop] must never shut that one
     down. *)
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      t.threads <- List.filter (fun (_, f) -> f <> fd) t.threads);
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  (* Poll with a timeout rather than blocking in accept: a thread stuck
     in accept(2) is not reliably woken when another thread closes the
     listening socket, so [stop] could hang on the join. *)
  while Atomic.get t.running do
    match Unix.select [ t.listen_fd ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
            (* Mirror of the client side: responses are single gathered
               writes, so Nagle only adds latency. *)
            Unix.setsockopt fd Unix.TCP_NODELAY true;
            ignore (Thread.create (client_loop t) fd)
        | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* ---- Metrics HTTP listener ------------------------------------------- *)

let write_string fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  try
    while !off < len do
      let n = Unix.write fd b !off (len - !off) in
      off := !off + n
    done
  with Unix.Unix_error _ -> ()

(* One short-lived connection per scrape: read the request head, serve
   /metrics, close. Handled inline on the listener thread — a metrics
   scrape every few seconds does not need concurrency. The body is the
   backend's own [Get_metrics_snapshot] answer, rendered, so it is the
   same document the wire view ([Client.metrics]) shows. *)
let render_metrics backend =
  match backend.b_handle Protocol.Get_metrics_snapshot with
  | Protocol.Metrics_snapshot snap -> Metrics.render_snapshot snap
  | _ -> ""

let handle_metrics_conn t fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let buf = Bytes.create 4096 in
      let n = try Unix.read fd buf 0 4096 with Unix.Unix_error _ -> 0 in
      if n > 0 then begin
        let head = Bytes.sub_string buf 0 n in
        let first_line =
          match String.index_opt head '\r' with
          | Some i -> String.sub head 0 i
          | None -> head
        in
        let path =
          match String.split_on_char ' ' first_line with
          | _meth :: path :: _ -> path
          | _ -> ""
        in
        let status, body =
          match path with
          | "/metrics" | "/" -> ("200 OK", render_metrics t.backend)
          | _ -> ("404 Not Found", "not found\n")
        in
        write_string fd
          (Printf.sprintf
             "HTTP/1.1 %s\r\n\
              Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
              Content-Length: %d\r\n\
              Connection: close\r\n\
              \r\n\
              %s"
             status (String.length body) body)
      end)

let metrics_loop t fd =
  (* Same select-with-timeout pattern as [accept_loop], for the same
     reason: [stop] must be able to join this thread. *)
  while Atomic.get t.running do
    match Unix.select [ fd ] [] [] 0.1 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept fd with
        | conn, _ -> handle_metrics_conn t conn
        | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let maintenance_loop t period maintenance =
  while Atomic.get t.running do
    (* Sleep in small slices so [stop] is prompt. *)
    let slept = ref 0.0 in
    while Atomic.get t.running && !slept < period do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done;
    if Atomic.get t.running then
      try maintenance ()
      with exn ->
        Log.err (fun m -> m "maintenance failed: %s" (Printexc.to_string exn))
  done

let listen_on port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  (fd, bound)

let start_custom ?(maintenance_period_s = 1.0) ?metrics_port ~backend ~port ()
    =
  (* A peer that disconnects before reading its replies must surface as
     EPIPE on the handler's write, not as a signal killing the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd, bound_port = listen_on port in
  let metrics =
    match metrics_port with
    | None -> None
    | Some p -> (
        match listen_on p with
        | pair -> Some pair
        | exception e ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            raise e)
  in
  let t =
    {
      backend;
      listen_fd = fd;
      bound_port;
      metrics_fd = Option.map fst metrics;
      metrics_bound_port = Option.map snd metrics;
      running = Atomic.make true;
      threads = [];
      accept_thread = ref None;
      maint_thread = ref None;
      metrics_thread = ref None;
      mutex = Mutex.create ();
      stopped = Condition.create ();
    }
  in
  t.accept_thread := Some (Thread.create accept_loop t);
  (match backend.b_maintenance with
  | Some m when maintenance_period_s > 0.0 ->
      t.maint_thread :=
        Some (Thread.create (fun () -> maintenance_loop t maintenance_period_s m) ())
  | _ -> ());
  (match t.metrics_fd with
  | Some mfd -> t.metrics_thread := Some (Thread.create (metrics_loop t) mfd)
  | None -> ());
  Log.info (fun m -> m "listening on 127.0.0.1:%d" bound_port);
  (match t.metrics_bound_port with
  | Some p -> Log.info (fun m -> m "metrics on http://127.0.0.1:%d/metrics" p)
  | None -> ());
  t

let start ?maintenance_period_s ?metrics_port ~db ~port () =
  let t =
    start_custom ?maintenance_period_s ?metrics_port ~backend:(db_backend db)
      ~port ()
  in
  (match Db.scan_pool db with
  | Some pool ->
      Log.info (fun m ->
          m "parallel scans over %d worker domain%s (shared across clients)"
            (Lt_exec.Pool.size pool)
            (if Lt_exec.Pool.size pool = 1 then "" else "s"))
  | None -> Log.info (fun m -> m "parallel scans disabled (query_domains=0)"));
  t

(* [stop] may run inside one of the server's own threads: OCaml signal
   handlers execute on whichever thread next reaches a safepoint, and the
   select-with-timeout loops make the accept/metrics threads the likely
   candidates. Joining the current thread would deadlock forever. *)
let join_unless_self th =
  if Thread.id th <> Thread.id (Thread.self ()) then Thread.join th

let stop t =
  if Atomic.get t.running then begin
    Atomic.set t.running false;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.metrics_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (match !(t.accept_thread) with Some th -> join_unless_self th | None -> ());
    (match !(t.maint_thread) with Some th -> join_unless_self th | None -> ());
    (match !(t.metrics_thread) with Some th -> join_unless_self th | None -> ());
    (* Unblock handlers waiting in recv, then join them. The shutdowns
       happen in the critical section that takes the list: a handler
       deregisters under [t.mutex] before closing its fd, so every fd
       shut down here is still open and still that handler's. *)
    let threads =
      Lt_util.Mutexes.with_lock t.mutex (fun () ->
          let ths = t.threads in
          t.threads <- [];
          List.iter
            (fun (_, fd) ->
              try Unix.shutdown fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            ths;
          ths)
    in
    List.iter (fun (th, _) -> join_unless_self th) threads;
    t.backend.b_on_stop ();
    Lt_util.Mutexes.with_lock t.mutex (fun () -> Condition.broadcast t.stopped)
  end

let wait t =
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      while Atomic.get t.running do
        Condition.wait t.stopped t.mutex
      done)
