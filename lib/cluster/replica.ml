open Littletable
module Server = Lt_net.Server
module Protocol = Lt_net.Protocol
module Sync = Lt_vfs.Sync

let log = Logs.Src.create "lt.replica" ~doc:"LittleTable warm-spare replica"

module Log = (val Logs.src_log log)

type t = {
  vfs : Lt_vfs.Vfs.t;
  primary_dir : string;
  dir : string;
  config : Config.t option;
  clock : Lt_util.Clock.t option;
  period_s : float;
  running : bool Atomic.t;
  db : Db.t option Atomic.t;
  mutable thread : Thread.t option;
  mutex : Mutex.t;  (** guards promotion *)
  sync_mutex : Mutex.t;  (** serializes sync passes *)
}

let promoted t = Atomic.get t.db <> None

let db t = Atomic.get t.db

(* One rsync-until-stable of the primary's directory tree (§3.5). The
   primary may be mid-write or already dead: a failed pass is logged and
   retried on the next period, never fatal. *)
let sync_now t =
  Lt_util.Mutexes.with_lock t.sync_mutex (fun () ->
      if not (promoted t) then
        match
          Sync.until_stable ~src:t.vfs ~src_dir:t.primary_dir ~dst:t.vfs
            ~dst_dir:t.dir ()
        with
        | (_ : Sync.stats * bool) -> ()
        | exception Lt_vfs.Vfs.Io_error msg ->
            Log.warn (fun m -> m "sync pass failed: %s" msg))

let sync_loop t =
  while Atomic.get t.running do
    sync_now t;
    (* Sleep in small slices so promotion and stop are prompt. *)
    let slept = ref 0.0 in
    while Atomic.get t.running && !slept < t.period_s do
      Thread.delay 0.05;
      slept := !slept +. 0.05
    done
  done

let join_unless_self th =
  if Thread.id th <> Thread.id (Thread.self ()) then Thread.join th

(* Stop the sync loop and open the spare's copy as a live database.
   Deliberately NO final sync pass: promotion happens because the
   primary is presumed dead, so the spare serves exactly what the last
   completed sync made durable — rows newer than that are the bounded
   data loss of §3.4.1. Idempotent. *)
let promote t =
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      match Atomic.get t.db with
      | Some db -> db
      | None ->
          Atomic.set t.running false;
          (match t.thread with
          | Some th ->
              join_unless_self th;
              t.thread <- None
          | None -> ());
          Log.info (fun m ->
              m "promoting spare %s (last synced from %s)" t.dir t.primary_dir);
          let db =
            Db.open_ ?config:t.config ?clock:t.clock ~vfs:t.vfs ~dir:t.dir ()
          in
          Atomic.set t.db (Some db);
          db)

let start ?config ?clock ?(period_s = 10.0) ~vfs ~primary_dir ~dir () =
  let t =
    {
      vfs;
      primary_dir;
      dir;
      config;
      clock;
      period_s;
      running = Atomic.make true;
      db = Atomic.make None;
      thread = None;
      mutex = Mutex.create ();
      sync_mutex = Mutex.create ();
    }
  in
  if period_s > 0.0 then t.thread <- Some (Thread.create sync_loop t);
  t

let stop t =
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      Atomic.set t.running false;
      (match t.thread with
      | Some th ->
          join_unless_self th;
          t.thread <- None
      | None -> ());
      match Atomic.get t.db with Some db -> Db.flush_all db | None -> ())

(* Serve the wire protocol: handshakes work in spare mode, but the first
   data request promotes — the router only ever contacts the spare after
   its primary failed, and by then the spare must answer as a real
   single-node server. *)
let handler t req =
  match req with
  | Protocol.Hello v ->
      if v <> Protocol.version then
        Protocol.Error (Printf.sprintf "unsupported protocol version %d" v)
      else Protocol.Hello_ok Protocol.version
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Get_placement when not (promoted t) ->
      (* Metadata, not data: answering must not promote, or a monitoring
         probe would silently end the sync loop. *)
      Protocol.Placement_info
        { pl_epoch = 0; pl_policy = "spare"; pl_backends = [] }
  | Protocol.Get_metrics_snapshot when not (promoted t) ->
      (* Observability probes, like metadata, must not promote. Every
         telemetry view is rendered from this answer or [Get_trace]'s,
         so guarding the two guards them all. *)
      Protocol.Metrics_snapshot []
  | Protocol.Get_trace _ when not (promoted t) -> Protocol.Trace_spans []
  | req -> Server.handle (promote t) req

let backend t =
  {
    Server.b_handle = handler t;
    b_obs = (match Atomic.get t.db with Some db -> Db.obs db | None -> Lt_obs.Obs.noop);
    b_maintenance =
      Some
        (fun () ->
          match Atomic.get t.db with Some db -> Db.maintenance db | None -> ());
    b_on_stop = (fun () -> stop t);
  }
