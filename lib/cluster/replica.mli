(** Warm-spare shard replica: the §3.5 continuous-archival loop wrapped
    in a promotable server process.

    In spare mode the replica repeatedly {!Lt_vfs.Sync.until_stable}s
    the primary's directory tree into its own — it does NOT open the
    database, so each sync pass sees a self-consistent tablet set
    without racing a live engine's table discovery.

    {!promote} stops syncing and opens the copy as a real
    {!Littletable.Db.t}. It is triggered implicitly by the first data
    request reaching {!handler} — the router only contacts a spare
    after its primary failed. There is deliberately no final sync pass
    at promotion: the primary is presumed dead, and the spare serves
    what the last completed sync captured; anything newer is the
    bounded data loss of §3.4.1 (un-flushed memtables never reach the
    spare at all, since syncing copies only durable files). *)

open Littletable

type t

(** [start ?config ?clock ?period_s ~vfs ~primary_dir ~dir ()] begins
    syncing [primary_dir] into [dir] every [period_s] seconds (default
    10; [<= 0.] disables the background thread — tests then drive
    {!sync_now} manually). [config]/[clock] are used when the spare is
    promoted and opens its database. *)
val start :
  ?config:Config.t ->
  ?clock:Lt_util.Clock.t ->
  ?period_s:float ->
  vfs:Lt_vfs.Vfs.t ->
  primary_dir:string ->
  dir:string ->
  unit ->
  t

(** Run one sync pass now (serialized with the background loop); no-op
    once promoted. Errors (primary mid-write or gone) are logged and
    swallowed — the next pass retries. *)
val sync_now : t -> unit

(** Stop syncing and open the spare's copy as a live database.
    Idempotent; returns the (cached) database. *)
val promote : t -> Db.t

val promoted : t -> bool

(** The live database once promoted. *)
val db : t -> Db.t option

(** Wire-protocol dispatch: [Hello], [Ping], [Get_placement],
    [Get_metrics_snapshot] and [Get_trace] answer in spare mode, so
    probes and monitoring never trigger promotion — a spare reports
    [policy = "spare"], an empty metrics snapshot and no spans. Every
    telemetry view ([.stats], [.metrics], [/metrics], [.slow],
    [.trace]) is rendered from one of the last two. Any data request
    promotes first. *)
val handler : t -> Lt_net.Protocol.request -> Lt_net.Protocol.response

(** A {!Lt_net.Server.backend} serving {!handler}, for
    [littletable-server --spare-of]. *)
val backend : t -> Lt_net.Server.backend

(** Stop the sync thread; if promoted, flush all tables. *)
val stop : t -> unit
