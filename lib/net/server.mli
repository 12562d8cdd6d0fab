(** The LittleTable server process.

    "LittleTable is a relational database, run as an independent server
    process" (§3.1). This module serves the {!Protocol} over TCP: one
    thread per client connection against a shared {!Littletable.Db.t},
    plus a background maintenance thread that flushes aged memtables,
    merges tablets, and reclaims expired ones.

    Query responses are capped at the engine's server row limit and
    carry the [more_available] flag (§3.5); the client adaptor pages
    through by advancing its key bound.

    The socket plumbing is generic over a {!backend}: the same accept /
    per-connection / metrics / maintenance loops serve either a local
    database ({!start}) or any other request handler such as the cluster
    router ({!start_custom}). *)

type t

(** What the connection loops need from whatever answers requests. *)
type backend = {
  b_handle : Protocol.request -> Protocol.response;
      (** pure request dispatch; exceptions are turned into [Error] *)
  b_obs : Lt_obs.Obs.t;  (** request-duration histograms land here *)
  b_maintenance : (unit -> unit) option;
      (** periodic background work; [None] = no maintenance thread *)
  b_on_stop : unit -> unit;  (** final flush/teardown, runs once in [stop] *)
}

(** The single-node request handler, exposed so in-process callers (the
    warm-spare replica, tests) can dispatch without a socket. Handles
    every request including [Get_placement] (answered with policy
    ["single"]). *)
val handle : Littletable.Db.t -> Protocol.request -> Protocol.response

(** A {!backend} serving a local database. *)
val db_backend : Littletable.Db.t -> backend

(** [start ?maintenance_period_s ?metrics_port ~db ~port ()] binds
    [127.0.0.1:port] ([port = 0] picks an ephemeral port) and starts
    accepting. [maintenance_period_s <= 0.] disables the maintenance
    thread (useful under a manual clock). [metrics_port], when given,
    additionally serves Prometheus metrics over HTTP at
    [http://127.0.0.1:<metrics_port>/metrics] ([0] again picks an
    ephemeral port); omitted = no metrics listener. The body is the
    backend's [Get_metrics_snapshot] answer, rendered. *)
val start :
  ?maintenance_period_s:float ->
  ?metrics_port:int ->
  db:Littletable.Db.t ->
  port:int ->
  unit ->
  t

(** Like {!start} but serving an arbitrary {!backend} — the cluster
    router and replica front-ends use this. *)
val start_custom :
  ?maintenance_period_s:float ->
  ?metrics_port:int ->
  backend:backend ->
  port:int ->
  unit ->
  t

(** The port actually bound. *)
val port : t -> int

(** The metrics HTTP port actually bound, when the listener is on. *)
val metrics_port : t -> int option

(** Stop accepting, close client connections, join threads, and run the
    backend's [b_on_stop] (for a database backend: flush all tables). *)
val stop : t -> unit

(** Serve until [stop] is called from another thread (blocks). *)
val wait : t -> unit
