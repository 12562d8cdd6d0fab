(** Client adaptor for the LittleTable server.

    The equivalent of the paper's SQLite virtual-table adaptor (§3.1):
    it keeps one persistent TCP connection (whose loss is how clients
    detect a server crash, §3.1), caches table schemas, turns big scans
    into a sequence of capped queries driven by the server's
    [more_available] flag (§3.5), and exposes an {!Lt_sql.Executor}
    backend so applications can speak SQL over the wire.

    All calls are synchronous and raise {!Remote_error} when the server
    reports an error and {!Disconnected} when the connection drops —
    after which the application re-runs its recovery logic (§4.1) and
    {!reconnect}s. *)

open Littletable

exception Remote_error of string

exception Disconnected

(** An insert landed some rows and then failed. The payload is the
    server's accounting: per group label, how many leading rows are
    committed — resend only the rest. Raised by {!insert},
    {!buffered_insert} and {!flush}. *)
exception Partial_insert of (string * int) list * string

type t

(** [create ?obs ?connect_timeout ?host ~port ()] builds a client
    handle without touching the network — requests raise
    {!Disconnected} until {!reconnect} succeeds. [obs] receives a
    [lt_client_reconnects_total{peer="host:port"}] count of every
    connection attempt; [connect_timeout] (seconds) bounds each TCP
    connect instead of waiting out the kernel's timeout.

    [batch_rows] (default 256) and [batch_interval_ms] (default 50) are
    the {!buffered_insert} flush thresholds; [clock] times the interval
    (tests pass a manual clock). *)
val create :
  ?obs:Lt_obs.Obs.t -> ?connect_timeout:float -> ?clock:Lt_util.Clock.t ->
  ?batch_rows:int -> ?batch_interval_ms:int -> ?host:string -> port:int ->
  unit -> t

(** Connect and exchange hellos ({!create} + one {!reconnect} attempt). *)
val connect :
  ?obs:Lt_obs.Obs.t -> ?connect_timeout:float -> ?clock:Lt_util.Clock.t ->
  ?batch_rows:int -> ?batch_interval_ms:int -> ?host:string -> port:int ->
  unit -> t

val close : t -> unit

(** (Re-)establish the TCP connection and exchange hellos, retrying
    with exponential backoff (50 ms doubling, capped at 2 s) up to
    [max_attempts] times (default 5). Raises {!Remote_error} once the
    attempts are exhausted. Each attempt increments
    [lt_client_reconnects_total].

    Rows still buffered by {!buffered_insert} are flushed once the new
    connection is up — flush-or-fail, deterministically: the buffer only
    ever holds rows that were never written to a socket, so the flush
    cannot replay anything, and a flush failure propagates rather than
    dropping rows silently. *)
val reconnect : ?max_attempts:int -> t -> unit

(** Whether a connection is currently established. *)
val connected : t -> bool

(** ["host:port"], for labeling metrics and error messages. *)
val peer : t -> string

(** One raw protocol round trip — no unwrapping, [Error] responses are
    returned as values. The cluster router forwards requests with this. *)
val request : t -> Protocol.request -> Protocol.response

val ping : t -> unit

(** {1 Tables} *)

val list_tables : t -> string list

(** Schema and TTL, cached after the first fetch (the paper's adaptor
    loads the schema at initialization, §3.1). *)
val table_info : t -> string -> Schema.t * int64 option

val create_table : t -> string -> Schema.t -> ttl:int64 option -> unit

val drop_table : t -> string -> unit

(** {1 Data} *)

(** Immediate (unbuffered) insert: one round trip, sent as a one-group
    [Insert_batch].
    @raise Partial_insert when a mid-batch duplicate or invalid row
    left a prefix of the rows committed. *)
val insert : t -> string -> Value.t array list -> unit

(** {2 Buffered inserts — the batched hot path}

    [buffered_insert t table rows] appends to a client-side buffer
    instead of performing a round trip; the buffer is sent as one
    [Insert_batch] frame when it reaches [batch_rows] rows or the
    oldest buffered row is [batch_interval_ms] old (checked on each
    call against the client's [clock]). Rows for several tables may be
    buffered together; arrival order is preserved. *)
val buffered_insert : t -> string -> Value.t array list -> unit

(** Send every buffered row now. No-op on an empty buffer.
    @raise Partial_insert naming what landed when the batch failed
    part-way; @raise Remote_error when nothing landed. Either way the
    buffer is left empty — the caller owns retries, so nothing is ever
    resent implicitly. *)
val flush : t -> unit

(** Rows currently buffered. *)
val pending : t -> int

type page = {
  rows : Value.t array list;
  more_available : bool;
  scanned : int;
  profile : Lt_obs.Profile.t option;
}

(** One server round trip; at most the server's row cap. [?profile]
    overrides the sticky {!set_profiling} flag for this page (explicit
    profiles are returned but not accumulated for {!take_profiles} —
    the router's mode). *)
val query_page : ?profile:bool -> t -> string -> Query.t -> page

(** Whole result set: pages through [more_available] by advancing the
    key bound past the last row received, exactly like the paper's
    adaptor (§3.5). Respects the query's own limit. *)
val query_all : t -> string -> Query.t -> Value.t array list

(** Streaming variant of {!query_all}; fetches pages lazily. *)
val query_iter : t -> string -> Query.t -> (unit -> Value.t array option)

(** [pager schema ~fetch q] is the adaptor's §3.5 resubmission loop over
    any page source: [fetch] answers one capped page of a query, and
    while a page says [more_available] the next request resumes past
    its last row ({!advance_past}). Pages are fetched lazily; [q]'s own
    limit is applied here, across pages. {!query_iter} pages one server
    with it, the router one shard (through its failover client). *)
val pager :
  Schema.t -> fetch:(Query.t -> page) -> Query.t -> (unit -> Value.t array option)

(** [advance_past schema q last_row] is the §3.5 resubmission step: the
    query whose key bound excludes [last_row]'s full primary key, in
    [q]'s direction. *)
val advance_past : Schema.t -> Query.t -> Value.t array -> Query.t

val latest : t -> string -> Value.t list -> Value.t array option

(** The §4.1.2 flush command: returns once every row with a timestamp
    [<= ts] is durable. The server answers it with a full flush round
    ({!Littletable.Table.flush_all}), which covers every row inserted
    before the request. *)
val flush_before : t -> string -> ts:int64 -> unit

(** The §7 bulk delete: remove every row whose key starts with the
    prefix; returns rows deleted. *)
val delete_prefix : t -> string -> Value.t list -> int

(** {1 Schema evolution} (§3.5) *)

val add_column : t -> string -> Schema.column -> unit

val widen_column : t -> string -> column:string -> unit

val set_ttl : t -> string -> ttl:int64 option -> unit

(** One table's counters: {!Littletable.Stats.of_metrics} over
    {!metrics_snapshot}. Through a router, the sum over its shards.
    @raise Remote_error for an unknown table, or when a router could
    not reach every shard (the sum would be partial). *)
val stats : t -> string -> Stats.snapshot

(** The server's Prometheus text exposition: {!metrics_snapshot},
    rendered — the same document its [/metrics] HTTP endpoint serves. *)
val metrics : t -> string

(** The server's most recent slow-op spans, newest first by completion
    time; [n] caps the count (default 20). Through a router, its shards'
    slow spans are included. *)
val slow_ops : ?n:int -> t -> Lt_obs.Trace.span list

(** How the peer places data: a single-node server answers
    [policy = "single"]; a router describes its shard set. *)
val placement : t -> Protocol.placement_info

(** {1 Distributed observability} *)

(** When on, every query page asks the server for a per-stage
    {!Lt_obs.Profile.t}; profiles come back with the result pages and
    are retained until {!take_profiles}. Off by default. *)
val set_profiling : t -> bool -> unit

val profiling : t -> bool

(** Profiles accumulated since the last call, oldest first (one per
    page; aggregate with {!Lt_obs.Profile.aggregate}). *)
val take_profiles : t -> Lt_obs.Profile.t list

(** Trace id of the most recent traced request, if this client's [obs]
    is enabled — what the shell's [.trace last] resolves to. *)
val last_trace : t -> (int64 * int64) option

(** All spans the peer retains for one trace, oldest first; a router
    answers with its own spans plus every backend's. *)
val trace : t -> int64 * int64 -> Lt_obs.Trace.span list

(** The peer's metrics registry as mergeable plain data; a router's is
    the federation of its own and its shards'
    ({!Lt_obs.Metrics.federate}). *)
val metrics_snapshot : t -> Lt_obs.Metrics.snapshot

(** {1 SQL} *)

(** An {!Lt_sql.Executor} backend speaking this connection. *)
val sql_backend : t -> Lt_sql.Executor.backend

(** Convenience: parse and execute one statement remotely. *)
val sql : t -> string -> Lt_sql.Executor.result
