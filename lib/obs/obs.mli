(** The engine-facing observability bundle: one {!Metrics.registry},
    one {!Trace.t} slow-op ring, and the {!Lt_util.Clock.t} that times
    operations — manual clocks make latency tests deterministic.

    A [Db] owns one [t] and threads it down to tables, tablet readers,
    and the network server. Code that runs without a [Db] (unit tests,
    the dump tool, benches) gets {!noop}, whose disabled registry makes
    every instrumentation site a single boolean load.

    Metric naming: every series is prefixed [lt_]; durations are
    [<what>_duration_seconds] histograms labeled by [table] (engine
    ops), [stage] (block reads), or [kind] (wire requests). *)

type t

(** [create ?enabled ?slow_op_micros ~clock ()] — defaults: enabled,
    100 ms slow threshold. The trace ring keeps the last 1024 spans. *)
val create :
  ?enabled:bool -> ?slow_op_micros:int64 -> clock:Lt_util.Clock.t -> unit -> t

(** A shared disabled instance: observes nothing, retains nothing. *)
val noop : t

val registry : t -> Metrics.registry

val trace : t -> Trace.t

val clock : t -> Lt_util.Clock.t

val enabled : t -> bool

(** Clock time in microseconds, or [0L] when disabled (so a disabled
    timing site costs one load and no clock read). *)
val now_us : t -> int64

(** [record_op t ?hist ~op ~table ~t0 ?ctx r] — the one span
    recorder: push a {!Trace.span} for the operation that started at
    [t0] and finished with record [r] onto the ring (logging it if
    slow), and observe [r.p_total_us] on [hist] when one is given.
    No-op when disabled. When [ctx] is omitted the span attaches to the
    calling thread's ambient {!Trace.ctx} (if any) as a fresh child;
    pass [ctx] to pin an exact context (servers recording the request
    span itself). *)
val record_op :
  t -> ?hist:Metrics.Histogram.t -> op:Trace.op -> table:string ->
  t0:int64 -> ?ctx:Trace.ctx -> Profile.t -> unit

(** The record of an operation that carries no counts: only
    [p_total_us], the time since [t0] (a {!now_us} result). *)
val elapsed : t -> t0:int64 -> Profile.t

(** Per-table histograms for the engine operations plus the
    parallel-scan instruments, all labeled [{table="<name>"}]. *)
type table_instruments = {
  h_insert : Metrics.Histogram.t; (* lt_insert_duration_seconds *)
  h_query : Metrics.Histogram.t; (* lt_query_duration_seconds *)
  h_latest : Metrics.Histogram.t; (* lt_latest_duration_seconds *)
  h_flush : Metrics.Histogram.t; (* lt_flush_duration_seconds *)
  h_merge : Metrics.Histogram.t; (* lt_merge_duration_seconds *)
  h_fanout : Metrics.Histogram.t;
      (* lt_parallel_scan_fanout — sources staged per parallel scan *)
  h_worker_scan : Metrics.Histogram.t;
      (* lt_worker_scan_duration_seconds — producer-side scan time *)
  h_stall : Metrics.Histogram.t;
      (* lt_merge_stall_duration_seconds — merge waited on a worker *)
}

val table_instruments : t -> table:string -> table_instruments

(** [lt_block_stage_duration_seconds{stage="read"}] — one tablet-file
    pread. *)
val block_read_hist : t -> Metrics.Histogram.t

(** [lt_block_stage_duration_seconds{stage="decompress"}] — frame
    decode + block decompression. *)
val block_decompress_hist : t -> Metrics.Histogram.t

(** [lt_group_commit_total{table,mode}] — explicit durability commits
    ([Table.flush_all], which also serves [Flush_before]), [mode="led"]
    when the caller ran the flush round itself, [mode="joined"] when it
    shared a round (and its fsyncs) already in flight. *)
val group_commit : t -> table:string -> mode:string -> Metrics.Counter.t

(** [lt_request_duration_seconds{kind="<request>"}] — server-side wire
    request round-trip. *)
val request_hist : t -> kind:string -> Metrics.Histogram.t

(** {1 Cluster instruments} (used by [Lt_cluster] and {!Lt_net}) *)

(** [lt_router_fanout] — backends contacted per routed request. *)
val router_fanout_hist : t -> Metrics.Histogram.t

(** [lt_router_backend_duration_seconds{backend="<host:port>"}] — one
    backend round trip as observed by the router. *)
val backend_hist : t -> backend:string -> Metrics.Histogram.t

(** [lt_router_backend_requests_total{backend,kind}] — requests the
    router forwarded to each backend. *)
val backend_requests : t -> backend:string -> kind:string -> Metrics.Counter.t

(** [lt_router_failovers_total{backend}] — reads redirected to a shard's
    replica after its primary became unreachable. *)
val failovers : t -> backend:string -> Metrics.Counter.t

(** [lt_client_reconnects_total{peer="<host:port>"}] — connection
    (re-)establishment attempts by {!Lt_net.Client}. *)
val client_reconnects : t -> peer:string -> Metrics.Counter.t

(** ["lt_router_shard_up"] — the gauge family a router adds to its
    federated snapshot: one child per backend, labelled [shard], 1 when
    that shard's snapshot was scraped and 0 when it was unreachable. *)
val shard_up : string

(** Render the registry as Prometheus text. *)
val render : t -> string
