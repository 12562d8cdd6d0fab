module Clock = Lt_util.Clock

type t = {
  o_registry : Metrics.registry;
  o_trace : Trace.t;
  o_clock : Clock.t;
}

(* Spans kept in the trace ring, for every node and router alike: a
   router reassembling fan-outs needs the deeper history. *)
let trace_capacity = 1024

let create ?(enabled = true) ?(slow_op_micros = Clock.msec 100) ~clock () =
  { o_registry = Metrics.create_registry ~enabled ();
    o_trace = Trace.create ~capacity:trace_capacity ~slow_us:slow_op_micros ();
    o_clock = clock }

let noop =
  { o_registry = Metrics.create_registry ~enabled:false ();
    o_trace = Trace.create ~capacity:1 ~slow_us:(Clock.msec 100) ();
    o_clock = Clock.system }

let registry t = t.o_registry
let trace t = t.o_trace
let clock t = t.o_clock
let enabled t = Metrics.enabled t.o_registry
let now_us t = if enabled t then Clock.now t.o_clock else 0L

let record_op t ?hist ~op ~table ~t0 ?ctx (r : Profile.t) =
  if enabled t then begin
    Option.iter (fun h -> Metrics.Histogram.observe_us h r.p_total_us) hist;
    let sp_ctx =
      match ctx with
      | Some _ as c -> c
      | None ->
          (* Attach to the ambient request context, if any, as a child
             span — this is how Table/Pscan spans join a wire trace. *)
          Option.map Trace.child_of (Trace.current ())
    in
    Trace.record t.o_trace
      { Trace.sp_op = op; sp_table = table; sp_start_us = t0; sp_ctx;
        sp_prof = r }
  end

let elapsed t ~t0 =
  { Profile.empty with
    p_total_us = Int64.max 0L (Int64.sub (Clock.now t.o_clock) t0) }

type table_instruments = {
  h_insert : Metrics.Histogram.t;
  h_query : Metrics.Histogram.t;
  h_latest : Metrics.Histogram.t;
  h_flush : Metrics.Histogram.t;
  h_merge : Metrics.Histogram.t;
  h_fanout : Metrics.Histogram.t;
  h_worker_scan : Metrics.Histogram.t;
  h_stall : Metrics.Histogram.t;
}

let duration_hist t name help ~labels =
  Metrics.histogram t.o_registry ~help ~labels name

let table_instruments t ~table =
  let labels = [ ("table", table) ] in
  { h_insert =
      duration_hist t "lt_insert_duration_seconds"
        "Latency of Table.insert batches." ~labels;
    h_query =
      duration_hist t "lt_query_duration_seconds"
        "Latency of Table.query / query_iter, first call to exhaustion."
        ~labels;
    h_latest =
      duration_hist t "lt_latest_duration_seconds"
        "Latency of Table.latest prefix searches." ~labels;
    h_flush =
      duration_hist t "lt_flush_duration_seconds"
        "Latency of one memtable flush, through its commit." ~labels;
    h_merge =
      duration_hist t "lt_merge_duration_seconds"
        "Latency of one adjacent-pair tablet merge step." ~labels;
    h_fanout =
      Metrics.histogram t.o_registry
        ~help:"Sources staged per parallel tablet scan."
        ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
        ~labels "lt_parallel_scan_fanout";
    h_worker_scan =
      duration_hist t "lt_worker_scan_duration_seconds"
        "Per-worker producer-side scan time within a parallel query."
        ~labels;
    h_stall =
      duration_hist t "lt_merge_stall_duration_seconds"
        "Time the parallel-scan merge spent waiting on a worker." ~labels }

let block_read_hist t =
  duration_hist t "lt_block_stage_duration_seconds"
    "Latency of tablet block read stages." ~labels:[ ("stage", "read") ]

let block_decompress_hist t =
  duration_hist t "lt_block_stage_duration_seconds"
    "Latency of tablet block read stages." ~labels:[ ("stage", "decompress") ]

let group_commit t ~table ~mode =
  Metrics.counter t.o_registry
    ~help:
      "Explicit durability commits, by whether the caller led the flush \
       round or joined one in flight."
    ~labels:[ ("table", table); ("mode", mode) ]
    "lt_group_commit_total"

let request_hist t ~kind =
  duration_hist t "lt_request_duration_seconds"
    "Server-side latency of wire protocol requests."
    ~labels:[ ("kind", kind) ]

(* ---- Cluster router / client instruments ------------------------------ *)

let router_fanout_hist t =
  Metrics.histogram t.o_registry
    ~help:"Backends contacted per routed request."
    ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    "lt_router_fanout"

let backend_hist t ~backend =
  duration_hist t "lt_router_backend_duration_seconds"
    "Router-observed latency of one backend round trip."
    ~labels:[ ("backend", backend) ]

let backend_requests t ~backend ~kind =
  Metrics.counter t.o_registry
    ~help:"Requests the router forwarded to each backend."
    ~labels:[ ("backend", backend); ("kind", kind) ]
    "lt_router_backend_requests_total"

let failovers t ~backend =
  Metrics.counter t.o_registry
    ~help:"Reads the router redirected to a shard's replica."
    ~labels:[ ("backend", backend) ]
    "lt_router_failovers_total"

let client_reconnects t ~peer =
  Metrics.counter t.o_registry
    ~help:"Connection (re-)establishment attempts by the client adaptor."
    ~labels:[ ("peer", peer) ]
    "lt_client_reconnects_total"

let shard_up = "lt_router_shard_up"

let render t = Metrics.render t.o_registry
