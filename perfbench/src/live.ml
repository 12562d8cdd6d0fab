(* What every workload shares: op accounting, runtime counters, and the
   wrapped server backend through which server-side spans are taken. *)

open Littletable
module Server = Lt_net.Server
module Protocol = Lt_net.Protocol

(* Per-op latencies, overall and by op type. [busy_ns] is the time ops
   were in flight, plus the maintenance run between them where it counts
   as busy time (see [background]). *)
type ops = {
  all : Tally.t;
  by_kind : (string, Tally.t) Hashtbl.t;
  mutable kinds : string list;  (** first-seen order *)
  mutable attempted : int;
  mutable failed : int;
  mutable rows : int;
  mutable busy_ns : float;
  background : Tally.t;  (** maintenance run between ops, ns each *)
}

let ops () =
  {
    all = Tally.create ();
    by_kind = Hashtbl.create 8;
    kinds = [];
    attempted = 0;
    failed = 0;
    rows = 0;
    busy_ns = 0.0;
    background = Tally.create ();
  }

(* Throughput over the whole timed window: (ops/s, rows/s) of completed
   ops per second of in-flight time. Taken per one-second slice with the
   median slice reported, it spread about twice as much from run to run
   in [ingest] and [fleet]: merge work lands in lumps of up to most of a
   second, so each slice's figure depended on how much of it the slice
   caught. *)
let throughput ops =
  if ops.busy_ns <= 0.0 then invalid_arg "Live.throughput: nothing was in flight";
  let busy_s = ops.busy_ns /. 1e9 in
  (float (ops.attempted - ops.failed) /. busy_s, float ops.rows /. busy_s)

let tally_of ops kind =
  match Hashtbl.find_opt ops.by_kind kind with
  | Some t -> t
  | None ->
      let t = Tally.create () in
      Hashtbl.replace ops.by_kind kind t;
      ops.kinds <- ops.kinds @ [ kind ];
      t

(* A completed op: [latency_ns] is what the user waited (for an open
   loop, from the op's due time), [busy_ns] how long it was in flight. *)
let succeeded ops ~kind ~rows ~latency_ns ~busy_ns =
  ops.attempted <- ops.attempted + 1;
  ops.rows <- ops.rows + rows;
  Tally.add ops.all latency_ns;
  Tally.add (tally_of ops kind) latency_ns;
  ops.busy_ns <- ops.busy_ns +. busy_ns

(* Background work the generator ran between ops (maintenance). In a
   closed loop it takes time from the ops and counts as busy time; in an
   open loop it shows in the latency of the ops due while it runs, and
   [~busy:false] keeps it out of the throughput, which is then the ops'
   own in-flight time. *)
let background ?(busy = true) ops ~busy_ns =
  Tally.add ops.background busy_ns;
  if busy then ops.busy_ns <- ops.busy_ns +. busy_ns

let failed ops ~busy_ns =
  ops.attempted <- ops.attempted + 1;
  ops.failed <- ops.failed + 1;
  ops.busy_ns <- ops.busy_ns +. busy_ns

let ms ns = ns /. 1e6

let metric = Report.metric

let pct_text t ~pct =
  match Tally.percentile t ~pct with
  | v -> Printf.sprintf "%.3f ms" (ms v)
  | exception Tally.Unsupported _ -> "n/a"

(* The human-readable table: every op type with its sample count, p50 and
   p99 (when >= 10 samples lie beyond it), plus the failure fraction. *)
let print_ops ~workload ops =
  Printf.printf "%s: %d ops attempted, %d failed (fail_frac %.6f)\n" workload
    ops.attempted ops.failed
    (if ops.attempted = 0 then 0.0 else float ops.failed /. float ops.attempted);
  List.iter
    (fun kind ->
      let t = Hashtbl.find ops.by_kind kind in
      Printf.printf "  %-12s n=%-7d p50 %-12s p99 %s\n" kind (Tally.count t)
        (pct_text t ~pct:50) (pct_text t ~pct:99))
    ops.kinds;
  let b = ops.background in
  if Tally.count b > 0 then
    Printf.printf "  maintenance  n=%-7d mean %.3f ms  max %.3f ms  total %.3f s\n" (Tally.count b)
      (ms (Tally.mean b))
      (ms (Array.fold_left Float.max 0.0 (Tally.sorted b)))
      (Tally.sum b /. 1e9)

let heap_peak_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Runtime counters, differenced around the traced phase. *)
type gc = { minor_words : float; major_collections : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_collections = b.major_collections - a.major_collections;
  }

(* Error answers a server gave since the last reset. *)
let server_errors = Atomic.make 0

let rows_of_response = function
  | Protocol.Insert_ok n -> n
  | Protocol.Row_batch { rows; _ } -> List.length rows
  | Protocol.Latest_row (Some _) -> 1
  | _ -> 0

(* [Server.handle] for [db], timed as a "server" span; on stop it does
   not flush, so the crash gate sees only what the workload made
   durable. *)
let db_backend ?(node = 0) db =
  let base = Server.db_backend db in
  {
    base with
    Server.b_handle =
      (fun req ->
        Spans.wrap ~layer:"server" ~kind:(Protocol.request_kind req)
          ~rows:rows_of_response ~node (fun () ->
            let resp = Server.handle db req in
            (match resp with
            | Protocol.Error _ | Protocol.Insert_partial _ -> Atomic.incr server_errors
            | _ -> ());
            resp));
    b_on_stop = ignore;
  }

(* The end-to-end metrics every workload reports, from its ops and its
   byte counts. *)
let end_to_end ~setup_s ?(heap_peak_mb = heap_peak_mb ()) ops ~write_amp ~space_amp =
  let ops_per_s, rows_per_s = throughput ops in
  [
    metric "setup_s" setup_s "s";
    metric "op_p50_ms" (ms (Tally.percentile ops.all ~pct:50)) "ms";
    metric "op_p99_ms" (ms (Tally.percentile ops.all ~pct:99)) "ms";
    metric "ops_per_s" ops_per_s "1/s";
    metric "rows_per_s" rows_per_s "1/s";
    metric "write_amp" write_amp "ratio";
    metric "space_amp" space_amp "ratio";
    metric "heap_peak_mb" heap_peak_mb "MB";
  ]

(* Set-up runs [times] times; all but the last are torn down (and their
   garbage collected, so they do not inflate the heap peak). Returns the
   last set-up and the median set-up time in seconds. A workload whose
   set-up is short repeats it more, so the median is not one scheduler
   hiccup. *)
let setup_repeated ~times:n ~setup ~teardown =
  let times = ref [] and env = ref None in
  for i = 1 to n do
    let e, ns = Mclock.time setup in
    times := (ns /. 1e9) :: !times;
    if i < n then begin
      teardown e;
      Gc.full_major ()
    end
    else env := Some e
  done;
  (Option.get !env, Tally.median_of !times)

(* Client errors that make an op count as failed rather than abort. *)
let op_failure = function
  | Lt_net.Client.Remote_error _ | Lt_net.Client.Partial_insert _ | Lt_net.Client.Disconnected -> true
  | _ -> false

let stored_size schema rows =
  List.fold_left (fun a r -> a + Row_codec.stored_size schema r) 0 rows

(* The per-layer metrics a workload does not exercise read 0: that layer
   did no work in it. Each workload names them explicitly, so a metric it
   should have measured and did not is still caught as missing. *)
let with_absent ~absent measured =
  measured
  @ List.map (fun name -> metric name 0.0 (List.assoc name Report.per_layer)) absent

let ratio a b = if b = 0.0 then 0.0 else a /. b
