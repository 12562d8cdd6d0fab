(** Slow-op trace ring: a fixed-size ring buffer of recent operation
    spans, the "what just happened" complement to the aggregate
    {!Metrics} histograms. Every instrumented engine operation records
    a span; spans whose duration meets the slow threshold
    ([Config.slow_op_micros]) are additionally emitted at warning level
    through the ["lt.slowop"] [Logs] source, so a production log
    captures outliers even when nobody is watching [.slow].

    Since PR 7 spans optionally carry a {!ctx} — a 128-bit trace id
    plus span/parent ids — so spans recorded in different processes
    (client, router, shards) can be reassembled into one tree by
    [Get_trace] / the shell's [.trace]. *)

type op =
  | Insert
  | Query
  | Latest
  | Flush
  | Merge
  | Stall  (** a parallel-scan merge waited on a worker mid-chunk *)
  | Request  (** server-side handling of one wire request *)
  | Route  (** router-side fan-out + merge of one routed request *)
  | Backend  (** one client/router round trip to a backend *)
  | Failover  (** a read was redirected to a shard's replica *)

(** Propagated trace context. [cx_parent = 0L] marks a root span; span
    ids are never 0. Ids come from a process-wide xorshift64* generator
    seeded from the first caller's {!Lt_util.Clock.t} — deterministic
    under a manual clock, so torture [--replay] stays byte-stable. *)
type ctx = {
  cx_trace_hi : int64;
  cx_trace_lo : int64;
  cx_span : int64;
  cx_parent : int64;
}

(** A finished operation as the ring keeps it: what ran, where, when,
    under which trace context, and its one {!Profile.t} record — whose
    [p_total_us] is the span's duration. *)
type span = {
  sp_op : op;
  sp_table : string;
  sp_start_us : int64; (* clock time at operation start *)
  sp_ctx : ctx option; (* None: span predates tracing / ambient off *)
  sp_prof : Profile.t;
}

type t

(** {1 Context creation and propagation} *)

(** Re-seed the process-wide id generator (tests; replay harnesses). *)
val seed_ids : int64 -> unit

(** Fresh root context: new 128-bit trace id, new span id, no parent.
    [clock] seeds the id generator on first use only. *)
val new_root : clock:Lt_util.Clock.t -> ctx

(** Child context: same trace id, fresh span id, parent = [ctx]'s span. *)
val child_of : ctx -> ctx

val same_trace : hi:int64 -> lo:int64 -> ctx -> bool

(** 32 lowercase hex chars. *)
val trace_id_hex : ctx -> string

(** Accepts the 32-hex-char form (or up to 16 chars, zero-extended);
    [None] on malformed input. *)
val parse_trace_id : string -> (int64 * int64) option

(** [with_ctx (Some c) f] installs [c] as the calling thread's ambient
    context for the duration of [f] (restoring the previous one after,
    exception-safe); [with_ctx None f] is just [f ()]. *)
val with_ctx : ctx option -> (unit -> 'a) -> 'a

(** The calling thread's ambient context, if any. *)
val current : unit -> ctx option

(** {1 The ring} *)

(** [create ~capacity ~slow_us ()] keeps the last [capacity] spans;
    [slow_us] is the threshold at or above which a span is also
    logged. *)
val create : capacity:int -> slow_us:int64 -> unit -> t

val capacity : t -> int

(** The slow threshold given to {!create}; fixed for the ring's life. *)
val slow_us : t -> int64

(** Total spans ever recorded (not bounded by capacity). *)
val recorded : t -> int

val record : t -> span -> unit

(** Most recent spans, newest first, at most [n] (default: all
    retained), optionally only those for [table]. *)
val recent : ?n:int -> ?table:string -> t -> span list

(** Retained spans, oldest first — ready for tree assembly: only those
    of the trace [(hi, lo)] when [trace] is given, and only those with
    [p_total_us >= slow_us] when [slow_only] (default [false]).
    What a [Get_trace] request answers with. *)
val find : ?trace:int64 * int64 -> ?slow_only:bool -> t -> span list

val op_name : op -> string

(** The span's duration: its record's [p_total_us]. *)
val duration_us : span -> int64

(** The span's counts as [" scanned=... returned=..."] (plus
    [" bytes_in=... bytes_out=..."] for flushes and merges); empty when
    all are zero. *)
val counts : span -> string

val pp_span : Format.formatter -> span -> unit

(** The ["lt.slowop"] log source slow spans are emitted through. *)
val log_src : Logs.src
