(** Metrics registry: labeled counters, gauges, and latency histograms
    with Prometheus text exposition.

    The paper's evaluation leans on production metrics LittleTable
    exposed at Meraki — insert/query rates and latency distributions
    (§5.2.1–§5.2.4) — which monotonic counters alone cannot report.
    This registry is the engine-wide home for those series: every
    instrument belongs to a {e family} (a metric name plus help text)
    and is addressed by a set of label pairs, exactly the Prometheus
    data model.

    Instruments are cheap and thread-safe (a mutex per child; an
    observation is a lock, two or three field updates, an unlock).
    A registry can be {e disabled}, turning every observation into a
    single boolean load — the ablation baseline for measuring
    instrumentation overhead ([bench ablation-obs]).

    Requesting an existing family name returns the existing family;
    requesting it with a different instrument kind (or different
    histogram buckets) raises [Invalid_argument]. Requesting an
    existing label set returns the {e same} child, so independently
    obtained handles share one series. *)

type registry

val create_registry : ?enabled:bool -> unit -> registry

(** When disabled, every [inc]/[set]/[observe] is a no-op. *)
val set_enabled : registry -> bool -> unit

val enabled : registry -> bool

module Counter : sig
  type t

  (** Add [n >= 0]. *)
  val inc : t -> int -> unit

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit

  val value : t -> float
end

module Histogram : sig
  type t

  (** Log-spaced 1–2–5 upper bounds from 1 µs to 60 s, in seconds —
      wide enough for a block decompress and a paper-scale 31 ms
      first-row read alike. *)
  val default_buckets : float array

  (** Record a value in seconds. *)
  val observe : t -> float -> unit

  (** Record a duration in integer microseconds. *)
  val observe_us : t -> int64 -> unit

  val count : t -> int

  val sum : t -> float

  (** Largest value observed; 0 when empty. *)
  val max_value : t -> float

  (** [percentile h q] for [q] in [0,1], by linear interpolation within
      the bucket containing rank [q * count] (the +Inf bucket reports
      {!max_value}). Interpolated values are clamped to {!max_value};
      an empty histogram reports 0. *)
  val percentile : t -> float -> float

  val p50 : t -> float

  val p90 : t -> float

  val p99 : t -> float

  (** Upper bounds, excluding +Inf. *)
  val buckets : t -> float array

  (** Per-bucket (non-cumulative) counts; one extra final cell for
      +Inf. *)
  val bucket_counts : t -> int array

  (** Fold [src] into [into] (bucket counts, count, sum, max). The two
      must share bucket bounds.
      @raise Invalid_argument on a bounds mismatch. *)
  val merge_into : into:t -> t -> unit
end

val counter :
  registry -> ?help:string -> ?labels:(string * string) list -> string ->
  Counter.t

val gauge :
  registry -> ?help:string -> ?labels:(string * string) list -> string ->
  Gauge.t

val histogram :
  registry -> ?help:string -> ?buckets:float array ->
  ?labels:(string * string) list -> string -> Histogram.t

(** A point sample contributed by a {!register_collector} callback at
    snapshot time — how existing counter sources (e.g. [Stats] snapshots)
    join the exposition without double bookkeeping. *)
type sample = {
  s_name : string;
  s_help : string;
  s_kind : [ `Counter | `Gauge ];
  s_labels : (string * string) list;
  s_value : float;
}

(** Collectors run (in registration order) on every {!snapshot}, even
    on a disabled registry. Samples sharing a name are emitted as one
    family; collector names must not collide with instrument families. *)
val register_collector : registry -> (unit -> sample list) -> unit

(** {1 Snapshots and federation}

    A snapshot is a plain-data image of a registry — families, label
    sets, counts, sums, raw (non-cumulative) bucket arrays — that can
    cross the wire ([Get_metrics_snapshot]) and be merged elsewhere.
    Every Prometheus exposition is rendered from a snapshot by
    {!render_snapshot}: a registry's, a node's answer over the wire, and
    a router's federation of its backends. *)

type kind = K_counter | K_gauge | K_histogram

type snap_child = {
  sn_labels : (string * string) list;
      (* sorted by label name; {!federate} appends [shard] last *)
  sn_count : int; (* histogram observation count *)
  sn_fval : float; (* counter/gauge value / histogram sum *)
  sn_max : float;
  sn_buckets : int array; (* per-bucket counts incl. +Inf; [||] otherwise *)
}

type snap_family = {
  sn_name : string;
  sn_help : string;
  sn_kind : kind;
  sn_bounds : float array; (* histogram upper bounds, no +Inf *)
  sn_children : snap_child list;
}

type snapshot = snap_family list

(** Image of the registry now, collector samples included: the
    registry's instrument families sorted by name, then the collector
    families sorted by name. Instrument children are sorted by label
    set; a collector family keeps its samples in the order collected.
    Works on a disabled registry (all zeros). *)
val snapshot : registry -> snapshot

(** Prometheus text exposition (format version 0.0.4) of a snapshot, in
    its family and child order; histograms as [_bucket]/[_sum]/[_count]
    series with cumulative buckets, [le] the last label. The only
    writer of Prometheus text. *)
val render_snapshot : snapshot -> string

(** [render r = render_snapshot (snapshot r)]. *)
val render : registry -> string

(** [federate sources] — [sources] pairs a shard label with that
    source's snapshot. The result holds every family of any source,
    sorted by name. Each family lists first the {e aggregate} children
    (counters/gauges summed, histogram buckets merged across sources,
    grouped by the original label set), then every source's children
    again with [shard="<label>"] appended to their labels. Families
    whose kind or histogram bounds disagree with the family's first
    occurrence are skipped for the disagreeing source. *)
val federate : (string * snapshot) list -> snapshot
