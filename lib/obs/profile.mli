(** The record of one finished engine operation, and the per-query
    execution profile — an EXPLAIN ANALYZE for the LittleTable data
    path — that is its query form.

    Every insert, query, latest search, flush and merge closes exactly
    one [t]. The same value is the trace span's payload
    ({!Trace.span}'s [sp_prof], whose duration is [p_total_us]), the
    input of the table's [Stats] fold, and — when a query asked for
    one — the profile returned to the caller, so none of them can
    disagree. Profiles are opt-in via the wire [Query]'s [q_profile]
    flag (shell [.profile on]); when requested the server attaches one
    [t] per result page and the client aggregates pages with
    {!aggregate}.

    Profiles are measured with the table's own clock and work even when
    [Config.obs_enabled = false] — the flag is an explicit per-query
    opt-in, not ambient instrumentation. Results are byte-identical with
    profiling on and off; only the extra payload differs.

    A router answering a profiled query nests each backend's profile
    under {!p_shards} keyed by ["host:port"], so one profile shows where
    a fan-out spent its time shard by shard. *)

type t = {
  p_plan_us : int64;  (** tablet selection + scan setup *)
  p_scan_us : int64;  (** cursor scan time (sum over parallel workers) *)
  p_stall_us : int64;  (** merge waited on a parallel worker *)
  p_total_us : int64;  (** whole call, first row to exhaustion *)
  p_rows_scanned : int;
  p_rows_returned : int;  (** rows returned / inserted / flushed / merged *)
  p_tablets : int;  (** tablets actually scanned *)
  p_tablets_pruned : int;  (** disk tablets skipped by range overlap *)
  p_cache_hits : int;
  p_cache_misses : int;
  p_blocks_footer_answered : int;
      (** whole blocks answered from columnar footer stats, unread *)
  p_columns_decoded : int;
      (** columnar column sections decompressed for this query *)
  p_bytes_in : int;  (** tablet bytes read by a merge; 0 otherwise *)
  p_bytes_out : int;
      (** tablet bytes written by a flush or merge; 0 for reads *)
  p_shards : (string * t) list;  (** router: per-backend sub-profiles *)
}

val empty : t

(** Field-wise sum; [p_shards] entries are merged by label (first-seen
    label order), so per-page profiles of one query aggregate stably. *)
val aggregate : t list -> t

val pp : Format.formatter -> t -> unit

val to_string : t -> string
