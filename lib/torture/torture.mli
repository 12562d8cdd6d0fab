(** Deterministic crash-point torture harness.

    Validates the paper's prefix-durability contract (§3.1) the hard
    way: a workload first runs over a {!Lt_vfs.Vfs.counting} wrapper to
    enumerate its durability-relevant operations, then replays once per
    operation index [k] with either a simulated machine crash
    ([Crash_at k]: the op raises and every later mutation is suppressed)
    or a transient I/O fault ([Io_error_at k]: the op fails once, the
    workload recovers and finishes). After each replay the in-memory
    filesystem {!Lt_vfs.Vfs.crash}es, the table reopens from durable
    state alone, and the invariant is checked:

    - survivors are a prefix of the attempted inserts in insert order
      (modulo TTL visibility and bulk deletes), with no
      phantoms or duplicates, and no row an acknowledged delete removed;
    - every row acknowledged as flushed before the fault survives;
    - the descriptor loads cleanly and no referenced tablet is corrupt;
    - after the [Table.open_] hygiene sweep the directory holds only the
      descriptor, referenced tablets, and [*.quarantine] files.

    Workloads are seeded ({!Lt_util.Xorshift}), so any failure replays
    exactly from its [(seed, point)] pair via {!replay}. *)

type workload =
  | Insert_flush  (** inserts across period bins, explicit flushes *)
  | Merge  (** several flushed generations, then merges to fixpoint *)
  | Columnar_merge
      (** [Merge] under [columnar_age = 0]: every merge rewrites aged
          tablets column-major, covering the columnar rewrite path *)
  | Ttl_expiry  (** TTL'd table: insert, expire, insert again *)
  | Schema_change  (** add a column and widen an int32 mid-stream *)
  | Set_ttl  (** descriptor-only updates between flushes *)
  | Sync_spare  (** {!Lt_vfs.Sync.until_stable} onto a warm spare *)
  | Bulk_delete
      (** bulk deletes of flushed rows (straddling-tablet rewrites) and
          of a memtable row, then flush and merge; deleted rows must
          never survive *)

val all_workloads : workload list
val workload_name : workload -> string

type mode = Crash | Io_err

val mode_name : mode -> string

type failure = {
  f_workload : workload;
  f_mode : mode;
  f_seed : int64;
  f_point : int;
  f_reason : string;
}

val pp_failure : Format.formatter -> failure -> unit

(** Durability points the fault-free run of a workload performs. *)
val count_points : seed:int64 -> workload -> int

(** Run one workload once. [inject] arms a fault at one durability
    point; omitted = fault-free. Returns [Error reason] if the
    post-crash invariant fails. *)
val execute : ?inject:mode * int -> seed:int64 -> workload -> (unit, string) result

(** [replay ~seed w mode k] re-runs one failing point — the debugging
    entry for a recorded [(seed, k)]. *)
val replay : seed:int64 -> workload -> mode -> int -> (unit, string) result

(** Sweep every durability point of every workload in both modes.
    Returns (runs executed, failures). *)
val sweep :
  ?workloads:workload list -> seed:int64 -> unit -> int * failure list
