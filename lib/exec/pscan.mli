(** Staged parallel scan: fan a set of pull sources out over a
    {!Pool}, keeping each source's output in its original order.

    [stage pool sources] wraps each [(priority, next)] source in a
    bounded chunk buffer fed by a producer task on the pool and returns
    replacement sources (same priorities, same order, same elements) that
    serve from the buffers. Feeding the staged sources to the same
    ordered merge the sequential path uses therefore yields byte-identical
    results — parallelism only changes {e when} rows are pulled from the
    underlying tablets, never {e what} the merge sees.

    Flow control is credit-based and non-blocking on the producer side: a
    producer that gets [depth] chunks ahead of its consumer parks instead
    of blocking, and the consumer restarts it on the next pop. Producers
    therefore always run to completion, so a pool smaller than the source
    count cannot deadlock.

    The returned [finish] function must be called exactly once, before
    releasing whatever the sources read from (tablet references): it
    cancels the scan — in-flight producers observe that between rows and
    stop early — and blocks until no producer task remains.
    Early-terminating queries ([limit], latest-row) rely on this to
    cancel workers they no longer need. *)

(** [stage pool ?now_us ?on_worker ?on_stall sources] returns the
    staged sources and the [finish] function. A producer round pulls 128
    rows, and [depth] is 4 chunks.

    - [now_us] supplies monotonic microseconds for the timing callbacks
      (default: constant [0L], disabling them).
    - [on_worker busy_us] fires exactly once per source when it retires,
      with its total producer-side scan time.
    - [on_stall dur_us] fires (outside any lock) each time the consumer
      had to wait [dur_us] > 0 for a producer mid-round — a merge stall.

    Callbacks run on whichever domain triggers them and must not raise. *)
val stage :
  Pool.t ->
  ?now_us:(unit -> int64) ->
  ?on_worker:(int64 -> unit) ->
  ?on_stall:(int64 -> unit) ->
  (int * (unit -> 'a option)) list ->
  (int * (unit -> 'a option)) list * (unit -> unit)
