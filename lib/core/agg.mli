(** Shared aggregation accumulators and per-block column statistics.

    One accumulator definition serves both the SQL executor's row-at-a-time
    aggregation and the storage layer's footer pushdown, so the two paths
    cannot drift semantically: a footer-answered [count/sum/min/max/avg]
    is bit-identical to the value obtained by decoding every row. *)

type fn = Count | Sum | Min | Max | Avg

(** An aggregate over a target-schema column ([a_col = None] only for
    [Count], i.e. [count( * )]). *)
type spec = { a_fn : fn; a_col : int option }

(** Per-column statistics for one block, recorded in the tablet footer
    of columnar tablets. [cs_min]/[cs_max] are [None] for string/blob
    columns (unbounded footer size); [cs_sum] is the wrapping [int64]
    sum and present only for integer columns, where modular addition is
    associative. Values are typed by the schema the block was written
    under. *)
type col_stats = {
  cs_min : Value.t option;
  cs_max : Value.t option;
  cs_sum : int64 option;
}

val no_stats : col_stats

(** [stats_of_rows schema rows ~count] computes stats over
    [rows.(0 .. count-1)], one entry per schema column. *)
val stats_of_rows : Schema.t -> Value.t array array -> count:int -> col_stats array

(** {1 Accumulators} *)

type acc = {
  mutable count : int64;
  mutable sum : float;
  mutable sum_i : int64;
  mutable is_int : bool;
  mutable min_v : Value.t option;
  mutable max_v : Value.t option;
}

val fresh_acc : unit -> acc

(** [feed acc v] folds one row's cell in ([None] for [count( * )]). *)
val feed : acc -> Value.t option -> unit

(** [feed_row specs accs row] feeds [row] (target-schema cells) into
    [accs.(i)] for each [specs.(i)]: the spec's column, or [None] for
    [count( * )] and for a column past the row's end. *)
val feed_row : spec array -> acc array -> Value.t array -> unit

(** Final value. [Avg] over an integer column divides the exact wrapping
    integer sum by the count, so the result does not depend on feeding
    order or on block boundaries. Empty [Min]/[Max] yield [Int64 0];
    empty [Avg] yields [Double 0.]. *)
val result : fn -> acc -> Value.t

(** {1 Footer pushdown} *)

(** [block_answerable ~specs ~stats_of ~ctype_of] holds when every spec
    in [specs] can be answered for a whole block from footer stats
    alone. [stats_of]/[ctype_of] map a spec's target-schema column index
    to the block's stats/stored type, returning [None] when the column
    is absent from the stored schema. *)
val block_answerable :
  specs:spec array ->
  stats_of:(int -> col_stats option) ->
  ctype_of:(int -> Value.ctype option) ->
  bool

(** [absorb_block ~accs ~specs ~rows ~stats_of] folds a whole block's
    footer stats into the accumulators ([accs.(i)] for [specs.(i)]).
    The caller must have checked {!block_answerable}, and stats values
    must already be widened to the target schema's column types. *)
val absorb_block :
  accs:acc array ->
  specs:spec array ->
  rows:int ->
  stats_of:(int -> col_stats option) ->
  unit
