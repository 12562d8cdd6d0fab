(** Wire protocol between the LittleTable server and its client adaptor.

    "Internally, the adaptor communicates with the server over TCP to get
    a list of available tables, determine the schema and sort order of
    each table, and perform inserts or queries" (§3.1). Our protocol is a
    synchronous request/response exchange of length-framed binary
    messages: a [u32] little-endian frame length followed by a one-byte
    tag and a {!Lt_util.Binio}-encoded body.

    Values travel with a type tag so row encoding is schema-independent.
    A query produces one [Row_batch] capped at the server's row limit,
    with the §3.5 [more_available] flag telling the adaptor to advance
    its key bound and resubmit. *)

open Littletable

exception Protocol_error of string

(** A groups section in wire format: the [len] bytes of [buf] from
    [off]. Offsets that {!walk_groups}, {!raw_groups} and
    {!transcode_rows} take and give are offsets into [buf]. *)
type section = { buf : string; off : int; len : int }

(** A batch's groups section: the rows of one or more tables. Every
    sender and receiver of this library holds it [Raw], as wire bytes
    that {!read_request} captures undecoded, in place in the received
    frame, and {!walk_groups} alone reads, so a router forwards row
    spans and a server transcodes rows ({!transcode_rows}) without
    boxing a value or copying the section. [Groups] spells it as rows
    in hand, for tests and benchmarks; {!write_request} and
    {!raw_of_payload} encode it with the same writer. *)
type batch_payload =
  | Groups of (string * Value.t array list) list
  | Raw of section

(** The whole of a string, as a section. *)
val section_of_string : string -> section

type request =
  | Hello of int  (** protocol version *)
  | List_tables
  | Get_table of string  (** schema + ttl *)
  | Create_table of { table : string; schema : Schema.t; ttl : int64 option }
  | Drop_table of string
  | Query of { table : string; query : Query.t; profile : bool }
      (** [profile] asks for a per-stage {!Lt_obs.Profile.t} with the
          batch — EXPLAIN ANALYZE, off by default *)
  | Latest of { table : string; prefix : Value.t list }
  | Flush_before of { table : string; ts : int64 }
      (** the §4.1.2 proposed flush command *)
  | Ping
  | Delete_prefix of { table : string; prefix : Value.t list }
      (** the §7 bulk-delete feature *)
  | Add_column of { table : string; column : Schema.column }
  | Widen_column of { table : string; column : string }
  | Set_ttl of { table : string; ttl : int64 option }
  | Get_placement
      (** ask how the serving process maps keys to backends; a plain
          single-node server answers with policy ["single"] and no
          backends, a router describes its shard set *)
  | Get_trace of { trace : (int64 * int64) option; slow_only : bool }
      (** retained spans ({!Lt_obs.Trace.find}), oldest first: those of
          the trace [(hi, lo)] when given, only the slow ones when
          [slow_only]. A router also pulls each backend's matching
          spans, so a trace answer is the whole cross-process tree.
          The shell's [.trace] and [.slow] are views of this answer. *)
  | Get_metrics_snapshot
      (** the registry as mergeable plain data
          ({!Lt_obs.Metrics.snapshot}); a router answers with the
          federation of its own and its backends'. The shell's
          [.metrics] and [.stats], and HTTP [/metrics], are views of
          this answer. Tags 9, 15 and 16 — the stats, text-metrics and
          slow-op requests of protocol 6 and earlier — are bad request
          tags. *)
  | Insert_batch of { groups : batch_payload }
      (** the one insert request: rows for one or more tables in one
          frame, from an immediate insert (one group) or a buffered
          flush. Groups execute in order; the answer is
          [Insert_ok total] or [Insert_partial] naming how many rows of
          each group landed before a failure. Tag 5, the single-table
          insert of protocol 5 and earlier, is a bad request tag. *)

(** How the answering process places data, exposed for the shell's
    [.cluster] command and cluster-aware clients. *)
type placement_info = {
  pl_epoch : int;  (** bumped by every rebalance *)
  pl_policy : string;  (** e.g. ["single"], ["hash(vnodes=64)"] *)
  pl_backends : (string * int) list;  (** shard order = shard index *)
}

type response =
  | Hello_ok of int
  | Tables of string list
  | Table_info of { schema : Schema.t; ttl : int64 option }
  | Ok
  | Insert_ok of int
  | Row_batch of {
      rows : Value.t array list;
      more_available : bool;
      scanned : int;
      profile : Lt_obs.Profile.t option;  (** present iff requested *)
    }
  | Latest_row of Value.t array option
  | Error of string
  | Pong
  | Deleted of int
  | Placement_info of placement_info
  | Trace_spans of Lt_obs.Trace.span list  (** oldest first *)
  | Metrics_snapshot of Lt_obs.Metrics.snapshot
  | Insert_partial of { landed : (string * int) list; message : string }
      (** an insert failed after some rows had already committed.
          [landed] names, per group label (a table name on a
          single-node answer, a ["shard<i>/<table>"] label on a routed
          one), how many leading rows of that group are in — so a
          client retries only the remainder instead of double-sending *)

val version : int

(** Stable short name of a request's constructor, used as the [kind]
    label on request-duration metrics. *)
val request_kind : request -> string

(** {1 Batch payloads} *)

(** [walk_groups payload ~group ~row] walks a groups section once, and
    is the only reader of one: it checks the group count's bound, each
    table name, row count and row arity, and that no bytes trail.
    [group table ~count ~pos] opens each group ([pos] is the offset of
    its first row); [row g cur ~start ~arity] must consume, through
    {!get_value} and {!skip_value} (which check each tag), the [arity]
    cells of one row of group [g], whose bytes begin at [start].
    @raise Protocol_error or {!Lt_util.Binio.Corrupt} on malformed
    bytes, before any later part of the payload is read. *)
val walk_groups :
  section ->
  group:(string -> count:int -> pos:int -> 'g) ->
  row:('g -> Lt_util.Binio.cursor -> start:int -> arity:int -> unit) ->
  unit

(** Decode a payload's groups (a no-op on [Groups]).
    @raise Protocol_error or {!Lt_util.Binio.Corrupt} on malformed raw
    bytes — deferred from {!read_request}, which no longer validates
    the groups section it captures. *)
val groups_of_payload : batch_payload -> (string * Value.t array list) list

(** [raw_groups payload] checks a raw groups section whole, with
    {!walk_groups} stepping over every cell, and returns each group's
    table, row count and the offset of its first row.
    @raise Protocol_error or {!Lt_util.Binio.Corrupt} on malformed
    bytes. *)
val raw_groups : section -> (string * int * int) list

(** A wire row's check against one table's schema, and the scratch in
    which it records where the row's cells lie. *)
type fit

val row_fit : Schema.t -> fit

(** [fit_row f cur ~start ~arity] steps [cur] over the [arity] cells of
    the wire row whose bytes begin at [start] (its arity already read)
    and checks that the row fits [f]'s schema: one cell per column,
    each tagged with its column's type. The one row check behind
    {!transcode_rows} and a router's split, so both refuse the same
    rows with the same message.
    @raise Schema.Invalid, as {!Schema.validate_row} would on the
    decoded row, when it does not fit. *)
val fit_row : fit -> Lt_util.Binio.cursor -> start:int -> arity:int -> unit

(** [fit_value f cur i] decodes column [i] of the row [f] last fitted
    from [cur]. *)
val fit_value : fit -> Lt_util.Binio.cursor -> int -> Value.t

(** [transcode_rows payload ~pos ~count schema] is a puller for
    {!Table.insert_encoded} over the [count] wire rows of a checked
    ({!raw_groups}) payload starting at [pos]: each call returns the
    next row's encoded key and value bytes, the bytes
    {!Key_codec.encode_key} and {!Row_codec.encode_value} give for the
    decoded row, without building a [Value.t]. A value cell's wire
    bytes are its stored bytes and are copied; key cells are written in
    order-preserving form.
    @raise Schema.Invalid, from {!fit_row}, on a row that does not fit
    [schema]. *)
val transcode_rows :
  section -> pos:int -> count:int -> Schema.t -> unit -> (string * string) option

(** Read one tagged value / step over one without constructing it — the
    cell primitives of a {!walk_groups} step. A value's tag is its
    type's {!Value.tag}.
    @raise Protocol_error on any other tag. *)

val get_value : Lt_util.Binio.cursor -> Value.t
val skip_value : Lt_util.Binio.cursor -> unit

(** Append one row (arity varint, then each value tagged) — what a
    buffering client uses to encode rows as they arrive, so its flush
    is a concatenation rather than a re-walk of the rows. *)
val put_row : Buffer.t -> Value.t array -> unit

(** [raw_of_encoded_groups groups] is the groups section, in wire
    format, of [groups] given as [(table, row count, row bytes)], the
    row bytes appended with {!put_row}: what a buffering client's flush
    and a router's per-shard split send. It, {!raw_of_rows},
    {!raw_of_payload} and {!write_request} frame the section with one
    writer, and write every row with {!put_row}. *)
val raw_of_encoded_groups : (string * int * Buffer.t) list -> section

(** [raw_of_rows table rows] is the groups section of one group. *)
val raw_of_rows : string -> Value.t array list -> section

(** The payload's groups section in wire format (a no-op on [Raw]). *)
val raw_of_payload : batch_payload -> section

(** {1 Framing} *)

val write_request : Buffer.t -> request -> unit
val read_request : Lt_util.Binio.cursor -> request
val write_response : Buffer.t -> response -> unit
val read_response : Lt_util.Binio.cursor -> response

(** Trace-context codec (exposed for protocol tests). On the wire a
    request frame is: one presence byte, four i64s when present, then
    the tagged request body. *)

val put_ctx : Buffer.t -> Lt_obs.Trace.ctx -> unit
val get_ctx : Lt_util.Binio.cursor -> Lt_obs.Trace.ctx
val put_opt_ctx : Buffer.t -> Lt_obs.Trace.ctx option -> unit
val get_opt_ctx : Lt_util.Binio.cursor -> Lt_obs.Trace.ctx option

(** Span and record codecs (exposed for protocol tests). A span is its
    op tag, table, start time and optional context, followed by its
    record in the {!put_profile} encoding; a record nests at most
    {!max_profile_depth} levels of shard sub-records. The decoders raise
    {!Protocol_error} on malformed or truncated input. *)

val put_span : Buffer.t -> Lt_obs.Trace.span -> unit
val get_span : Lt_util.Binio.cursor -> Lt_obs.Trace.span
val put_profile : Buffer.t -> Lt_obs.Profile.t -> unit
val get_profile : Lt_util.Binio.cursor -> Lt_obs.Profile.t
val max_profile_depth : int

(** {1 Socket helpers} (blocking, thread-safe per direction)

    Frames go out writev-style: the length header and the message body
    are gathered into one buffer (the length patched over four reserved
    bytes) and leave in a single write, so a batch costs one syscall
    rather than per-message header writes. *)

val send_frame : Unix.file_descr -> string -> unit

(** @raise End_of_file on a closed peer,
    {!Protocol_error} on oversized or malformed frames. *)
val recv_frame : Unix.file_descr -> string

(** [send_request ?ctx fd req] prefixes the frame with the trace
    context, if any. *)
val send_request : ?ctx:Lt_obs.Trace.ctx -> Unix.file_descr -> request -> unit

(** The incoming context (if the peer sent one) plus the request. *)
val recv_request : Unix.file_descr -> Lt_obs.Trace.ctx option * request
val send_response : Unix.file_descr -> response -> unit
val recv_response : Unix.file_descr -> response
