(** SQL execution over an abstract backend.

    The backend record decouples the SQL layer from where the engine
    lives: {!local_backend} binds it to an in-process {!Littletable.Db.t};
    the network client ([Lt_net.Client]) provides its own backend so the
    same SQL surface works over TCP, mirroring how the paper's SQLite
    adaptor talks to the LittleTable server. *)

open Littletable

exception Exec_error of string

type backend = {
  b_schema : string -> Schema.t option;
  b_query : 'a. string -> Query.t -> (Cursor.source -> 'a) -> 'a;
      (** [b_query table q f] runs [f] on a streaming scan of [q]; [f]
          may stop reading early (at a LIMIT), so the backend ends the
          scan when [f] returns or raises *)
  b_query_agg : (string -> Query.t -> Agg.spec array -> Value.t array) option;
      (** whole-query aggregates evaluated inside the engine (columnar
          footer pushdown); [None] (e.g. over the wire) streams rows and
          aggregates here instead — same results either way *)
  b_insert : string -> Value.t array list -> unit;
  b_create : string -> Schema.t -> ttl:int64 option -> unit;
  b_drop : string -> unit;
  b_tables : unit -> string list;
  b_now : unit -> int64;  (** fills NOW and omitted timestamps *)
  b_delete_prefix : string -> Value.t list -> int;
      (** bulk delete by key prefix; returns rows deleted *)
  b_add_column : string -> Schema.column -> unit;
  b_widen_column : string -> string -> unit;
  b_set_ttl : string -> int64 option -> unit;
}

val local_backend : Db.t -> backend

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int  (** rows inserted or deleted *)
  | Done of string  (** DDL acknowledgement *)

(** Parse and execute one statement.
    @raise Lexer.Syntax_error on parse errors,
    {!Planner.Plan_error} on semantic errors, and {!Exec_error} on
    runtime errors (unknown table, duplicate key, arity mismatches). *)
val execute : backend -> string -> result

val execute_stmt : backend -> Ast.stmt -> result

(** Render a result as an aligned text table (the SQL shell's output). *)
val pp_result : Format.formatter -> result -> unit
