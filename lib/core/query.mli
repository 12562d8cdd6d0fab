(** Query descriptions.

    "Every query in LittleTable is an ordered scan of rows within a
    two-dimensional bounding box of timestamps in one dimension and
    primary keys or prefixes thereof in the other. These bounds may be
    inclusive or exclusive." (§3.1.) Results come back sorted by primary
    key, ascending or descending, optionally limited (§3.5). *)

(** A bound on the key dimension: a prefix of primary-key values,
    inclusive or exclusive, or unbounded. *)
type key_bound =
  | Unbounded
  | Incl of Value.t list
  | Excl of Value.t list

type direction = Asc | Desc

type t = {
  key_low : key_bound;
  key_high : key_bound;
  ts_min : int64 option;  (** inclusive, microseconds *)
  ts_max : int64 option;  (** inclusive *)
  direction : direction;
  limit : int option;
  projection : int list option;
      (** columns the caller will read (schema indices). [None] = all.
          Purely an optimization hint: columnar tablets skip decoding
          unlisted columns, whose returned cells are then unspecified
          (column defaults); row-major data ignores it. *)
}

(** Everything, ascending, no limit. *)
val all : t

(** [prefix vs] scans every row whose key starts with [vs]. *)
val prefix : Value.t list -> t

(** Restrict to [\[ts_min, ts_max\]] (either side optional). *)
val between : ?ts_min:int64 -> ?ts_max:int64 -> t -> t

val with_direction : direction -> t -> t

val with_limit : int -> t -> t

(** Declare the columns the caller will read (see {!t.projection}). *)
val with_projection : int list -> t -> t

(** {1 Compilation}

    [compile schema q] translates the value-level bounds into encoded-key
    byte bounds: a half-open range [\[lo, hi)] ([hi = None] meaning
    unbounded above). [None] overall means the range is provably empty.

    The timestamp is the last key column, so an [Incl] bound that fixes
    every other key column folds the ts bound on its side into the
    range: the low bound becomes the key [(vs, ts_min)], the high bound
    [prefix_succ] of the key [(vs, ts_max)]. The range then holds only
    rows inside the ts bounds; callers still filter by ts, since a range
    with other bounds can hold rows outside them. *)

type compiled = { lo : string; hi : string option }

val compile : Schema.t -> t -> compiled option

val pp : Format.formatter -> t -> unit
