type 'v t = {
  id : int;
  period : Period.t;
  created_at : int64;
  tree : 'v Btree.writer;
  mutable bytes : int;
  mutable min_ts : int64;
  mutable max_ts : int64;
  mutable first_seq : int;
  mutable last_seq : int;
}

let create ~id ~period ~created_at =
  {
    id;
    period;
    created_at;
    tree = Btree.writer ();
    bytes = 0;
    min_ts = Int64.max_int;
    max_ts = Int64.min_int;
    first_seq = max_int;
    last_seq = min_int;
  }

let id t = t.id

let period t = t.period

let created_at t = t.created_at

let insert t ~key ~ts v =
  if Btree.add t.tree key v then begin
    if ts < t.min_ts then t.min_ts <- ts;
    if ts > t.max_ts then t.max_ts <- ts;
    `Ok
  end
  else `Duplicate

(* A row's ts is part of its key, so a memtable whose ts span misses
   [ts] cannot hold [key]. *)
let mem t ~ts key =
  ts >= t.min_ts && ts <= t.max_ts && Btree.writer_mem t.tree key

let row_count t = Btree.writer_length t.tree

let byte_size t = t.bytes

let ts_range t =
  if Btree.writer_length t.tree = 0 then None else Some (t.min_ts, t.max_ts)

(* Moving to a new epoch freezes every node the returned root reaches:
   later inserts copy them rather than write them. *)
let snapshot t = Btree.freeze t.tree

let add_bytes t n = t.bytes <- t.bytes + n

let stamp t seq =
  if seq < t.first_seq then t.first_seq <- seq;
  if seq > t.last_seq then t.last_seq <- seq

let seq_span t =
  if t.first_seq > t.last_seq then None else Some (t.first_seq, t.last_seq)

(* X must flush with M exactly when X got a row before M's last row, or
   before the last row of a memtable that must (a chain of insert
   switches leads from X to M). Sorted by first [seq], those memtables
   are a prefix: take each whose first row is at or below the bound,
   which rises to the last row of each one taken. *)
let closure m queued =
  let by_first =
    List.sort (fun a b -> Int.compare a.first_seq b.first_seq) queued
  in
  let rec take bound = function
    | x :: rest when x.first_seq <= bound -> x :: take (max bound x.last_seq) rest
    | _ -> []
  in
  let members = take m.last_seq by_first in
  if List.memq m members then members else m :: members
