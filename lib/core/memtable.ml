type 'v t = {
  id : int;
  period : Period.t;
  created_at : int64;
  mutable tree : 'v Avl.t;
  mutable epoch : int;
  mutable bytes : int;
  mutable min_ts : int64;
  mutable max_ts : int64;
}

let create ~id ~period ~created_at =
  {
    id;
    period;
    created_at;
    tree = Avl.empty;
    epoch = 0;
    bytes = 0;
    min_ts = Int64.max_int;
    max_ts = Int64.min_int;
  }

let id t = t.id

let period t = t.period

let created_at t = t.created_at

let insert t ~key ~ts v =
  match Avl.insert_owned ~epoch:t.epoch key v t.tree with
  | exception Avl.Duplicate -> `Duplicate
  | tree ->
      t.tree <- tree;
      if ts < t.min_ts then t.min_ts <- ts;
      if ts > t.max_ts then t.max_ts <- ts;
      `Ok

(* A row's ts is part of its key, so a memtable whose ts span misses
   [ts] cannot hold [key]. *)
let mem t ~ts key = ts >= t.min_ts && ts <= t.max_ts && Avl.mem key t.tree

let row_count t = Avl.length t.tree

let byte_size t = t.bytes

let ts_range t =
  if Avl.is_empty t.tree then None else Some (t.min_ts, t.max_ts)

(* Moving to a new epoch freezes every node the returned root reaches:
   later inserts copy them rather than write them. *)
let snapshot t =
  t.epoch <- t.epoch + 1;
  t.tree

let add_bytes t n = t.bytes <- t.bytes + n
