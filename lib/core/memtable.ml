type t = {
  id : int;
  period : Period.t;
  created_at : int64;
  mutable tree : Value.t array Avl.t;
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
    bytes = 0;
    min_ts = Int64.max_int;
    max_ts = Int64.min_int;
  }

let id t = t.id

let period t = t.period

let created_at t = t.created_at

let insert t ~key ~ts row =
  match Avl.insert key row t.tree with
  | `Duplicate -> `Duplicate
  | `Ok tree ->
      t.tree <- tree;
      if ts < t.min_ts then t.min_ts <- ts;
      if ts > t.max_ts then t.max_ts <- ts;
      `Ok

let mem t key = Avl.mem key t.tree

let row_count t = Avl.length t.tree

let byte_size t = t.bytes

let ts_range t =
  if Avl.is_empty t.tree then None else Some (t.min_ts, t.max_ts)

let snapshot t = t.tree

let add_bytes t n = t.bytes <- t.bytes + n
