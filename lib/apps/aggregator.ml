open Littletable
open Lt_util

let rollup_schema () =
  Schema.create
    ~columns:
      [
        { Schema.name = "network"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "ts"; ctype = Value.T_timestamp; default = Value.Timestamp 0L };
        { Schema.name = "bytes"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "devices"; ctype = Value.T_blob; default = Value.Blob "" };
      ]
    ~pkey:[ "network"; "ts" ]

let tag_schema () =
  Schema.create
    ~columns:
      [
        { Schema.name = "tag"; ctype = Value.T_string; default = Value.String "" };
        { Schema.name = "ts"; ctype = Value.T_timestamp; default = Value.Timestamp 0L };
        { Schema.name = "bytes"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "devices"; ctype = Value.T_blob; default = Value.Blob "" };
      ]
    ~pkey:[ "tag"; "ts" ]

type durability = Safety_lag of int64 | Flush_command

type t = {
  source : Table.t;
  dest : Table.t;
  clock : Clock.t;
  period : int64;
  durability : durability;
  tags : Config_store.t option;
  mutable next_period : int64 option;
}

let create ?(period = Int64.mul 10L Clock.minute)
    ?(durability = Safety_lag (Int64.mul 20L Clock.minute)) ?tags ~source ~dest
    ~clock () =
  { source; dest; clock; period; durability; tags; next_period = None }

let position t = t.next_period

let crash t = t.next_period <- None

let align t ts = Period.align ts ~unit_len:t.period

(* Does the destination hold any row with ts >= p (and <= hi)? *)
let dest_has_row_from t ~p ~hi =
  let q = Query.with_limit 1 (Query.between ~ts_min:p ~ts_max:hi Query.all) in
  (Table.query t.dest q).Table.rows <> []

(* The paper's recovery dance: exponential lookback to find *some*
   destination row, then binary search for the most recent period. *)
let recover t =
  let now = Clock.now t.clock in
  let hi = now in
  (* Exponential lookback: 1, 2, 4, ... periods into the past. *)
  let rec widen k =
    let span = Int64.mul (Int64.of_int (1 lsl k)) t.period in
    let lo = Int64.sub now span in
    if dest_has_row_from t ~p:lo ~hi then Some lo
    else if lo <= 0L then None (* the window covers all representable time *)
    else if k >= 40 then None
    else widen (k + 1)
  in
  match widen 0 with
  | None -> t.next_period <- None
  | Some window_lo ->
      (* Largest aligned p such that a row with ts >= p exists. *)
      let lo = ref (align t window_lo) and hip = ref (align t now) in
      while !lo < !hip do
        (* Round the midpoint up so the loop always narrows. *)
        let steps = Int64.div (Int64.sub !hip !lo) t.period in
        let mid = Int64.add !lo (Int64.mul (Int64.div (Int64.add steps 1L) 2L) t.period) in
        if dest_has_row_from t ~p:mid ~hi then lo := mid else hip := Int64.sub mid t.period
      done;
      (* Re-process the period of the row we found and everything after
         (§4.1.2); existing destination rows are skipped on re-insert. *)
      t.next_period <- Some !lo

(* Find where to begin when the destination has never been written: the
   period of the oldest source row. *)
let initial_position t =
  let q = Query.with_limit 1 Query.all in
  match (Table.query t.source q).Table.rows with
  | [] -> None
  | rows ->
      (* The first row in key order is not necessarily the oldest in
         time; scan the whole first-period candidates cheaply by asking
         every tablet's metadata instead. *)
      let min_ts =
        List.fold_left
          (fun acc m -> Int64.min acc m.Descriptor.min_ts)
          (Schema.row_ts (Table.schema t.source) (List.hd rows))
          (Table.tablets t.source)
      in
      Some (align t min_ts)

type group_acc = { mutable bytes : float; hll : Lt_hll.Hll.t }

let aggregate_period t ~p =
  let p_end = Int64.add p t.period in
  let q = Query.between ~ts_min:p ~ts_max:(Int64.sub p_end 1L) Query.all in
  let groups : (Value.t, group_acc) Hashtbl.t = Hashtbl.create 32 in
  let touch key =
    match Hashtbl.find_opt groups key with
    | Some acc -> acc
    | None ->
        let acc = { bytes = 0.0; hll = Lt_hll.Hll.create ~precision:10 () } in
        Hashtbl.add groups key acc;
        acc
  in
  let src = Table.query_iter t.source q in
  let rec consume () =
    match src () with
    | None -> ()
    | Some (_, row) ->
        (match (row.(0), row.(1), row.(2), row.(3), row.(5)) with
        | ( Value.Int64 network,
            Value.Int64 device,
            Value.Timestamp t2,
            Value.Timestamp t1,
            Value.Double rate ) ->
            let seconds = Int64.to_float (Int64.sub t2 t1) /. 1e6 in
            let bytes = rate *. seconds in
            let dev_tag = Printf.sprintf "%Ld/%Ld" network device in
            let feed key =
              let acc = touch key in
              acc.bytes <- acc.bytes +. bytes;
              Lt_hll.Hll.add acc.hll dev_tag
            in
            (match t.tags with
            | None -> feed (Value.Int64 network)
            | Some store ->
                List.iter
                  (fun tag -> feed (Value.String tag))
                  (Config_store.device_tags store ~network ~device))
        | _ -> ());
        consume ()
  in
  consume ();
  (* Skip groups already present (recovery re-processes the last,
     possibly partially written, period). *)
  let existing =
    List.filter_map
      (fun row -> Some row.(0))
      (Table.query t.dest
         (Query.between ~ts_min:p ~ts_max:p Query.all)).Table.rows
  in
  let rows =
    Hashtbl.fold
      (fun key acc rows ->
        if List.exists (Value.equal key) existing then rows
        else
          [|
            key;
            Value.Timestamp p;
            Value.Int64 (Int64.of_float acc.bytes);
            Value.Blob (Lt_hll.Hll.serialize acc.hll);
          |]
          :: rows)
      groups []
  in
  (* Rows of one aggregation period insert in ascending key order, the
     pattern the §3.4.4 uniqueness fast path is designed for. *)
  let rows =
    List.sort
      (fun a b -> Value.compare a.(0) b.(0))
      rows
  in
  if rows <> [] then Table.insert t.dest rows

let run_once t =
  let now = Clock.now t.clock in
  let durable_hi =
    match t.durability with
    | Safety_lag lag -> Int64.sub now lag
    | Flush_command ->
        (* The proposed flush command (§4.1.2): after it returns, every
           source row with ts <= now is durable. A full flush round
           covers them. *)
        Table.flush_all t.source;
        now
  in
  (match t.next_period with
  | Some _ -> ()
  | None -> (
      recover t;
      match t.next_period with
      | Some _ -> ()
      | None -> t.next_period <- initial_position t));
  match t.next_period with
  | None -> 0
  | Some start ->
      let p = ref start and done_count = ref 0 in
      while Int64.add !p t.period <= durable_hi do
        aggregate_period t ~p:!p;
        p := Int64.add !p t.period;
        incr done_count
      done;
      t.next_period <- Some !p;
      !done_count

let read_rollup dest ~key ~ts_min ~ts_max =
  let q = Query.between ~ts_min ~ts_max (Query.prefix [ key ]) in
  List.map
    (fun row ->
      match (row.(1), row.(2), row.(3)) with
      | Value.Timestamp ts, Value.Int64 bytes, Value.Blob hll ->
          let devices =
            if hll = "" then 0.0
            else Lt_hll.Hll.estimate (Lt_hll.Hll.deserialize hll)
          in
          (ts, bytes, devices)
      | _ -> (0L, 0L, 0.0))
    (Table.query dest q).Table.rows
