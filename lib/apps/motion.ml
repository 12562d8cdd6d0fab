open Littletable
open Lt_util

let frame_cols = 60

let frame_rows = 34

let cell_cols = 6

let cell_rows = 4

let coarse_cols = 10

let coarse_rows = 9

let word ~row ~col ~blocks =
  if row < 0 || row >= coarse_rows then invalid_arg "Motion.word: row";
  if col < 0 || col >= coarse_cols then invalid_arg "Motion.word: col";
  if blocks < 0 || blocks > 0xFFFFFF then invalid_arg "Motion.word: blocks";
  Int32.logor
    (Int32.shift_left (Int32.of_int ((row lsl 4) lor col)) 24)
    (Int32.of_int blocks)

let word_row w = (Int32.to_int (Int32.shift_right_logical w 28)) land 0xf

let word_col w = (Int32.to_int (Int32.shift_right_logical w 24)) land 0xf

let word_blocks w = Int32.to_int (Int32.logand w 0xFFFFFFl)

let word_macroblocks w =
  let row = word_row w and col = word_col w and blocks = word_blocks w in
  let base_x = col * cell_cols and base_y = row * cell_rows in
  let out = ref [] in
  (* Bit i covers macroblock (i mod 6, i / 6) within the cell. *)
  for i = 23 downto 0 do
    if blocks land (1 lsl i) <> 0 then begin
      let x = base_x + (i mod cell_cols) and y = base_y + (i / cell_cols) in
      if x < frame_cols && y < frame_rows then out := (x, y) :: !out
    end
  done;
  !out

let schema () =
  Schema.create
    ~columns:
      [
        { Schema.name = "camera"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "ts"; ctype = Value.T_timestamp; default = Value.Timestamp 0L };
        { Schema.name = "word"; ctype = Value.T_int32; default = Value.Int32 0l };
        { Schema.name = "duration"; ctype = Value.T_int64; default = Value.Int64 0L };
      ]
    ~pkey:[ "camera"; "ts" ]

let create_table db ?ttl name = Db.create_table db name (schema ()) ~ttl

type t = {
  table : Table.t;
  clock : Clock.t;
  positions : (int64, int64) Hashtbl.t;  (** camera -> last fetched ts *)
}

let create ~table ~clock () =
  { table; clock; positions = Hashtbl.create 64 }

let crash t = Hashtbl.reset t.positions

let poll t cameras =
  let inserted = ref 0 in
  List.iter
    (fun cam ->
      let camera = Device.device_id cam in
      let after = Option.value ~default:0L (Hashtbl.find_opt t.positions camera) in
      match Device.fetch_motion_after cam after with
      | None | Some [] -> ()
      | Some events ->
          let rows =
            List.map
              (fun ev ->
                [|
                  Value.Int64 camera;
                  Value.Timestamp ev.Device.motion_ts;
                  Value.Int32 ev.Device.word;
                  Value.Int64 ev.Device.duration;
                |])
              events
          in
          (match List.rev events with
          | last :: _ -> Hashtbl.replace t.positions camera last.Device.motion_ts
          | [] -> ());
          (try Table.insert t.table rows
           with Table.Duplicate_key _ ->
             List.iter
               (fun row ->
                 try Table.insert t.table [ row ]
                 with Table.Duplicate_key _ -> ())
               rows);
          inserted := !inserted + List.length rows)
    cameras;
  !inserted

let recover t ~cameras ~lookback =
  Hashtbl.reset t.positions;
  let now = Clock.now t.clock in
  let horizon = Int64.sub now lookback in
  List.iter
    (fun cam ->
      let camera = Device.device_id cam in
      let q =
        Query.with_limit 1
          (Query.with_direction Query.Desc
             (Query.between ~ts_min:horizon (Query.prefix [ Value.Int64 camera ])))
      in
      match (Table.query t.table q).Table.rows with
      | [ row ] -> (
          match row.(1) with
          | Value.Timestamp ts -> Hashtbl.replace t.positions camera ts
          | _ -> ())
      | _ -> ())
    cameras

type rect = { x0 : int; y0 : int; x1 : int; y1 : int }

let word_intersects rect w =
  List.exists
    (fun (x, y) -> x >= rect.x0 && x <= rect.x1 && y >= rect.y0 && y <= rect.y1)
    (word_macroblocks w)

let search table ~camera ~rect ~ts_min ~ts_max ~limit =
  let q =
    Query.with_direction Query.Desc
      (Query.between ~ts_min ~ts_max (Query.prefix [ Value.Int64 camera ]))
  in
  Table.with_query table q @@ fun src ->
  let out = ref [] and n = ref 0 in
  let rec go () =
    if !n < limit then begin
      match src () with
      | None -> ()
      | Some (_, row) ->
          (match (row.(1), row.(2), row.(3)) with
          | Value.Timestamp ts, Value.Int32 w, Value.Int64 duration
            when word_intersects rect w ->
              out := (ts, w, duration) :: !out;
              incr n
          | _ -> ());
          go ()
    end
  in
  go ();
  List.rev !out

let heatmap table ~camera ~ts_min ~ts_max =
  let grid = Array.make_matrix frame_rows frame_cols 0 in
  let q = Query.between ~ts_min ~ts_max (Query.prefix [ Value.Int64 camera ]) in
  let src = Table.query_iter table q in
  let rec go () =
    match src () with
    | None -> ()
    | Some (_, row) ->
        (match row.(2) with
        | Value.Int32 w ->
            List.iter
              (fun (x, y) -> grid.(y).(x) <- grid.(y).(x) + 1)
              (word_macroblocks w)
        | _ -> ());
        go ()
  in
  go ();
  grid
