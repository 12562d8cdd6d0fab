open Littletable
open Lt_util

let schema () =
  Schema.create
    ~columns:
      [
        { Schema.name = "network"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "device"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "ts"; ctype = Value.T_timestamp; default = Value.Timestamp 0L };
        { Schema.name = "event_id"; ctype = Value.T_int64; default = Value.Int64 0L };
        { Schema.name = "body"; ctype = Value.T_string; default = Value.String "" };
      ]
    ~pkey:[ "network"; "device"; "ts" ]

let create_table db ?ttl name = Db.create_table db name (schema ()) ~ttl

let sentinel_body = "@sentinel"

type t = {
  table : Table.t;
  clock : Clock.t;
  sentinel_every : int;
  cache : (int64 * int64, int64) Hashtbl.t;  (** device -> latest event id *)
  mutable polls : int;
}

let create ?(sentinel_every = 0) ~table ~clock () =
  { table; clock; sentinel_every; cache = Hashtbl.create 256; polls = 0 }

let crash t = Hashtbl.reset t.cache

let cached_id t ~network ~device = Hashtbl.find_opt t.cache (network, device)

let event_row ~network ~device ~ts ~id ~body =
  [|
    Value.Int64 network;
    Value.Int64 device;
    Value.Timestamp ts;
    Value.Int64 id;
    Value.String body;
  |]

let poll t devices =
  t.polls <- t.polls + 1;
  let inserted = ref 0 in
  List.iter
    (fun dev ->
      let network = Device.network dev and device = Device.device_id dev in
      let after = Hashtbl.find_opt t.cache (network, device) in
      match Device.fetch_events_after dev after with
      | None -> ()
      | Some events ->
          let rows =
            List.map
              (fun ev ->
                event_row ~network ~device ~ts:ev.Device.event_ts
                  ~id:ev.Device.event_id ~body:ev.Device.body)
              events
          in
          (match List.rev events with
          | last :: _ -> Hashtbl.replace t.cache (network, device) last.Device.event_id
          | [] -> ());
          (* Sentinel: a tiny row carrying the latest id so restart
             recovery never needs to search past one sentinel period. *)
          let rows =
            match Hashtbl.find_opt t.cache (network, device) with
            | Some latest
              when t.sentinel_every > 0 && t.polls mod t.sentinel_every = 0 ->
                rows
                @ [
                    event_row ~network ~device ~ts:(Clock.now t.clock) ~id:latest
                      ~body:sentinel_body;
                  ]
            | _ -> rows
          in
          if rows <> [] then begin
            (try Table.insert t.table rows
             with Table.Duplicate_key _ ->
               (* A crashed grabber can re-fetch events already stored
                  (at-least-once); keyed on (device, ts) they collide and
                  are already present — drop them row by row. *)
               List.iter
                 (fun row ->
                   try Table.insert t.table [ row ]
                   with Table.Duplicate_key _ -> ())
                 rows);
            inserted := !inserted + List.length rows
          end)
    devices;
  !inserted

let recover t ~devices ~lookback =
  Hashtbl.reset t.cache;
  let now = Clock.now t.clock in
  let horizon = Int64.sub now lookback in
  (* Pass 1: one window scan per device over recent rows. *)
  List.iter
    (fun dev ->
      let network = Device.network dev and device = Device.device_id dev in
      let q =
        Query.with_direction Query.Desc
          (Query.between ~ts_min:horizon
             (Query.prefix [ Value.Int64 network; Value.Int64 device ]))
      in
      let best = ref None in
      List.iter
        (fun row ->
          match row.(3) with
          | Value.Int64 id -> (
              match !best with
              | Some b when b >= id -> ()
              | _ -> best := Some id)
          | _ -> ())
        (Table.query t.table q).Table.rows;
      match !best with
      | Some id -> Hashtbl.replace t.cache (network, device) id
      | None -> ())
    devices;
  (* Pass 2: devices with no recent rows. Ask the device for its oldest
     retained event; its timestamp bounds how far back the table search
     must go (§4.2). *)
  List.iter
    (fun dev ->
      let network = Device.network dev and device = Device.device_id dev in
      if not (Hashtbl.mem t.cache (network, device)) then begin
        match Device.fetch_events_after dev None with
        | None | Some [] -> ()
        | Some (oldest :: _) -> (
            let q =
              Query.with_direction Query.Desc
                (Query.between ~ts_min:oldest.Device.event_ts
                   (Query.prefix [ Value.Int64 network; Value.Int64 device ]))
            in
            let best = ref None in
            List.iter
              (fun row ->
                match row.(3) with
                | Value.Int64 id -> (
                    match !best with Some b when b >= id -> () | _ -> best := Some id)
                | _ -> ())
              (Table.query t.table q).Table.rows;
            match !best with
            | Some id -> Hashtbl.replace t.cache (network, device) id
            | None -> ())
      end)
    devices

let device_events table ~network ~device ~ts_min ~ts_max =
  let q =
    Query.between ~ts_min ~ts_max
      (Query.prefix [ Value.Int64 network; Value.Int64 device ])
  in
  List.filter_map
    (fun row ->
      match (row.(2), row.(3), row.(4)) with
      | Value.Timestamp ts, Value.Int64 id, Value.String body
        when body <> sentinel_body ->
          Some (ts, id, body)
      | _ -> None)
    (Table.query table q).Table.rows

let contains_substring ~pattern s =
  let pn = String.length pattern and sn = String.length s in
  if pn = 0 then true
  else begin
    let rec go i = i + pn <= sn && (String.sub s i pn = pattern || go (i + 1)) in
    go 0
  end

let search table ~network ~pattern ~ts_min ~ts_max ~limit =
  let q =
    Query.with_direction Query.Desc
      (Query.between ~ts_min ~ts_max (Query.prefix [ Value.Int64 network ]))
  in
  Table.with_query table q @@ fun src ->
  let out = ref [] and n = ref 0 in
  let rec go () =
    if !n < limit then begin
      match src () with
      | None -> ()
      | Some (_, row) ->
          (match (row.(1), row.(2), row.(3), row.(4)) with
          | Value.Int64 device, Value.Timestamp ts, Value.Int64 id, Value.String body
            when body <> sentinel_body && contains_substring ~pattern body ->
              out := (device, ts, id, body) :: !out;
              incr n
          | _ -> ());
          go ()
    end
  in
  go ();
  List.rev !out
