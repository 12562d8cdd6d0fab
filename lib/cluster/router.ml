open Littletable
module Obs = Lt_obs.Obs
module Metrics = Lt_obs.Metrics
module Trace = Lt_obs.Trace
module Profile = Lt_obs.Profile
module Client = Lt_net.Client
module Protocol = Lt_net.Protocol
module Server = Lt_net.Server

exception Rebalance_error of string

(* Internal early exit carrying the error response to send. *)
exception Routed of Protocol.response

let err fmt =
  Printf.ksprintf (fun msg -> raise (Routed (Protocol.Error msg))) fmt

type t = {
  cc : Cluster_client.t;
  obs : Obs.t;
  row_limit : int;
  mutable placement : Placement.t;
  schemas : (string, Schema.t) Hashtbl.t;
  mutex : Mutex.t;
      (** serializes placement changes against the writes they route:
          inserts and prefix deletes read the placement under this lock,
          and {!rebalance} holds it for the whole copy-flip-delete, so a
          row can never land on a shard the flip just disowned *)
}

let create ?(obs = Obs.noop) ?row_limit ~placement ~cluster () =
  if Placement.shards placement <> Cluster_client.shard_count cluster then
    invalid_arg "Router.create: placement and cluster shard counts differ";
  let row_limit =
    match row_limit with
    | Some n ->
        if n < 1 then invalid_arg "Router.create: row_limit < 1";
        n
    | None -> Config.default.Config.server_row_limit
  in
  {
    cc = cluster;
    obs;
    row_limit;
    placement;
    schemas = Hashtbl.create 8;
    mutex = Mutex.create ();
  }

let placement t = t.placement

let cluster t = t.cc

let observe_fanout t n =
  if Obs.enabled t.obs then
    Metrics.Histogram.observe (Obs.router_fanout_hist t.obs) (float_of_int n)

let schema_of t table =
  match Hashtbl.find_opt t.schemas table with
  | Some s -> s
  | None -> (
      match Cluster_client.request_read t.cc 0 (Protocol.Get_table table) with
      | Protocol.Table_info { schema; _ } ->
          Hashtbl.replace t.schemas table schema;
          schema
      | Protocol.Error msg -> err "%s" msg
      | _ -> err "bad table info response")

let is_error = function Protocol.Error _ -> true | _ -> false

(* Fan a request to every shard; DDL and flushes must reach primaries
   even during a failover, so they go through the write path. *)
let fanout_all t ~write req =
  let n = Cluster_client.shard_count t.cc in
  observe_fanout t n;
  let send = if write then Cluster_client.request_write else Cluster_client.request_read in
  List.init n (fun i -> send t.cc i req)

let first_error_else resps ok =
  match List.find_opt is_error resps with Some e -> e | None -> ok

(* ---- Inserts ----------------------------------------------------------- *)

(* Split an [Insert_batch] payload's rows by owning shard (stable
   within a group), so each shard receives one [Insert_batch] holding
   its slice of every group. One scan over the undecoded payload
   decodes only each row's leading key value (for placement) and blits
   the row's wire bytes straight into its owner's outgoing sub-payload.
   Forwarded columns are never boxed or re-encoded — the per-row router
   cost is a hash and a memcpy. Returns, in shard order, the
   sub-payload (already in wire format) and its per-table expected row
   counts. *)
let split_raw t payload =
  let module B = Lt_util.Binio in
  let cur = B.cursor payload in
  let ngroups = B.get_varint cur in
  if ngroups < 0 || ngroups > 65536 then
    err "implausible group count %d" ngroups;
  (* Per shard: groups in arrival order, each (table, count, row bytes). *)
  let per_shard : (int, (string * int ref * Buffer.t) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  for _ = 1 to ngroups do
    let table = B.get_string cur in
    let schema = schema_of t table in
    let lead = (Schema.pkey schema).(0) in
    let nrows = B.get_varint cur in
    if nrows < 0 then err "implausible row count %d" nrows;
    (* This group's slice on each shard, created on first row. *)
    let slices = Hashtbl.create 4 in
    for _ = 1 to nrows do
      let start = cur.B.pos in
      let arity = B.get_varint cur in
      if arity < 0 || arity > 65536 then err "implausible row arity %d" arity;
      if arity <= lead then
        err "row arity %d lacks the leading key column" arity;
      let lead_v = ref (Value.Int64 0L) in
      for i = 0 to arity - 1 do
        if i = lead then lead_v := Protocol.get_value cur
        else Protocol.skip_value cur
      done;
      let stop = cur.B.pos in
      let s = Placement.shard_of_value t.placement !lead_v in
      let count, buf =
        match Hashtbl.find_opt slices s with
        | Some cb -> cb
        | None ->
            let cb = (ref 0, Buffer.create 512) in
            Hashtbl.add slices s cb;
            let count, buf = cb in
            (match Hashtbl.find_opt per_shard s with
            | Some r -> r := (table, count, buf) :: !r
            | None -> Hashtbl.add per_shard s (ref [ (table, count, buf) ]));
            cb
      in
      incr count;
      Buffer.add_substring buf payload start (stop - start)
    done
  done;
  Hashtbl.fold
    (fun s r acc ->
      let groups =
        List.rev_map (fun (table, count, rows) -> (table, !count, rows)) !r
      in
      ( s,
        List.map (fun (table, count, _) -> (table, count)) groups,
        Protocol.raw_of_encoded_groups groups )
      :: acc)
    per_shard []
  |> List.sort compare

(* One outcome per shard: which rows of its sub-batch landed, and the
   failure message if not all of them did. A shard that answers a plain
   [Error] committed nothing (the server only does that when zero rows
   landed); an unreachable shard is reported the same way. *)
type shard_insert = { si_landed : (string * int) list; si_fail : string option }

(* [expected] is the sub-batch's per-table row counts — what "all
   landed" means for this shard. *)
let send_shard_batch t s ~expected req =
  let none = List.map (fun (tbl, _) -> (tbl, 0)) expected in
  match Cluster_client.request_write t.cc s req with
  | Protocol.Insert_ok _ -> { si_landed = expected; si_fail = None }
  | Protocol.Insert_partial { landed; message } ->
      { si_landed = landed; si_fail = Some message }
  | Protocol.Error msg -> { si_landed = none; si_fail = Some msg }
  | _ -> { si_landed = none; si_fail = Some "bad insert response" }
  | exception Cluster_client.Unavailable msg ->
      { si_landed = none; si_fail = Some ("backend unavailable: " ^ msg) }
  | exception Client.Remote_error msg ->
      { si_landed = none; si_fail = Some msg }

(* Batched per-shard forwarding of an [Insert_batch]: [plan] is one
   (shard, expected counts, request) triple per owning shard, and the
   per-shard outcomes fold into one answer. Any failure yields
   [Insert_partial] naming, per ["shard<i>/<table>"] label, exactly how
   many rows are in on each shard.

   Shard sends run sequentially in shard-index order, unlike the query
   fan-out's thread-per-shard: a batch send is short and bounded (no
   scan to wait out), per-flush thread churn costs more than it hides,
   and ordered commits make the partial-failure report deterministic —
   when shard [i] fails, every shard's landed count is a prefix of its
   own sub-batch and lower-indexed shards have already answered. *)
let route_insert_plan t plan =
  observe_fanout t (max 1 (List.length plan));
  let results =
    Array.make (List.length plan) { si_landed = []; si_fail = None }
  in
  List.iteri
    (fun i (s, expected, req) ->
      results.(i) <- send_shard_batch t s ~expected req)
    plan;
  let failed = Array.to_list results |> List.filter_map (fun r -> r.si_fail) in
  match failed with
  | [] ->
      Protocol.Insert_ok
        (Array.to_list results
        |> List.concat_map (fun r -> r.si_landed)
        |> List.fold_left (fun acc (_, n) -> acc + n) 0)
  | msg :: _ ->
      let landed =
        List.map2
          (fun (s, _, _) r ->
            List.map
              (fun (tbl, n) -> (Printf.sprintf "shard%d/%s" s tbl, n))
              r.si_landed)
          plan
          (Array.to_list results)
        |> List.concat
      in
      if List.for_all (fun (_, n) -> n = 0) landed then Protocol.Error msg
      else Protocol.Insert_partial { landed; message = msg }

let route_insert t payload =
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      let plan =
        List.map
          (fun (s, expected, sub) ->
            ( s,
              expected,
              Protocol.Insert_batch { groups = Protocol.Raw sub } ))
          (split_raw t payload)
      in
      route_insert_plan t plan)

(* ---- Queries ----------------------------------------------------------- *)

(* A pull source over one shard's slice of the bounding box: the
   adaptor's §3.5 pager ({!Client.pager}) over capped [Row_batch]es,
   fetched through the failover client, lazily — the merge pulls the
   next page only when needed. Each page adds its scanned count to
   [scanned]; when profiling, its backend profile is pushed onto
   [profs] under this shard's index, and [route_query] folds them per
   shard afterwards. *)
let shard_source t shard table schema q ~profile ~profs scanned =
  let fetch query =
    match
      Cluster_client.request_read t.cc shard
        (Protocol.Query { table; query; profile })
    with
    | Protocol.Row_batch { rows; more_available; scanned = s; profile = p } ->
        scanned := !scanned + s;
        (match p with
        | Some p ->
            let prev = Option.value ~default:[] (Hashtbl.find_opt profs shard) in
            Hashtbl.replace profs shard (p :: prev)
        | None -> ());
        { Client.rows; more_available; scanned = s; profile = p }
    | Protocol.Error msg -> err "%s" msg
    | _ -> err "bad query response"
  in
  let next = Client.pager schema ~fetch { q with Query.limit = None } in
  fun () ->
    Option.map (fun row -> (Key_codec.encode_key schema row, row)) (next ())

(* Recombine the owning shards' ordered streams with the same k-way
   merge the engine uses for tablets, then re-apply the single-node row
   cap ({!Cursor.cap}) — byte-identical to [Table.query] on a single
   node holding all the rows, provided [row_limit] equals that node's
   [server_row_limit]. *)
let route_query t table q ~profile =
  (* The fan-out runs under a fresh Route span so each backend round
     trip's Backend span (recorded by the client adaptor) nests under
     it rather than directly under the Request span. *)
  let ctx =
    if Obs.enabled t.obs then Option.map Trace.child_of (Trace.current ())
    else None
  in
  (* The routed query's record is built for its Route span and for a
     profile. Profiling is an explicit per-query opt-in measured with
     the obs clock directly, so it works even on a [noop] (disabled)
     obs. *)
  let timed = profile || ctx <> None in
  let clock = Obs.clock t.obs in
  let t0 = if timed then Lt_util.Clock.now clock else 0L in
  let rows, more_available, scanned, record =
    Trace.with_ctx ctx (fun () ->
        let schema = schema_of t table in
        let shards = Placement.shards_of_query t.placement q in
        observe_fanout t (List.length shards);
        let scanned = ref 0 in
        let profs = Hashtbl.create 8 in
        let plan_done = if timed then Lt_util.Clock.now clock else 0L in
        let sources =
          List.map
            (fun s ->
              (s, shard_source t s table schema q ~profile ~profs scanned))
            shards
        in
        let rows, more_available =
          Cursor.cap ~limit:q.Query.limit ~row_limit:t.row_limit snd
            (Cursor.merge ~asc:(q.Query.direction = Query.Asc) sources)
        in
        let record =
          if not timed then None
          else begin
            (* Per-shard sub-profiles in shard order; the top level
               aggregates their counts but reports the router's own wall
               times (plan = placement + source setup; total = whole
               routed query) and rows. *)
            let shard_profs =
              List.filter_map
                (fun s ->
                  match Hashtbl.find_opt profs s with
                  | Some ps ->
                      Some
                        ( "shard" ^ string_of_int s,
                          Profile.aggregate (List.rev ps) )
                  | None -> None)
                shards
            in
            let agg = Profile.aggregate (List.map snd shard_profs) in
            Some
              { agg with
                Profile.p_plan_us = Int64.sub plan_done t0;
                p_total_us =
                  Int64.max 0L (Int64.sub (Lt_util.Clock.now clock) t0);
                p_rows_scanned = !scanned;
                p_rows_returned = List.length rows;
                p_shards = shard_profs }
          end
        in
        (rows, more_available, !scanned, record))
  in
  (match (ctx, record) with
  | Some c, Some r -> Obs.record_op t.obs ~op:Trace.Route ~table ~t0 ~ctx:c r
  | _ -> ());
  let profile = if profile then record else None in
  Protocol.Row_batch { rows; more_available; scanned; profile }

(* ---- Latest ------------------------------------------------------------ *)

(* A non-empty prefix pins one owner; the empty prefix asks every shard
   and keeps the single-node winner: max timestamp, ties to the larger
   encoded key (the order [Table.latest]'s descending scan sees first). *)
let route_latest t table prefix =
  let schema = schema_of t table in
  let shards = Placement.shards_of_prefix t.placement prefix in
  observe_fanout t (List.length shards);
  let best = ref None in
  List.iter
    (fun s ->
      match
        Cluster_client.request_read t.cc s (Protocol.Latest { table; prefix })
      with
      | Protocol.Latest_row None -> ()
      | Protocol.Latest_row (Some row) ->
          let key = Key_codec.encode_key schema row in
          let ts = Key_codec.ts_of_key key in
          (match !best with
          | Some (bts, bkey, _)
            when bts > ts || (bts = ts && String.compare bkey key >= 0) ->
              ()
          | _ -> best := Some (ts, key, row))
      | Protocol.Error msg -> err "%s" msg
      | _ -> err "bad latest response")
    shards;
  Protocol.Latest_row (Option.map (fun (_, _, row) -> row) !best)

(* ---- Distributed observability ----------------------------------------- *)

(* Cross-process span fetch, for both forms of [Get_trace] (one trace's
   tree; the slow spans): the router's own ring plus every backend's
   matching spans, best effort — a dead shard loses its spans but never
   fails the fetch. *)
let route_trace t ~trace ~slow_only =
  let own = Trace.find ?trace ~slow_only (Obs.trace t.obs) in
  let n = Cluster_client.shard_count t.cc in
  let remote =
    List.concat_map
      (fun i ->
        match
          Cluster_client.request_read t.cc i
            (Protocol.Get_trace { trace; slow_only })
        with
        | Protocol.Trace_spans spans -> spans
        | _ -> []
        | exception (Cluster_client.Unavailable _ | Client.Remote_error _) ->
            [])
      (List.init n Fun.id)
  in
  Protocol.Trace_spans (own @ remote)

(* Metrics federation: scrape one snapshot per backend and federate them
   with the router's own registry. An unreachable shard drops out of the
   federation and reads 0 on [lt_router_shard_up] instead of failing the
   scrape; the stats view refuses such a partial sum. *)
let federated_snapshot t =
  let scraped =
    List.init (Cluster_client.shard_count t.cc) (fun i ->
        ( string_of_int i,
          match
            Cluster_client.request_read t.cc i Protocol.Get_metrics_snapshot
          with
          | Protocol.Metrics_snapshot s -> Some s
          | _ -> None
          | exception (Cluster_client.Unavailable _ | Client.Remote_error _) ->
              None ))
  in
  let up = Metrics.create_registry () in
  List.iter
    (fun (shard, snap) ->
      Metrics.Gauge.set
        (Metrics.gauge up ~labels:[ ("shard", shard) ]
           ~help:"Whether the router could scrape the shard's metrics."
           Obs.shard_up)
        (if snap = None then 0.0 else 1.0))
    scraped;
  let sources =
    ("router", Metrics.snapshot (Obs.registry t.obs))
    :: List.filter_map (fun (l, s) -> Option.map (fun s -> (l, s)) s) scraped
  in
  List.sort
    (fun a b -> String.compare a.Metrics.sn_name b.Metrics.sn_name)
    (Metrics.snapshot up @ Metrics.federate sources)

(* ---- Dispatch ---------------------------------------------------------- *)

let invalidate t table = Hashtbl.remove t.schemas table

let handle_inner t req =
  match req with
  | Protocol.Hello v ->
      if v <> Protocol.version then
        Protocol.Error (Printf.sprintf "unsupported protocol version %d" v)
      else Protocol.Hello_ok Protocol.version
  | Protocol.Ping -> Protocol.Pong
  | Protocol.Get_placement ->
      Protocol.Placement_info
        {
          pl_epoch = Placement.epoch t.placement;
          pl_policy = Placement.describe t.placement;
          pl_backends = Cluster_client.endpoints t.cc;
        }
  | Protocol.List_tables -> Cluster_client.request_read t.cc 0 Protocol.List_tables
  | Protocol.Get_table name -> (
      match Cluster_client.request_read t.cc 0 (Protocol.Get_table name) with
      | Protocol.Table_info { schema; _ } as resp ->
          Hashtbl.replace t.schemas name schema;
          resp
      | resp -> resp)
  | Protocol.Create_table { table; _ } ->
      invalidate t table;
      first_error_else (fanout_all t ~write:true req) Protocol.Ok
  | Protocol.Drop_table table ->
      invalidate t table;
      first_error_else (fanout_all t ~write:true req) Protocol.Ok
  | Protocol.Add_column { table; _ } | Protocol.Widen_column { table; _ }
  | Protocol.Set_ttl { table; _ } ->
      invalidate t table;
      first_error_else (fanout_all t ~write:true req) Protocol.Ok
  | Protocol.Flush_before _ ->
      first_error_else (fanout_all t ~write:true req) Protocol.Ok
  | Protocol.Insert_batch { groups } ->
      route_insert t (Protocol.raw_of_payload groups)
  | Protocol.Query { table; query; profile } -> route_query t table query ~profile
  | Protocol.Latest { table; prefix } -> route_latest t table prefix
  | Protocol.Delete_prefix { table = _; prefix } ->
      Lt_util.Mutexes.with_lock t.mutex (fun () ->
          let shards = Placement.shards_of_prefix t.placement prefix in
          observe_fanout t (List.length shards);
          let total = ref 0 in
          List.iter
            (fun s ->
              match Cluster_client.request_write t.cc s req with
              | Protocol.Deleted n -> total := !total + n
              | Protocol.Error msg -> err "%s" msg
              | _ -> err "bad delete response")
            shards;
          Protocol.Deleted !total)
  | Protocol.Get_metrics_snapshot ->
      Protocol.Metrics_snapshot (federated_snapshot t)
  | Protocol.Get_trace { trace; slow_only } -> route_trace t ~trace ~slow_only

let handle t req =
  try handle_inner t req with
  | Routed resp -> resp
  | Cluster_client.Unavailable msg ->
      Protocol.Error ("backend unavailable: " ^ msg)
  | Client.Remote_error msg -> Protocol.Error msg
  | Schema.Invalid msg -> Protocol.Error msg
  | Invalid_argument msg -> Protocol.Error msg
  (* A malformed raw batch payload surfaces during the span scan, not
     at frame decode. *)
  | Protocol.Protocol_error msg -> Protocol.Error msg
  | Lt_util.Binio.Corrupt msg -> Protocol.Error msg

(* ---- Rebalance (the §2.2 shard split) ---------------------------------- *)

let reb fmt = Printf.ksprintf (fun msg -> raise (Rebalance_error msg)) fmt

let rebalance t ~value ~to_shard =
  if to_shard < 0 || to_shard >= Cluster_client.shard_count t.cc then
    invalid_arg "Router.rebalance: shard out of range";
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      let from_shard = Placement.shard_of_value t.placement value in
      if from_shard = to_shard then 0
      else begin
        let tables =
          match Cluster_client.request_read t.cc from_shard Protocol.List_tables with
          | Protocol.Tables names -> names
          | Protocol.Error msg -> reb "%s" msg
          | _ -> reb "bad tables response"
        in
        let moved = ref 0 in
        (* Phase 1: copy. Queries keep running — a key transiently on
           both shards is deduplicated by the query merge. Inserts wait
           on the mutex we hold, so the copy cannot miss rows. *)
        List.iter
          (fun table ->
            let schema =
              match
                Cluster_client.request_read t.cc from_shard
                  (Protocol.Get_table table)
              with
              | Protocol.Table_info { schema; _ } -> schema
              | Protocol.Error msg -> reb "%s" msg
              | _ -> reb "bad table info response"
            in
            (* Rows for [value] on the destination can only be debris of
               an earlier aborted rebalance; clear them so re-inserting
               the copy cannot hit duplicate-key errors. *)
            (match
               Cluster_client.request_write t.cc to_shard
                 (Protocol.Delete_prefix { table; prefix = [ value ] })
             with
            | Protocol.Deleted _ -> ()
            | Protocol.Error msg -> reb "%s" msg
            | _ -> reb "bad delete response");
            (* The §3.5 pager drives the copy: each page read from the
               old owner lands on the new one as one [Insert_batch]. *)
            let fetch query =
              match
                Cluster_client.request_read t.cc from_shard
                  (Protocol.Query { table; query; profile = false })
              with
              | Protocol.Row_batch { rows; more_available; scanned; profile } ->
                  (if rows <> [] then
                     match
                       Cluster_client.request_write t.cc to_shard
                         (Protocol.Insert_batch
                            { groups = Protocol.Groups [ (table, rows) ] })
                     with
                     | Protocol.Insert_ok n -> moved := !moved + n
                     | Protocol.Insert_partial { message; _ } ->
                         reb "%s" message
                     | Protocol.Error msg -> reb "%s" msg
                     | _ -> reb "bad insert response");
                  { Client.rows; more_available; scanned; profile }
              | Protocol.Error msg -> reb "%s" msg
              | _ -> reb "bad query response"
            in
            let next = Client.pager schema ~fetch (Query.prefix [ value ]) in
            while Option.is_some (next ()) do () done)
          tables;
        (* Phase 2: flip ownership. From here new inserts for [value]
           land on [to_shard]. *)
        t.placement <- Placement.with_override t.placement ~value ~shard:to_shard;
        (* Phase 3: bulk-delete the moved rows from the old owner (§7).
           A failure here leaves harmless duplicates that queries dedup
           and the next rebalance attempt clears. *)
        List.iter
          (fun table ->
            match
              Cluster_client.request_write t.cc from_shard
                (Protocol.Delete_prefix { table; prefix = [ value ] })
            with
            | Protocol.Deleted _ -> ()
            | Protocol.Error msg -> reb "%s" msg
            | _ -> reb "bad delete response")
          tables;
        !moved
      end)

let backend t =
  {
    Server.b_handle = handle t;
    b_obs = t.obs;
    b_maintenance = None;
    b_on_stop = (fun () -> Cluster_client.close t.cc);
  }
