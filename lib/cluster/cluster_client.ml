module Obs = Lt_obs.Obs
module Metrics = Lt_obs.Metrics
module Trace = Lt_obs.Trace
module Client = Lt_net.Client
module Protocol = Lt_net.Protocol

let log = Logs.Src.create "lt.cluster" ~doc:"LittleTable cluster client"

module Log = (val Logs.src_log log)

exception Unavailable of string

type endpoint = { host : string; port : int }

type shard = {
  sh_primary : Client.t;
  sh_replica : Client.t option;
  mutable sh_on_replica : bool;
}

type t = {
  shards : shard array;
  eps : endpoint list;
  obs : Obs.t;
}

let create ?(obs = Obs.noop) ?connect_timeout ?(replicas = []) ~backends () =
  if backends = [] then invalid_arg "Cluster_client.create: no backends";
  let n = List.length backends in
  List.iter
    (fun (i, _) ->
      if i < 0 || i >= n then
        invalid_arg "Cluster_client.create: replica shard index out of range")
    replicas;
  let client ep =
    Client.create ~obs ?connect_timeout ~host:ep.host ~port:ep.port ()
  in
  let shards =
    Array.of_list
      (List.mapi
         (fun i ep ->
           {
             sh_primary = client ep;
             sh_replica = Option.map client (List.assoc_opt i replicas);
             sh_on_replica = false;
           })
         backends)
  in
  { shards; eps = backends; obs }

let shard_count t = Array.length t.shards

let endpoints t = List.map (fun ep -> (ep.host, ep.port)) t.eps

let on_replica t i = t.shards.(i).sh_on_replica

(* One instrumented round trip on an established (or establishable)
   connection; a peer that stays down through the reconnect backoff is
   reported as [Unavailable]. *)
let attempt t c req =
  let timed () =
    let t0 = Obs.now_us t.obs in
    let resp = Client.request c req in
    if Obs.enabled t.obs then
      Metrics.Histogram.observe_us
        (Obs.backend_hist t.obs ~backend:(Client.peer c))
        (Int64.sub (Obs.now_us t.obs) t0);
    Metrics.Counter.inc
      (Obs.backend_requests t.obs ~backend:(Client.peer c)
         ~kind:(Protocol.request_kind req))
      1;
    resp
  in
  try timed () with
  | Client.Disconnected -> (
      match Client.reconnect ~max_attempts:3 c with
      | () -> (
          try timed ()
          with Client.Disconnected -> raise (Unavailable (Client.peer c)))
      | exception Client.Remote_error msg -> raise (Unavailable msg)
      | exception Client.Disconnected -> raise (Unavailable (Client.peer c)))

(* Writes go to the primary only: the replica is an archival spare, not
   a second writer — fanning inserts to it would fork history. *)
let request_write t i req = attempt t t.shards.(i).sh_primary req

(* Reads prefer the primary and fail over to the replica, stickily: once
   a primary has been seen dead, later reads go straight to the spare
   instead of re-paying the reconnect backoff per request. *)
let request_read t i req =
  let sh = t.shards.(i) in
  match sh.sh_replica with
  | Some r when sh.sh_on_replica -> attempt t r req
  | None -> attempt t sh.sh_primary req
  | Some r -> (
      try attempt t sh.sh_primary req
      with Unavailable _ ->
        let t0 = Obs.now_us t.obs in
        let resp = attempt t r req in
        sh.sh_on_replica <- true;
        Metrics.Counter.inc
          (Obs.failovers t.obs ~backend:(Client.peer sh.sh_primary))
          1;
        (* Mark the redirect in the trace so a reassembled tree shows
           where a read left the primary for the spare. *)
        if Obs.enabled t.obs then
          Obs.record_op t.obs ~op:Trace.Failover
            ~table:(Client.peer sh.sh_primary) ~t0 (Obs.elapsed t.obs ~t0);
        Log.warn (fun m ->
            m "shard %d primary %s unreachable; reading from replica %s" i
              (Client.peer sh.sh_primary) (Client.peer r));
        resp)

let close t =
  Array.iter
    (fun sh ->
      Client.close sh.sh_primary;
      Option.iter Client.close sh.sh_replica)
    t.shards
