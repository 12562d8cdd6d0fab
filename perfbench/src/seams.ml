(* The traced run's seam ledger: per op type, where a wire request's time
   went between the client, the network, the router and the servers.

   Spans per request (all sharing its id): one "client" span around the
   whole op, "client.encode" around row encoding, one "client.rt" per
   round trip, a "router" span per request the router handled, and a
   "server" span per request a server (or shard) handled. *)

type acc = {
  mutable ops : int;
  mutable rows : int;  (** rows the op carried or returned *)
  mutable frames : int;
  mutable op_ns : float;
  mutable encode_ns : float;
  mutable encode_rows : int;
  mutable client_self_ns : float;  (** op minus its round trips *)
  mutable net_ns : float;  (** round trips minus the front-end's spans *)
  mutable router_self_ns : float;  (** router spans minus shard spans *)
  mutable server_ns : float;  (** sum of server spans *)
  mutable server_rows : int;
  mutable server_spans : int;
  mutable router_spans : int;
  mutable router_rows : int;
  mutable fanout : int;  (** distinct shards, summed over router spans *)
  mutable straggler_sum : float;  (** max/mean shard span, per fan-out *)
  mutable straggler_n : int;
}

let acc () =
  {
    ops = 0; rows = 0; frames = 0; op_ns = 0.0; encode_ns = 0.0; encode_rows = 0;
    client_self_ns = 0.0; net_ns = 0.0; router_self_ns = 0.0; server_ns = 0.0;
    server_rows = 0; server_spans = 0; router_spans = 0; router_rows = 0;
    fanout = 0; straggler_sum = 0.0; straggler_n = 0;
  }

let layer l s = s.Spans.layer = l
let sum_dur = List.fold_left (fun a s -> a +. Spans.dur_ns s) 0.0

let within (p : Spans.span) (c : Spans.span) = c.t0 >= p.t0 && c.t1 <= p.t1

(* The ledger over the requests whose op is one of [kinds]. [front] is
   the layer the client talks to: "server" on a single node, "router"
   in front of shards. *)
let analyze ~front ~kinds spans =
  let a = acc () in
  List.iter
    (fun (_, l) ->
      match List.filter (layer "client") l with
      | [ op ] when List.mem op.Spans.kind kinds ->
          let rts = List.filter (layer "client.rt") l in
          let enc = List.filter (layer "client.encode") l in
          let fronts = List.filter (layer front) l in
          let servers = List.filter (layer "server") l in
          a.ops <- a.ops + 1;
          a.rows <- a.rows + op.rows;
          a.frames <- a.frames + List.length rts;
          a.op_ns <- a.op_ns +. Spans.dur_ns op;
          a.encode_ns <- a.encode_ns +. sum_dur enc;
          a.encode_rows <- a.encode_rows + List.fold_left (fun n s -> n + s.Spans.rows) 0 enc;
          a.client_self_ns <- a.client_self_ns +. Spans.dur_ns op -. sum_dur rts;
          List.iter
            (fun rt -> a.net_ns <- a.net_ns +. Spans.self_ns rt (List.filter (within rt) fronts))
            rts;
          a.server_ns <- a.server_ns +. sum_dur servers;
          a.server_spans <- a.server_spans + List.length servers;
          a.server_rows <- a.server_rows + List.fold_left (fun n s -> n + s.Spans.rows) 0 servers;
          if front = "router" then
            List.iter
              (fun (r : Spans.span) ->
                let shards = List.filter (within r) servers in
                a.router_spans <- a.router_spans + 1;
                a.router_rows <- a.router_rows + r.rows;
                a.router_self_ns <- a.router_self_ns +. Spans.self_ns r shards;
                let nodes = List.sort_uniq compare (List.map (fun s -> s.Spans.node) shards) in
                a.fanout <- a.fanout + List.length nodes;
                if List.length shards >= 2 then begin
                  let durs = List.map Spans.dur_ns shards in
                  let mean = List.fold_left ( +. ) 0.0 durs /. float (List.length durs) in
                  a.straggler_sum <- a.straggler_sum +. (List.fold_left Float.max 0.0 durs /. mean);
                  a.straggler_n <- a.straggler_n + 1
                end)
              fronts
      | _ -> ())
    (Spans.by_request spans);
  a

(* Reconciliation: the share of the traced phase's wall time that the
   seams' self times account for. Self times that sum to more than the
   total mean spans overlap where the ledger assumes nesting, so the
   workload is flagged. Returns the share in percent. *)
let reconcile ?(background_ns = 0.0) ~workload ~wall_ns (a : acc) =
  let parts =
    [
      ("client", a.client_self_ns);
      ("net", a.net_ns);
      ("router", a.router_self_ns);
      ("server", a.server_ns);
    ]
  in
  let seam_ns = List.fold_left (fun s (_, v) -> s +. v) 0.0 parts in
  Printf.printf "%s reconciliation (traced phase, %.3f s wall):\n" workload (wall_ns /. 1e9);
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-7s self %10.3f ms  %5.1f%% of wall\n" name (v /. 1e6)
        (100.0 *. v /. wall_ns))
    parts;
  if background_ns > 0.0 then
    Printf.printf "  (maintenance run between ops %10.3f ms  %5.1f%% of wall, not a seam)\n"
      (background_ns /. 1e6) (100.0 *. background_ns /. wall_ns);
  let share = 100.0 *. seam_ns /. wall_ns in
  Printf.printf "  seams   %10.3f ms  %5.1f%% of wall%s\n" (seam_ns /. 1e6) share
    (if seam_ns > wall_ns then "  ** FLAG: self times exceed the total **" else "");
  share
