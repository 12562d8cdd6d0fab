(* In-memory span ledger for the traced run.

   The benchmark records a span around each call it makes into a layer's
   public functions, and around [Server.handle] / [Router.handle] by
   wrapping the backends it starts. Every load generator keeps at most one
   request in flight, so the id of that request ([current]) names the
   request a server-side span belongs to; spans of one request share it.
   Nothing is written until the run ends. *)

type span = {
  layer : string;  (** "client", "client.encode", "router", "server", ... *)
  kind : string;  (** request kind, e.g. "insert", "query" *)
  req : int;
  t0 : int64;
  t1 : int64;
  rows : int;  (** rows carried or returned, where the layer knows *)
  node : int;  (** which server (shard index) took the span *)
}

let enabled = Atomic.make false
let current = Atomic.make 0
let lock = Mutex.create ()
let ledger : span list ref = ref []

let reset () =
  Mutex.protect lock (fun () -> ledger := []);
  Atomic.set current 0

let next_request () = Atomic.incr current

let record ~layer ~kind ?(rows = 0) ?(node = 0) t0 t1 =
  let s = { layer; kind; req = Atomic.get current; t0; t1; rows; node } in
  Mutex.protect lock (fun () -> ledger := s :: !ledger)

(* [wrap ~layer ~kind f] times [f] as one span when tracing is on; [rows]
   reads the row count off the result. *)
let wrap ~layer ~kind ?(rows = fun _ -> 0) ?node f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = Mclock.now_ns () in
    let r = f () in
    record ~layer ~kind ~rows:(rows r) ?node t0 (Mclock.now_ns ());
    r
  end

let all () = Mutex.protect lock (fun () -> List.rev !ledger)

let dur_ns s = Mclock.ns_between s.t0 s.t1

(* Length of the union of [children]'s intervals clipped to
   [\[lo, hi\]]: overlapping children (a parallel fan-out) count once. *)
let covered_ns ~lo ~hi children =
  let clipped =
    List.filter_map
      (fun c ->
        let a = max lo c.t0 and b = min hi c.t1 in
        if b > a then Some (a, b) else None)
      children
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a <= cb then (acc, Some (ca, max cb b))
            else (acc +. Mclock.ns_between ca cb, Some (a, b)))
      (0.0, None) sorted
  in
  match last with
  | None -> total
  | Some (a, b) -> total +. Mclock.ns_between a b

(* A layer's self time: its span minus the part of it that child spans
   cover. *)
let self_ns parent children =
  dur_ns parent -. covered_ns ~lo:parent.t0 ~hi:parent.t1 children

(* Spans grouped by request id, in recording order. *)
let by_request spans =
  let h = Hashtbl.create 4096 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find h s.req with Not_found -> [] in
      Hashtbl.replace h s.req (s :: l))
    spans;
  Hashtbl.fold (fun req l acc -> (req, List.rev l) :: acc) h []
