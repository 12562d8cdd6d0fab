type op =
  | Insert
  | Query
  | Latest
  | Flush
  | Merge
  | Stall
  | Request
  | Route
  | Backend
  | Failover

type ctx = {
  cx_trace_hi : int64;
  cx_trace_lo : int64;
  cx_span : int64;
  cx_parent : int64;
}

type span = {
  sp_op : op;
  sp_table : string;
  sp_start_us : int64;
  sp_ctx : ctx option;
  sp_prof : Profile.t;
}

type t = {
  ring : span option array;
  mutable next : int; (* total spans ever recorded; write cursor = next mod capacity *)
  slow_us : int64; (* fixed at [create]: read without the mutex *)
  mutex : Mutex.t;
}

let log_src = Logs.Src.create "lt.slowop" ~doc:"LittleTable slow operations"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* ---- Trace/span id generation ----------------------------------------- *)

(* One process-wide generator, lazily seeded from the clock of the first
   [new_root] caller. Under a manual clock the seed — and therefore every
   id — is deterministic, which keeps torture [--replay] byte-stable.
   Never [Random]: the clock-discipline lint forbids it, and it would
   desynchronize replays. *)
let id_state : Lt_util.Xorshift.t option ref = ref None

let id_mutex = Mutex.create ()

let seed_ids seed =
  Lt_util.Mutexes.with_lock id_mutex (fun () ->
      id_state := Some (Lt_util.Xorshift.create seed))

(* Ids must be non-zero: 0 is reserved for "no parent". *)
let rec nonzero rng =
  let v = Lt_util.Xorshift.next rng in
  if v = 0L then nonzero rng else v

let fresh_ids ~clock n =
  Lt_util.Mutexes.with_lock id_mutex (fun () ->
      let rng =
        match !id_state with
        | Some rng -> rng
        | None ->
            let rng = Lt_util.Xorshift.create (Lt_util.Clock.now clock) in
            id_state := Some rng;
            rng
      in
      List.init n (fun _ -> nonzero rng))

let new_root ~clock =
  match fresh_ids ~clock 3 with
  | [ hi; lo; sp ] ->
      { cx_trace_hi = hi; cx_trace_lo = lo; cx_span = sp; cx_parent = 0L }
  | _ -> assert false

let child_of parent =
  match fresh_ids ~clock:Lt_util.Clock.system 1 with
  | [ sp ] ->
      { cx_trace_hi = parent.cx_trace_hi;
        cx_trace_lo = parent.cx_trace_lo;
        cx_span = sp;
        cx_parent = parent.cx_span }
  | _ -> assert false

let same_trace ~hi ~lo c = c.cx_trace_hi = hi && c.cx_trace_lo = lo

let trace_id_hex c = Printf.sprintf "%016Lx%016Lx" c.cx_trace_hi c.cx_trace_lo

let parse_trace_id s =
  let s = String.trim s in
  let hex_i64 sub =
    (* [Int64.of_string] with 0x accepts the full unsigned range. *)
    Int64.of_string ("0x" ^ sub)
  in
  if String.length s = 32 then
    match (hex_i64 (String.sub s 0 16), hex_i64 (String.sub s 16 16)) with
    | hi, lo -> Some (hi, lo)
    | exception _ -> None
  else if String.length s > 0 && String.length s <= 16 then
    match hex_i64 s with lo -> Some (0L, lo) | exception _ -> None
  else None

(* ---- Ambient (per-thread) context ------------------------------------- *)

(* Keyed by [Thread.id] rather than a domain-local: threads, not domains,
   carry requests in this codebase, and the lint confines [Domain.*] to
   [lib/exec]. Entries are removed on scope exit so the table stays
   bounded by live, in-scope threads. *)
let ambient : (int, ctx) Hashtbl.t = Hashtbl.create 16

let ambient_mutex = Mutex.create ()

let current () =
  let key = Thread.id (Thread.self ()) in
  Lt_util.Mutexes.with_lock ambient_mutex (fun () ->
      Hashtbl.find_opt ambient key)

let with_ctx ctx f =
  match ctx with
  | None -> f ()
  | Some c ->
      let key = Thread.id (Thread.self ()) in
      let prev =
        Lt_util.Mutexes.with_lock ambient_mutex (fun () ->
            let prev = Hashtbl.find_opt ambient key in
            Hashtbl.replace ambient key c;
            prev)
      in
      Fun.protect
        ~finally:(fun () ->
          Lt_util.Mutexes.with_lock ambient_mutex (fun () ->
              match prev with
              | Some p -> Hashtbl.replace ambient key p
              | None -> Hashtbl.remove ambient key))
        f

(* ---- Ring ------------------------------------------------------------- *)

let create ~capacity ~slow_us () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { ring = Array.make capacity None;
    next = 0;
    slow_us;
    mutex = Mutex.create () }

let capacity t = Array.length t.ring

let slow_us t = t.slow_us

let recorded t = Lt_util.Mutexes.with_lock t.mutex (fun () -> t.next)

let op_name = function
  | Insert -> "insert"
  | Query -> "query"
  | Latest -> "latest"
  | Flush -> "flush"
  | Merge -> "merge"
  | Stall -> "stall"
  | Request -> "request"
  | Route -> "route"
  | Backend -> "backend"
  | Failover -> "failover"

let duration_us sp = sp.sp_prof.Profile.p_total_us

let counts sp =
  let p = sp.sp_prof in
  let rows =
    if p.Profile.p_rows_scanned > 0 || p.p_rows_returned > 0 then
      Printf.sprintf " scanned=%d returned=%d" p.p_rows_scanned
        p.p_rows_returned
    else ""
  in
  if p.p_bytes_in > 0 || p.p_bytes_out > 0 then
    Printf.sprintf "%s bytes_in=%d bytes_out=%d" rows p.p_bytes_in
      p.p_bytes_out
  else rows

let pp_span ppf sp =
  let p = sp.sp_prof in
  let ids =
    match sp.sp_ctx with
    | None -> ""
    | Some c -> Printf.sprintf "  trace=%s" (trace_id_hex c)
  in
  Format.fprintf ppf "%-8s %-16s %8Ld us %s tablets=%d cache=%d/%d%s"
    (op_name sp.sp_op) sp.sp_table (duration_us sp) (counts sp)
    p.Profile.p_tablets p.p_cache_hits
    (p.p_cache_hits + p.p_cache_misses)
    ids

let record t sp =
  let slow =
    Lt_util.Mutexes.with_lock t.mutex (fun () ->
        let cap = Array.length t.ring in
        t.ring.(t.next mod cap) <- Some sp;
        t.next <- t.next + 1;
        duration_us sp >= t.slow_us)
  in
  if slow then Log.warn (fun m -> m "slow op: %a" pp_span sp)

(* Newest-first walk of the retained window. *)
let fold_recent t f =
  Lt_util.Mutexes.with_lock t.mutex (fun () ->
      let cap = Array.length t.ring in
      let retained = min t.next cap in
      let acc = ref [] in
      for i = 1 to retained do
        match t.ring.((t.next - i + (cap * 2)) mod cap) with
        | Some sp -> if f sp then acc := sp :: !acc
        | None -> ()
      done;
      List.rev !acc)

let take n l =
  let rec go n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: go (n - 1) tl
  in
  go n l

let table_matches table sp =
  match table with None -> true | Some tbl -> sp.sp_table = tbl

let recent ?n ?table t =
  let all = fold_recent t (table_matches table) in
  match n with None -> all | Some n -> take n all

(* Oldest first — ready for tree assembly. *)
let find ?trace ?(slow_only = false) t =
  let in_trace sp =
    match (trace, sp.sp_ctx) with
    | None, _ -> true
    | Some (hi, lo), Some c -> same_trace ~hi ~lo c
    | Some _, None -> false
  in
  List.rev
    (fold_recent t (fun sp ->
         ((not slow_only) || duration_us sp >= t.slow_us) && in_trace sp))
