module Mutexes = Lt_util.Mutexes

type 'a state =
  | Running
  | Idle
  | Exhausted
  | Failed of exn * Printexc.raw_backtrace

type 'a buf = {
  b_mutex : Mutex.t;
  b_cond : Condition.t;
  chunks : 'a array Queue.t;
  mutable st : 'a state;
  src : unit -> 'a option;
  (* Accumulators are written by the (single, self-rescheduling) producer
     task and read by the consumer only after the terminal transition, so
     they need no lock of their own. *)
  mutable busy_us : int64;
  mutable rows : int;
  mutable reported : bool;
}

type 'a t = {
  pool : Pool.t;
  cancel : Cancel.t;
  now_us : unit -> int64;
  on_worker : busy_us:int64 -> rows:int -> unit;
  on_stall : int64 -> unit;
  done_mutex : Mutex.t;
  done_cond : Condition.t;
  (* Number of sources in [Running] state, i.e. with a producer task
     queued or executing. [finish] waits for this to reach zero before
     the caller releases the tablets the sources read from. *)
  mutable inflight : int;
  bufs : 'a buf list;
}

let dec_inflight t =
  Mutexes.with_lock t.done_mutex (fun () ->
      t.inflight <- t.inflight - 1;
      if t.inflight = 0 then Condition.broadcast t.done_cond)

let inc_inflight t = Mutexes.with_lock t.done_mutex (fun () -> t.inflight <- t.inflight + 1)

let report t b =
  let fire =
    Mutexes.with_lock b.b_mutex (fun () ->
        if b.reported then false
        else begin
          b.reported <- true;
          true
        end)
  in
  if fire then t.on_worker ~busy_us:b.busy_us ~rows:b.rows

(* Rows a producer pulls per round, and chunks it may buffer ahead of
   its consumer before it parks. *)
let chunk_rows = 128

let depth = 4

(* One producer round: pull up to [chunk_rows] rows (checking the cancel
   token between rows), publish the chunk, then either reschedule itself,
   pause ([Idle], when the consumer is [depth] chunks behind), or retire
   ([Exhausted]/[Failed]). Pool submissions happen outside the buffer
   mutex so producers never hold a lock across a lock acquisition in the
   pool. *)
let rec producer t b =
  let t0 = t.now_us () in
  let out = ref [] in
  let n = ref 0 in
  let outcome =
    try
      let rec pull () =
        if !n >= chunk_rows then `More
        else if Cancel.is_set t.cancel then `Drained
        else
          match b.src () with
          | Some v ->
              out := v :: !out;
              incr n;
              pull ()
          | None -> `Drained
      in
      pull ()
    with e -> `Failed (e, Printexc.get_raw_backtrace ())
  in
  (b.busy_us <- Int64.add b.busy_us (Int64.sub (t.now_us ()) t0))
  [@lint.allow
    "domain-race: only the single self-rescheduling producer task writes \
     the accumulators, and the consumer reads them in [report] strictly \
     after the terminal [reported] transition under [b_mutex], which \
     orders every write before the read"];
  (b.rows <- b.rows + !n)
  [@lint.allow
    "domain-race: only the single self-rescheduling producer task writes \
     the accumulators, and the consumer reads them in [report] strictly \
     after the terminal [reported] transition under [b_mutex], which \
     orders every write before the read"];
  let chunk = if !n = 0 then [||] else Array.of_list (List.rev !out) in
  let action =
    Mutexes.with_lock b.b_mutex (fun () ->
        if Array.length chunk > 0 then Queue.push chunk b.chunks;
        let action =
          match outcome with
          | `Failed (e, bt) ->
              b.st <- Failed (e, bt);
              `Retire_terminal
          | `Drained ->
              b.st <- Exhausted;
              `Retire_terminal
          | `More ->
              if Queue.length b.chunks >= depth then begin
                b.st <- Idle;
                `Retire_idle
              end
              else begin
                b.st <- Running;
                `Resubmit
              end
        in
        Condition.signal b.b_cond;
        action)
  in
  match action with
  | `Resubmit -> Pool.submit_task t.pool (fun () -> producer t b)
  | `Retire_idle -> dec_inflight t
  | `Retire_terminal ->
      report t b;
      dec_inflight t

(* Pop the next chunk for the consumer, restarting a paused producer and
   blocking (with stall accounting) while one is mid-round. [Idle] with an
   empty queue is unreachable — [Idle] is only entered with >= depth >= 1
   chunks buffered and every pop from [Idle] flips back to [Running] —
   but the recovery is the same resubmit either way. *)
let refill t b =
  let resume = ref false in
  let stall = ref 0L in
  let res =
    Mutexes.with_lock b.b_mutex (fun () ->
        let rec loop () =
          if not (Queue.is_empty b.chunks) then begin
            let arr = Queue.pop b.chunks in
            (match b.st with
            | Idle ->
                b.st <- Running;
                resume := true
            | Running | Exhausted | Failed _ -> ());
            Some arr
          end
          else
            match b.st with
            | Exhausted -> None
            | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
            | Idle ->
                b.st <- Running;
                resume := true;
                wait ()
            | Running -> wait ()
        and wait () =
          let t0 = t.now_us () in
          Condition.wait b.b_cond b.b_mutex;
          stall := Int64.add !stall (Int64.sub (t.now_us ()) t0);
          loop ()
        in
        loop ())
  in
  if !resume then begin
    inc_inflight t;
    Pool.submit_task t.pool (fun () -> producer t b)
  end;
  if Int64.compare !stall 0L > 0 then t.on_stall !stall;
  res

let staged_source t b =
  let chunk = ref [||] in
  let pos = ref 0 in
  let rec next () =
    if !pos < Array.length !chunk then begin
      let v = !chunk.(!pos) in
      incr pos;
      Some v
    end
    else
      match refill t b with
      | Some arr ->
          chunk := arr;
          pos := 0;
          next ()
      | None -> None
  in
  next

let finish t () =
  Cancel.set t.cancel;
  Mutexes.with_lock t.done_mutex (fun () ->
      while t.inflight > 0 do
        Condition.wait t.done_cond t.done_mutex
      done);
  (* Sources parked in [Idle] never hit a terminal transition; flush
     their accumulators so every source reports exactly once. *)
  List.iter (fun b -> report t b) t.bufs

let stage pool ?(now_us = fun () -> 0L)
    ?(on_worker = fun ~busy_us:_ ~rows:_ -> ()) ?(on_stall = fun _ -> ()) sources =
  let bufs =
    List.map
      (fun (_prio, src) ->
        {
          b_mutex = Mutex.create ();
          b_cond = Condition.create ();
          chunks = Queue.create ();
          st = Running;
          src;
          busy_us = 0L;
          rows = 0;
          reported = false;
        })
      sources
  in
  let t =
    {
      pool;
      cancel = Cancel.create ();
      now_us;
      on_worker;
      on_stall;
      done_mutex = Mutex.create ();
      done_cond = Condition.create ();
      inflight = List.length bufs;
      bufs;
    }
  in
  List.iter (fun b -> Pool.submit_task pool (fun () -> producer t b)) bufs;
  let staged = List.map2 (fun (prio, _) b -> (prio, staged_source t b)) sources bufs in
  (staged, finish t)
